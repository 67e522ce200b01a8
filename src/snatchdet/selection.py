"""Importance-based feature selection and PCA class-separability export."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .features import FeatureSchema


class CountBelowOne(ValueError):
    """Asked for fewer than one feature or component."""


class KTooLarge(ValueError):
    """Asked for more features than the schema has."""


class TooFewSamples(ValueError):
    """PCA needs at least two samples."""


class TooManyComponents(ValueError):
    """n_components exceeds min(samples - 1, features)."""


@dataclass(frozen=True)
class SelectionResult:
    ranked: tuple[tuple[str, float], ...]  # (feature name, importance), descending
    k: int
    schema: FeatureSchema  # reduced schema, original relative order preserved


def select_top_k(schema: FeatureSchema, importances: Sequence[float], k: int) -> SelectionResult:
    """Keep the k most important features; ties break by schema order."""
    if k < 1:
        raise CountBelowOne(f"k must be at least 1, got {k}")
    if k > len(schema.names):
        raise KTooLarge(f"k={k} exceeds {len(schema.names)} features")
    if len(importances) != len(schema.names):
        raise ValueError("importances must align with the schema")
    order = sorted(range(len(schema.names)), key=lambda i: (-float(importances[i]), i))
    top = order[:k]
    ranked = tuple((schema.names[i], float(importances[i])) for i in top)
    reduced = schema.select([schema.names[i] for i in top])
    return SelectionResult(ranked=ranked, k=k, schema=reduced)


@dataclass(frozen=True)
class PcaResult:
    components: np.ndarray  # (n_components, n_features), orthonormal rows
    explained_variance: np.ndarray  # (n_components,), nonincreasing
    explained_variance_ratio: np.ndarray
    projected: np.ndarray  # (n_samples, n_components)
    mean: np.ndarray
    scale: np.ndarray  # 1.0 where standardization was off or variance was 0


def pca_project(matrix, n_components: int = 2, standardize: bool = True) -> PcaResult:
    """Project samples onto the leading eigenvectors of the covariance.

    Columns are centered (and z-scored when ``standardize``; zero-variance
    columns are left at 0). Component signs follow the convention that the
    largest-magnitude loading is positive.
    """
    if n_components < 1:
        raise CountBelowOne(f"n_components must be at least 1, got {n_components}")
    X = np.asarray(matrix, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError("matrix must be 2-d")
    n, d = X.shape
    if n < 2:
        raise TooFewSamples(f"PCA needs at least 2 samples, got {n}")
    if n_components > min(n - 1, d):
        raise TooManyComponents(
            f"n_components={n_components} exceeds min(samples-1, features)={min(n - 1, d)}"
        )

    mean = X.mean(axis=0)
    centered = X - mean
    scale = np.ones(d)
    if standardize:
        std = centered.std(axis=0, ddof=1)
        scale = np.where(std > 0, std, 1.0)
        centered = centered / scale

    cov = np.atleast_2d(np.cov(centered, rowvar=False, ddof=1))
    eigenvalues, eigenvectors = np.linalg.eigh(cov)
    order = np.argsort(eigenvalues)[::-1][:n_components]
    values = eigenvalues[order]
    components = eigenvectors[:, order].T

    # Deterministic sign: largest-magnitude loading positive.
    for i in range(components.shape[0]):
        j = int(np.argmax(np.abs(components[i])))
        if components[i, j] < 0:
            components[i] = -components[i]

    projected = centered @ components.T
    total = float(np.trace(cov))
    ratio = values / total if total > 0 else np.zeros_like(values)
    return PcaResult(
        components=components,
        explained_variance=values,
        explained_variance_ratio=ratio,
        projected=projected,
        mean=mean,
        scale=scale,
    )


def write_pca_csv(
    dest,
    result: PcaResult,
    sample_ids: Sequence[str],
    labels: Optional[Sequence[object]] = None,
) -> None:
    """Fig-2 style export: sample_id, pc1, pc2, label rows."""
    import csv

    if isinstance(dest, str):
        with open(dest, "w", encoding="utf-8", newline="") as fh:
            write_pca_csv(fh, result, sample_ids, labels)
        return
    writer = csv.writer(dest)
    n_components = result.projected.shape[1]
    writer.writerow(["sample_id", *(f"pc{i + 1}" for i in range(n_components)), "label"])
    for i, sid in enumerate(sample_ids):
        label = "" if labels is None else labels[i]
        writer.writerow([sid, *(repr(float(v)) for v in result.projected[i]), label])
