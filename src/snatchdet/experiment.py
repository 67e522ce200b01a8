"""Experiment helpers: whole-clip corpus features, held-out split, metrics.

Used by ``scripts/run_synthetic_experiment.py`` and the tests; the
detector itself never imports this module, so it does not pull in the
synthetic generator.
"""

from __future__ import annotations

from typing import Iterable, Optional

import numpy as np

from .config import PipelineConfig
from .features import FeatureSchema, full_schema
from .forest import Dataset
from .pipeline import extract_clip_row
from .synth import Clip


def corpus_dataset(
    clips: Iterable[Clip],
    cfg: PipelineConfig,
    schema: Optional[FeatureSchema] = None,
) -> Dataset:
    """Whole-clip feature matrix for a generated corpus."""
    schema = schema or full_schema()
    rows = []
    labels = []
    ids = []
    for i, clip in enumerate(clips):
        vector = extract_clip_row(clip.frames, cfg, schema)
        if vector is None:
            continue
        rows.append(vector.as_row(schema))
        labels.append(clip.label)
        ids.append(clip.clip_id or f"clip{i:04d}")
    return Dataset(
        feature_names=schema.names,
        X=np.array(rows, dtype=np.float64),
        y=np.array(labels, dtype=np.int64),
        ids=tuple(ids),
    )


def binary_metrics(y_true: Iterable[int], y_pred: Iterable[int]) -> dict[str, float]:
    """Accuracy / precision / recall / F1 for the positive class."""
    y_true = list(y_true)
    y_pred = list(y_pred)
    tp = sum(1 for t, p in zip(y_true, y_pred) if t == 1 and p == 1)
    fp = sum(1 for t, p in zip(y_true, y_pred) if t == 0 and p == 1)
    fn = sum(1 for t, p in zip(y_true, y_pred) if t == 1 and p == 0)
    tn = sum(1 for t, p in zip(y_true, y_pred) if t == 0 and p == 0)
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    accuracy = (tp + tn) / len(y_true) if y_true else 0.0
    return {"accuracy": accuracy, "precision": precision, "recall": recall, "f1": f1}


def stratified_split(
    dataset: Dataset, holdout_fraction: float, seed: int
) -> tuple[Dataset, Dataset]:
    """Deterministic per-class split into (train, holdout)."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=(seed, 7919)))
    train_idx: list[int] = []
    hold_idx: list[int] = []
    for cls in (0, 1):
        members = np.flatnonzero(dataset.y == cls)
        members = members[rng.permutation(len(members))]
        n_hold = int(round(len(members) * holdout_fraction))
        hold_idx.extend(int(i) for i in members[:n_hold])
        train_idx.extend(int(i) for i in members[n_hold:])
    train_idx.sort()
    hold_idx.sort()

    def subset(idx: list[int]) -> Dataset:
        return Dataset(
            feature_names=dataset.feature_names,
            X=dataset.X[idx],
            y=dataset.y[idx],
            ids=tuple(dataset.ids[i] for i in idx) if dataset.ids else None,
        )

    return subset(train_idx), subset(hold_idx)
