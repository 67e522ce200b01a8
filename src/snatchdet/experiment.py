"""Experiment helpers: held-out clip split, window rows, metrics.

Used by ``scripts/run_synthetic_experiment.py`` and the tests; the
detector itself never imports this module, so it does not pull in the
synthetic generator.

A held-out set is whole clips: ``split_clips`` splits the clips before any
window is cut, so no clip has windows on both sides (overlapping windows
of one clip would leak its features into the held-out score).
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

import numpy as np

from .config import PipelineConfig
from .features import FeatureSchema, full_schema
from .forest import Dataset
from .pipeline import extract_windows
from .synth import Clip, window_labels


def split_clips(
    clips: Sequence[Clip], holdout_fraction: float, seed: int
) -> tuple[list[Clip], list[Clip]]:
    """Deterministic per-class split of whole clips into (train, holdout), each in corpus order."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=(seed, 7919)))
    labels = np.array([clip.label for clip in clips])
    train_idx: list[int] = []
    hold_idx: list[int] = []
    for cls in (0, 1):
        members = np.flatnonzero(labels == cls)
        members = members[rng.permutation(len(members))]
        n_hold = int(round(len(members) * holdout_fraction))
        hold_idx.extend(int(i) for i in members[:n_hold])
        train_idx.extend(int(i) for i in members[n_hold:])
    return [clips[i] for i in sorted(train_idx)], [clips[i] for i in sorted(hold_idx)]


def window_dataset(
    clips: Iterable[Clip],
    cfg: PipelineConfig,
    schema: Optional[FeatureSchema] = None,
) -> Dataset:
    """The sliding-window rows of ``clips``, each labelled by ``synth.window_labels``."""
    schema = schema or full_schema()
    rows, labels, ids = [], [], []
    for clip in clips:
        table = dict(window_labels(clip, cfg))
        for sid, row in extract_windows(clip.frames, cfg, schema, stream_id=clip.clip_id):
            rows.append(row)
            labels.append(table[sid])
            ids.append(sid)
    return Dataset(
        feature_names=schema.names,
        X=np.array(rows, dtype=np.float64).reshape(len(rows), len(schema)),
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
