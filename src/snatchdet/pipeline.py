"""End-to-end wiring: windowing, pair selection, online detection engine.

The offline path (``extract_windows`` / ``extract_clip_row``) and the
online ``StreamEngine`` share the same smoothing, window grid, pair
selection and feature code, so streaming alerts are reproducible from an
offline recomputation of the same file.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

import numpy as np

from .config import PipelineConfig
from .features import (
    FeatureSchema,
    FeatureVector,
    SegmentTooShort,
    extract_segment,
    full_schema,
    pair_segment,
)
from .forest import Dataset, ForestModel, SchemaMismatch, predict_probability
from .preprocess import (
    SkeletonSmoother,
    aggressor_probabilities,
    body_center,
    choose_aggressor,
    smooth_track,
)
from .synth import Clip
from .temporal import AlarmState, evidence_window, step
from .types import FrameRecord, Track, build_tracks, validate_frame


def _pair_key(id_a: str, id_b: str) -> tuple[str, str]:
    a, b = sorted((id_a, id_b), key=lambda s: Track(track_id=s).sort_key())
    return (a, b)


def pair_key_str(id_a: str, id_b: str) -> str:
    return "|".join(_pair_key(id_a, id_b))


def _slice_positions(track: Track, lo: int, hi: int) -> Track:
    if track.positions is None:
        raise ValueError("track has no frame positions")
    picks = [i for i, p in enumerate(track.positions) if lo <= p <= hi]
    return Track(
        track_id=track.track_id,
        samples=[track.samples[i] for i in picks],
        smoothed=[track.smoothed[i] for i in picks] if track.smoothed else None,
        positions=[track.positions[i] for i in picks],
    )


Centers = dict[float, Optional[tuple[float, float]]]  # timestamp -> body center


def _mean_pair_distance(centers_a: Centers, centers_b: Centers) -> Optional[float]:
    """Mean raw center distance over the frames both tracks share."""
    dists = []
    for t, ca in centers_a.items():
        cb = centers_b.get(t)
        if ca is not None and cb is not None:
            dists.append(math.sqrt((ca[0] - cb[0]) ** 2 + (ca[1] - cb[1]) ** 2))
    if not dists:
        return None
    return sum(dists) / len(dists)


def select_pair(windows: Sequence[Track], min_frames: int) -> Optional[tuple[Track, Track]]:
    """The pair with minimum mean center distance; None when no pair qualifies."""
    eligible = [w for w in windows if len(w) >= min_frames and w.smoothed is not None]
    centers = [dict(zip(w.timestamps, map(body_center, w.smoothed))) for w in eligible]
    best: Optional[tuple[float, tuple, Track, Track]] = None
    for i in range(len(eligible)):
        for j in range(i + 1, len(eligible)):
            a, b = eligible[i], eligible[j]
            if len(centers[i].keys() & centers[j].keys()) < min_frames:
                continue
            d = _mean_pair_distance(centers[i], centers[j])
            if d is None:
                continue
            key = tuple(sorted((a.sort_key(), b.sort_key())))
            if best is None or (d, key) < (best[0], best[1]):
                best = (d, key, a, b)
    if best is None:
        return None
    return best[2], best[3]


def order_roles(track_a: Track, track_b: Track, window_s: float) -> tuple[Track, Track]:
    """(aggressor, victim) ordering by the mean-translation softmax score."""
    assignments = aggressor_probabilities([track_a, track_b], window=window_s)
    agg_id = choose_aggressor(assignments)
    if agg_id == track_a.track_id:
        return track_a, track_b
    return track_b, track_a


@dataclass
class SegmentRow:
    segment_id: str
    pair: str
    end_pos: int
    vector: FeatureVector


def prediction_positions(n_frames: int, window_frames: int, stride_frames: int) -> list[int]:
    return list(range(window_frames - 1, n_frames, stride_frames))


def extract_windows(
    frames: Sequence[FrameRecord],
    cfg: PipelineConfig,
    schema: Optional[FeatureSchema] = None,
    stream_id: str = "stream",
) -> list[SegmentRow]:
    """Offline sliding-window extraction; one row per window with a valid pair."""
    schema = schema or full_schema()
    params = cfg.feature_params()
    tracks = [
        smooth_track(t, cfg.smoothing()) for t in build_tracks(frames, cfg.max_gap_frames)
    ]
    rows: list[SegmentRow] = []
    wf, sf = cfg.window_frames, cfg.stride_frames
    for end in prediction_positions(len(frames), wf, sf):
        lo = end - wf + 1
        windows = [_slice_positions(t, lo, end) for t in tracks]
        pair = select_pair(windows, params.min_segment_frames)
        if pair is None:
            continue
        agg, vic = order_roles(pair[0], pair[1], cfg.window_s)
        try:
            segment = pair_segment(agg, vic, fps=cfg.fps)
            vector = extract_segment(segment, schema, params)
        except SegmentTooShort:
            continue
        key = pair_key_str(agg.track_id, vic.track_id)
        rows.append(
            SegmentRow(
                segment_id=f"{stream_id}#{key}#{end}",
                pair=key,
                end_pos=end,
                vector=vector,
            )
        )
    return rows


def extract_clip_row(
    frames: Sequence[FrameRecord],
    cfg: PipelineConfig,
    schema: Optional[FeatureSchema] = None,
) -> Optional[FeatureVector]:
    """One feature vector for the whole clip (the training-time view)."""
    schema = schema or full_schema()
    params = cfg.feature_params()
    tracks = [
        smooth_track(t, cfg.smoothing()) for t in build_tracks(frames, cfg.max_gap_frames)
    ]
    pair = select_pair(tracks, params.min_segment_frames)
    if pair is None:
        return None
    duration = frames[-1].timestamp - frames[0].timestamp if frames else 0.0
    agg, vic = order_roles(pair[0], pair[1], max(duration, cfg.window_s))
    segment = pair_segment(agg, vic, fps=cfg.fps)
    return extract_segment(segment, schema, params)


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


# ---------------------------------------------------------------------------
# online engine


@dataclass
class AlertRecord:
    timestamp: float
    pair: str
    kind: str
    window_count: int

    def to_obj(self) -> dict:
        return {
            "timestamp_s": self.timestamp,
            "pair": self.pair,
            "kind": self.kind,
            "count": self.window_count,
        }


@dataclass
class EvidenceRecord:
    pair: str
    trigger: float
    start: float
    end: float
    start_frame: int
    end_frame: int

    def to_obj(self) -> dict:
        return {
            "pair": self.pair,
            "trigger_s": self.trigger,
            "start_s": self.start,
            "end_s": self.end,
            "start_frame": self.start_frame,
            "end_frame": self.end_frame,
        }


@dataclass
class _TrackBuffer:
    key: str
    smoother: SkeletonSmoother
    entries: list = field(default_factory=list)  # (pos, t, raw, smoothed)

    def window_track(self, lo: int) -> Track:
        picks = [e for e in self.entries if e[0] >= lo]
        return Track(
            track_id=self.key,
            samples=[(t, raw) for _, t, raw, _ in picks],
            smoothed=[sm for _, _, _, sm in picks],
            positions=[p for p, _, _, _ in picks],
        )

    def trim(self, lo: int) -> None:
        while self.entries and self.entries[0][0] < lo:
            self.entries.pop(0)


class StreamEngine:
    """Frame-by-frame detector: smooth, window, classify, hysteresis.

    Per window the closest pair is classified under both role orderings and
    the higher robbery probability wins; the thresholded prediction then
    drives one alarm state machine per pair. A pair's alarm only steps on
    frames where both members are present.
    """

    def __init__(self, model: ForestModel, cfg: PipelineConfig):
        self.model = model
        self.cfg = cfg
        self.params = cfg.feature_params()
        self.hcfg = cfg.hysteresis()
        full = full_schema()
        missing = set(model.feature_names) - set(full.names)
        if missing:
            raise SchemaMismatch(f"model needs unknown features: {sorted(missing)}")
        # extraction computes only the feature families the model reads
        self.schema = full.select(model.feature_names)

        self._buffers: dict[str, _TrackBuffer] = {}
        self._active: dict[int, tuple[str, int, int]] = {}  # raw id -> (key, last pos, splits)
        self._pair_yhat: dict[str, int] = {}
        self._pair_members: dict[str, tuple[str, str]] = {}
        self._alarms: dict[str, AlarmState] = {}
        self._pos = -1
        self._prev_t: Optional[float] = None
        self._start_t: Optional[float] = None

        self.alerts: list[AlertRecord] = []
        self.evidence: list[EvidenceRecord] = []
        self.frames_processed = 0

    # -- internals ---------------------------------------------------------

    def _resolve_key(self, tid: int) -> str:
        entry = self._active.get(tid)
        if entry is None:
            key, splits = str(tid), 0
        else:
            key, last_pos, splits = entry
            if self._pos - last_pos > self.cfg.max_gap_frames:
                splits += 1
                key = f"{tid}.{splits}"
        self._active[tid] = (key, self._pos, splits)
        return key

    def _predict_window(self, lo: int) -> None:
        windows = [buf.window_track(lo) for buf in self._buffers.values()]
        pair = select_pair(windows, self.params.min_segment_frames)
        if pair is None:
            return
        agg, vic = order_roles(pair[0], pair[1], self.cfg.window_s)
        try:
            segment = pair_segment(agg, vic, fps=self.cfg.fps)
            v_ab = extract_segment(segment, self.schema, self.params)
            v_ba = extract_segment(segment.swapped(), self.schema, self.params)
        except SegmentTooShort:
            return
        prob = max(
            predict_probability(self.model, v_ab.values),
            predict_probability(self.model, v_ba.values),
        )
        key = pair_key_str(agg.track_id, vic.track_id)
        self._pair_yhat[key] = 1 if prob >= self.cfg.prob_threshold else 0
        self._pair_members[key] = _pair_key(agg.track_id, vic.track_id)

    def process(self, record: FrameRecord) -> list[AlertRecord]:
        record = validate_frame(record, prev_timestamp=self._prev_t)
        self._prev_t = record.timestamp
        if self._start_t is None:
            self._start_t = record.timestamp
        self._pos += 1
        self.frames_processed += 1

        present: set[str] = set()
        for tid, skel in record.persons:
            key = self._resolve_key(tid)
            buf = self._buffers.get(key)
            if buf is None:
                buf = _TrackBuffer(key=key, smoother=SkeletonSmoother(self.cfg.smoothing()))
                self._buffers[key] = buf
            smoothed = buf.smoother.step(skel)
            buf.entries.append((self._pos, record.timestamp, skel, smoothed))
            present.add(key)

        wf, sf = self.cfg.window_frames, self.cfg.stride_frames
        lo = self._pos - wf + 1
        if self._pos >= wf - 1 and (self._pos - (wf - 1)) % sf == 0:
            self._predict_window(lo)
        for buf in self._buffers.values():
            buf.trim(lo)

        new_alerts: list[AlertRecord] = []
        for key, yhat in self._pair_yhat.items():
            a, b = self._pair_members[key]
            if a not in present or b not in present:
                continue
            state = self._alarms.setdefault(key, AlarmState())
            _, event = step(state, yhat, self.hcfg, record.timestamp)
            if event is None:
                continue
            alert = AlertRecord(
                timestamp=event.timestamp,
                pair=key,
                kind=event.kind,
                window_count=event.window_count,
            )
            self.alerts.append(alert)
            new_alerts.append(alert)
            if event.kind == "activated":
                ev = evidence_window(
                    event,
                    pre_span=self.cfg.evidence_pre_s,
                    post_span=self.cfg.evidence_post_s,
                    fps=self.cfg.fps,
                    stream_start=self._start_t,
                )
                self.evidence.append(
                    EvidenceRecord(
                        pair=key,
                        trigger=event.timestamp,
                        start=ev.start,
                        end=ev.end,
                        start_frame=ev.start_frame,
                        end_frame=ev.end_frame,
                    )
                )
        return new_alerts

    def run(self, frames: Iterable[FrameRecord]) -> list[AlertRecord]:
        for record in frames:
            self.process(record)
        return self.alerts


# ---------------------------------------------------------------------------
# evaluation helpers


def binary_metrics(y_true: Sequence[int], y_pred: Sequence[int]) -> dict[str, float]:
    """Accuracy / precision / recall / F1 for the positive class."""
    tp = sum(1 for t, p in zip(y_true, y_pred) if t == 1 and p == 1)
    fp = sum(1 for t, p in zip(y_true, y_pred) if t == 0 and p == 1)
    fn = sum(1 for t, p in zip(y_true, y_pred) if t == 1 and p == 0)
    tn = sum(1 for t, p in zip(y_true, y_pred) if t == 0 and p == 0)
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    accuracy = (tp + tn) / len(list(y_true)) if len(list(y_true)) else 0.0
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
