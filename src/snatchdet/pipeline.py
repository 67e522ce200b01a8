"""End-to-end wiring: track windows, pair selection, online detection engine.

``TrackWindows`` is the one windowing core. It turns raw per-frame ids into
track keys (an id absent for more than ``max_gap_frames`` frames comes back
as ``"<id>.<n>"``), smooths each person once as the frame arrives, and
stores the frames of the current window once, each as its (key, smoothed
skeleton) list. At each stride point it groups those frames into tracks and
hands back the closest pair of the window, and nothing about roles.
Its state is the window plus one record per raw id, however many track
keys the stream has used, plus its ``FrameMemo``: the per-frame values
(center speeds, wrist velocities, a pair's normalized distances, ...) of
the stored frames, each computed the first time a window asks for it and
shared by both role orderings of the extraction and the overlapping
windows, then evicted with its frame. Pair selection reads the centers
stored on the skeletons and computes each raw center distance directly:
most of those distances belong to pairs that are never extracted, and
storing them cost what computing them does. It computes them only for the
pairs that a lower bound, the gap between the two tracks' center bounding
boxes, does not rule out.

``StreamEngine`` (``snatchdet stream``) cuts that pair's segment with the
pair key's first track as A and classifies it under both orderings,
through one ``SegmentFamilies`` table per decision: each track's
individual families and the pair's symmetric distance family are computed
once for both orderings, the directional families once per ordering. It
orders no roles, since the higher probability of the two wins. Only the
offline extractions write role-ordered rows: ``extract_windows``
(``extract --mode sliding``) extracts each window's pair under the
(aggressor, victim) ordering of ``order_roles``; ``extract_clip_row``
(``extract --mode clip``) does the same for one window over the whole
clip. The layers this module calls (``select_pair``, ``order_roles``,
``pair_segment``, ``extract_segment``, ``predict_probability``) are looked
up here at each call, so a tool that replaces them here sees every call.
Streaming alerts are therefore reproducible from an offline recomputation
of the same file.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .config import PipelineConfig
from .features import (
    FeatureSchema,
    FeatureVector,
    SegmentFamilies,
    extract_segment,
    full_schema,
    pair_segment,
)
from .forest import ForestModel, SchemaMismatch, compile_chunk, predict_probability
from .preprocess import (
    SkeletonSmoother,
    aggressor_probabilities,
    body_center,
    choose_aggressor,
)
from .temporal import AlarmState, evidence_window, step
from .types import (
    FrameMemo,
    FrameRecord,
    Skeleton,
    Track,
    track_order,
    validate_frame,
)


def pair_key_str(id_a: str, id_b: str) -> str:
    return "|".join(sorted((id_a, id_b), key=track_order))


Centers = dict[float, Optional[tuple[float, float]]]  # timestamp -> body center


def _mean_pair_distance(centers_a: Centers, centers_b: Centers) -> Optional[float]:
    """Mean raw center distance over the frames both tracks share, summed in frame order."""
    dists = []
    for t, ca in centers_a.items():
        cb = centers_b.get(t)
        if ca is not None and cb is not None:
            dists.append(math.sqrt((ca[0] - cb[0]) ** 2 + (ca[1] - cb[1]) ** 2))
    if not dists:
        return None
    return sum(dists) / len(dists)


# Relative slack on the pruning bound: a computed mean may round a few ulps
# below the computed box gap that bounds it, and must still be visited.
_BOUND_SLACK = 1.0 + 1e-9


def _candidate_pairs(centers: list[Centers]) -> list[tuple[float, int, int]]:
    """(lower bound, i, j) per pair of tracks with a valid center, ascending.

    The bound is the Euclidean gap between the two tracks' center bounding
    boxes over the window: every shared-frame center distance, and so
    their mean, is at least that gap.
    """
    boxes = []
    for i, track_centers in enumerate(centers):
        # one loop per track: about 3x cheaper than min/max over zipped lists
        x0 = y0 = math.inf
        x1 = y1 = -math.inf
        for c in track_centers.values():
            if c is not None:
                x, y = c
                if x < x0:
                    x0 = x
                if x > x1:
                    x1 = x
                if y < y0:
                    y0 = y
                if y > y1:
                    y1 = y
        if x0 <= x1:
            boxes.append((i, x0, y0, x1, y1))
    pairs = []
    for k, (i, ax0, ay0, ax1, ay1) in enumerate(boxes):
        for j, bx0, by0, bx1, by1 in boxes[k + 1 :]:
            dx = bx0 - ax1 if bx0 > ax1 else ax0 - bx1 if ax0 > bx1 else 0.0
            dy = by0 - ay1 if by0 > ay1 else ay0 - by1 if ay0 > by1 else 0.0
            pairs.append((math.sqrt(dx**2 + dy**2), i, j))
    pairs.sort()
    return pairs


def select_pair(windows: Sequence[Track], min_frames: int) -> Optional[tuple[Track, Track]]:
    """The pair with minimum mean center distance; None when no pair qualifies.

    A pair qualifies when both tracks have ``min_frames`` samples, they share
    ``min_frames`` timestamps and at least one shared frame has both centers.
    Ties break on the ``track_order`` keys of the two ids, then on the first
    pair in list order.

    Pairs are visited in ascending order of a lower bound on their mean: the
    gap between the two tracks' center bounding boxes. A track with no valid
    center forms no pair. The visit stops at the first bound greater than
    the best mean times ``1 + 1e-9``. The comparison is strict, so every pair
    that ties the best mean is still visited; the slack covers a mean that
    rounds a little below its bound. With fewer than 3 eligible tracks there
    is at most one pair, and no bound is computed. A visited pair's mean is
    summed as without pruning, so the pick is the one trying every pair makes.
    """
    eligible = [w for w in windows if len(w) >= min_frames]
    centers = [dict(zip(w.timestamps, map(body_center, w.skeletons))) for w in eligible]
    if len(eligible) < 3:
        candidates = [(0.0, 0, 1)] if len(eligible) == 2 else []
    else:
        candidates = _candidate_pairs(centers)
    best: Optional[tuple[float, tuple, int, int]] = None
    for bound, i, j in candidates:
        if best is not None and bound > best[0] * _BOUND_SLACK:
            break
        if len(centers[i].keys() & centers[j].keys()) < min_frames:
            continue
        d = _mean_pair_distance(centers[i], centers[j])
        if d is None:
            continue
        key = tuple(sorted((track_order(eligible[i].track_id), track_order(eligible[j].track_id))))
        if best is None or (d, key, i, j) < best:
            best = (d, key, i, j)
    if best is None:
        return None
    return eligible[best[2]], eligible[best[3]]


def order_roles(
    track_a: Track, track_b: Track, window_s: float, memo: Optional[FrameMemo] = None
) -> tuple[Track, Track]:
    """(aggressor, victim) ordering by the mean-translation softmax score."""
    assignments = aggressor_probabilities([track_a, track_b], window=window_s, memo=memo)
    agg_id = choose_aggressor(assignments)
    if agg_id == track_a.track_id:
        return track_a, track_b
    return track_b, track_a


class TrackWindows:
    """Tracks of one stream, smoothed as frames arrive, cut into windows.

    Frame positions count the frames added, from 0. ``frames`` holds
    (position, timestamp, [(key, smoothed skeleton), ...]) per stored frame;
    ``advance`` keeps only the frames of the current window and returns the
    selected pair of window tracks at each stride point, ``add`` keeps every
    frame, for one window over a whole clip. Each raw id has one record: its
    current key, the position it was last seen at, how often it was split
    and its smoother. ``memo`` holds the per-frame values of the stored
    frames that its callers have asked for; a frame's entries leave with
    the frame.
    """

    def __init__(self, cfg: PipelineConfig):
        self.cfg = cfg
        self.frames: deque[tuple[int, float, list[tuple[str, Skeleton]]]] = deque()
        self._active: dict[int, tuple[str, int, int, SkeletonSmoother]] = {}
        self.pos = -1
        self.memo = FrameMemo()

    def add(self, record: FrameRecord) -> set[str]:
        """Store one frame's smoothed persons; returns the keys present."""
        self.pos += 1
        persons: list[tuple[str, Skeleton]] = []
        for tid, skel in record.persons:
            entry = self._active.get(tid)
            if entry is None:
                key, splits, smoother = str(tid), 0, SkeletonSmoother(self.cfg.alpha)
            else:
                key, last_pos, splits, smoother = entry
                if self.pos - last_pos > self.cfg.max_gap_frames:
                    splits += 1
                    key = f"{tid}.{splits}"
                    smoother = SkeletonSmoother(self.cfg.alpha)
            self._active[tid] = (key, self.pos, splits, smoother)
            persons.append((key, smoother.step(skel)))
        self.frames.append((self.pos, record.timestamp, persons))
        return {key for key, _ in persons}

    def advance(self, record: FrameRecord) -> tuple[set[str], Optional[tuple[Track, Track]]]:
        """Add one frame; at a stride point, also ``select_pair`` over the window ending at it."""
        present = self.add(record)
        wf, sf = self.cfg.window_frames, self.cfg.stride_frames
        while self.frames[0][0] <= self.pos - wf:
            self.memo.evict(self.frames.popleft()[1])
        pair = None
        if self.pos >= wf - 1 and (self.pos - (wf - 1)) % sf == 0:
            pair = select_pair(self.tracks(), self.cfg.min_segment_frames)
        return present, pair

    def tracks(self) -> list[Track]:
        """The tracks of the stored frames, in order of first appearance."""
        by_key: dict[str, Track] = {}
        for _, t, persons in self.frames:
            for key, skel in persons:
                track = by_key.get(key)
                if track is None:
                    track = by_key[key] = Track(key)
                track.timestamps.append(t)
                track.skeletons.append(skel)
        return list(by_key.values())


def extract_windows(
    frames: Sequence[FrameRecord],
    cfg: PipelineConfig,
    schema: Optional[FeatureSchema] = None,
    stream_id: str = "stream",
) -> list[tuple[str, FeatureVector]]:
    """Offline sliding-window extraction: (segment id, vector) per window with a pair.

    Each row is the pair under its ``order_roles`` ordering, computed over
    the full window tracks. The segment id is
    ``"<stream_id>#<pair>#<end position>"``.
    """
    schema = schema or full_schema()
    params = cfg.feature_params()
    windows = TrackWindows(cfg)
    rows: list[tuple[str, FeatureVector]] = []
    for record in frames:
        _, pair = windows.advance(record)
        if pair is None:
            continue
        agg, vic = order_roles(pair[0], pair[1], cfg.window_s, windows.memo)
        segment = pair_segment(agg, vic, fps=cfg.fps)
        vector = extract_segment(segment, schema, params, windows.memo)
        key = pair_key_str(pair[0].track_id, pair[1].track_id)
        rows.append((f"{stream_id}#{key}#{windows.pos}", vector))
    return rows


def extract_clip_row(
    frames: Sequence[FrameRecord],
    cfg: PipelineConfig,
    schema: Optional[FeatureSchema] = None,
) -> Optional[FeatureVector]:
    """One feature vector for the whole clip (the training-time view)."""
    windows = TrackWindows(cfg)
    for record in frames:
        windows.add(record)
    pair = select_pair(windows.tracks(), cfg.min_segment_frames)
    if pair is None:
        return None
    duration = frames[-1].timestamp - frames[0].timestamp
    agg, vic = order_roles(pair[0], pair[1], max(duration, cfg.window_s), windows.memo)
    segment = pair_segment(agg, vic, fps=cfg.fps)
    return extract_segment(segment, schema or full_schema(), cfg.feature_params(), windows.memo)


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


class StreamEngine:
    """Frame-by-frame detector: smooth, window, classify, hysteresis.

    Per window the closest pair is classified under both orderings,
    extracted through one family table, and the higher robbery probability
    wins: ``p(A,B)`` is the probability with the pair key's first track
    (``track_order``) as A, ``p(B,A)`` the one with it as B, and no role
    ordering runs. The thresholded prediction then drives one alarm state
    machine per pair. A pair's alarm only steps on frames where both
    members are present.
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

        self._windows = TrackWindows(cfg)
        # pair key -> (latest prediction, (member, member), alarm), in order of
        # first classification
        self._pairs: dict[str, tuple[int, tuple[str, str], AlarmState]] = {}
        self._prev_t: Optional[float] = None
        self._start_t: Optional[float] = None

        self.alerts: list[AlertRecord] = []
        self.evidence: list[EvidenceRecord] = []
        self.frames_processed = 0
        self._forest_compiled = False

    @property
    def _buffers(self) -> set[str]:
        """The track keys in the current window (the engine's track state)."""
        return {key for _, _, persons in self._windows.frames for key, _ in persons}

    def _classify(self, pair: tuple[Track, Track]) -> None:
        a, b = sorted(pair, key=lambda track: track_order(track.track_id))
        segment = pair_segment(a, b, fps=self.cfg.fps)
        memo = self._windows.memo
        families = SegmentFamilies(segment, self.params, memo)
        v_ab = extract_segment(segment, self.schema, self.params, memo, families)
        v_ba = extract_segment(segment.swapped(), self.schema, self.params, memo, families)
        prob = max(
            predict_probability(self.model, v_ab.values),
            predict_probability(self.model, v_ba.values),
        )
        key = pair_key_str(a.track_id, b.track_id)
        known = self._pairs.get(key)
        alarm = AlarmState() if known is None else known[2]
        yhat = 1 if prob >= self.cfg.prob_threshold else 0
        self._pairs[key] = (yhat, (a.track_id, b.track_id), alarm)

    def process(self, record: FrameRecord) -> list[AlertRecord]:
        record = validate_frame(record, prev_timestamp=self._prev_t)
        self._prev_t = record.timestamp
        if self._start_t is None:
            self._start_t = record.timestamp
        self.frames_processed += 1
        if not self._forest_compiled:
            # one chunk of the forest per frame while the first window fills,
            # so that no decision pays for compiling the whole forest
            self._forest_compiled = compile_chunk(self.model)

        present, pair = self._windows.advance(record)
        if pair is not None:
            self._classify(pair)

        new_alerts: list[AlertRecord] = []
        for key, (yhat, (a, b), alarm) in self._pairs.items():
            if a not in present or b not in present:
                continue
            _, event = step(alarm, yhat, self.hcfg, record.timestamp)
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
