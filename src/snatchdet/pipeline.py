"""End-to-end wiring: track windows, pair selection, online detection engine.

``TrackWindows`` is the one windowing core. It turns raw per-frame ids into
track keys (an id absent for more than ``max_gap_frames`` frames comes back
as ``"<id>.<n>"``), smooths each person once as the frame arrives and
appends it to its key's one ``Track``; only the joints the schema reads
(``FeatureSchema.joints``) are smoothed, so a top-k model smooths fewer,
and the others pass through as detected. A frame leaving the window drops its
first sample from its keys' tracks. At each stride point it hands back the
closest pair of those live tracks, and nothing about roles. Its state is
one track per key in the window, one record per raw id, however many keys
the stream has used, and on each track the values of its samples and one
record of pair values per partner (``types.Track``), computed once for
both role orderings and the overlapping windows. Pair selection reads the
stored centers and computes raw center distances where it reads them, only
for pairs the gap between the two tracks' center bounding boxes does not
rule out.

``StreamEngine`` (``snatchdet stream``) cuts that pair's segment with the
pair key's first track as A and decides whether the higher probability of
its two role orderings reaches ``prob_threshold``, through one
``SegmentFamilies`` table per decision. It first extracts what both
orderings share (each track's individual families and the pair's symmetric
distance family) and bounds each ordering's probability with the
directional columns unknown (``bound_probability``). Only an ordering whose
bound reaches the threshold runs its directional families and its exact
prediction; when neither does, the window's prediction is 0 (see
``docs/formats.md``, "Window decision"). It orders no roles.
``step_pairs`` turns the decisions into alarm transitions by the alarm
rule of ``docs/formats.md``, and is the only code that creates, steps or
forgets an alarm. Each alarm transition is one ``AlertRecord``, which
gives the alert line and, for an activation, the evidence line;
``process`` returns the frame's records and the engine keeps no output
history.

Only the offline extraction writes role-ordered rows: ``extract_windows``
(``snatchdet extract``) cuts the windows ``stream`` classifies and
extracts each window's pair under the (aggressor, victim) ordering of
``order_roles``, which puts first the track with the higher mean center
speed over the last ``window_s`` seconds, and the lower id on a tie.

The layers this module calls (``select_pair``, ``order_roles``,
``pair_segment``, ``extract_segment``, ``bound_probability``,
``predict_probability``, ``step``)
are looked up here at each call, so a tool that replaces them here sees
every call. Streaming alerts are therefore reproducible from an offline
recomputation of the same file.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass
from typing import KeysView, Optional, Sequence

from .config import PipelineConfig
from .features import (
    MIN_SEGMENT_FRAMES,
    FeatureSchema,
    SegmentFamilies,
    extract_segment,
    full_schema,
    pair_segment,
    shared_samples,
)
from .forest import (
    ForestModel,
    SchemaMismatch,
    bound_probability,
    compile_chunk,
    predict_probability,
)
from .preprocess import SkeletonSmoother, body_center
from .temporal import AlarmState, HysteresisConfig, step
from .types import (
    FrameRecord,
    Track,
    center_speed,
    ordered_sum,
    track_order,
    track_steps,
    validate_frame,
)


def pair_key_str(id_a: str, id_b: str) -> str:
    return "|".join(sorted((id_a, id_b), key=track_order))


def _mean_pair_distance(a: Track, b: Track, ia: Sequence, ib: Sequence) -> Optional[float]:
    """Mean raw center distance of ``a``'s samples ``ia`` and ``b``'s ``ib`` with both, in order."""
    dists = [
        math.sqrt((ca[0] - cb[0]) ** 2 + (ca[1] - cb[1]) ** 2)
        for ca, cb in zip(map(a.centers.__getitem__, ia), map(b.centers.__getitem__, ib))
        if ca is not None and cb is not None
    ]
    if not dists:
        return None
    return ordered_sum(dists) / len(dists)


# Relative slack on the pruning bound: a computed mean may round a few ulps
# below the computed box gap that bounds it, and must still be visited.
_BOUND_SLACK = 1.0 + 1e-9


def _candidate_pairs(centers: list[list]) -> list[tuple[float, int, int]]:
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
        for c in track_centers:
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
    A pair whose timestamp spans do not overlap shares no frame and is
    skipped before its samples are aligned.
    The centers are the tracks' stored ``centers``: one ``body_center`` per sample.
    """
    eligible = [w for w in windows if len(w) >= min_frames]
    for w in eligible:
        w.centers.extend(map(body_center, w.skeletons[len(w.centers) :]))
    if len(eligible) < 3:
        candidates = [(0.0, 0, 1)] if len(eligible) == 2 else []
    else:
        candidates = _candidate_pairs([w.centers for w in eligible])
    best: Optional[tuple[float, tuple, int, int]] = None
    for bound, i, j in candidates:
        if best is not None and bound > best[0] * _BOUND_SLACK:
            break
        a, b = eligible[i], eligible[j]
        if a.timestamps[-1] < b.timestamps[0] or b.timestamps[-1] < a.timestamps[0]:
            continue  # no shared frame: a churned id's old and new key, most often
        picks_i, picks_j = shared_samples(a, b)
        if len(picks_i) < min_frames:
            continue
        d = _mean_pair_distance(a, b, picks_i, picks_j)
        if d is None:
            continue
        key = tuple(sorted((track_order(a.track_id), track_order(b.track_id))))
        if best is None or (d, key, i, j) < best:
            best = (d, key, i, j)
    if best is None:
        return None
    return eligible[best[2]], eligible[best[3]]


def order_roles(track_a: Track, track_b: Track, window_s: float) -> tuple[Track, Track]:
    """(aggressor, victim): the track that moves more first.

    A track's score is its mean ``center_speed`` between consecutive samples
    inside the ``window_s`` seconds that end at the pair's latest timestamp,
    skipping steps where it is unobservable; 0.0 when none is measurable.
    The higher score is the aggressor, and equal scores put the lower
    ``track_order`` id first.
    """
    start = max(track_a.timestamps[-1], track_b.timestamps[-1]) - window_s

    def rank(track: Track) -> tuple:
        first = bisect_left(track.timestamps, start)
        speeds = [v for v in track_steps(track, center_speed)[first + 1 :] if v is not None]
        return -(ordered_sum(speeds) / len(speeds) if speeds else 0.0), track_order(track.track_id)

    aggressor, victim = sorted((track_a, track_b), key=rank)
    return aggressor, victim


class TrackWindows:
    """Tracks of one stream, smoothed as frames arrive, cut into windows.

    ``window`` holds one live ``Track`` per key with a sample in the stored
    frames, in order of key creation, and ``frames`` the keys added by each
    stored frame. ``advance`` appends a frame's smoothed persons to their
    tracks, drops the frame leaving the window from exactly its keys'
    tracks, and a track it empties, and returns the selected pair at each
    stride point; ``at_stride`` says whether its last frame was one.
    Each raw id has one record: its current key, the position it was last
    seen at, how often it was split and its smoother, which smooths
    ``joints`` (a schema's ``FeatureSchema.joints``) and passes the other
    joints through as detected.
    A track's stored values leave with its samples, and its ``PairRows``
    leave its partners with it (see ``types.Track``).
    """

    def __init__(self, cfg: PipelineConfig, joints: frozenset[int]):
        self.cfg = cfg
        self.joints = joints
        self.window: dict[str, Track] = {}
        self.frames: deque[list[str]] = deque()
        self._active: dict[int, tuple[str, int, int, SkeletonSmoother]] = {}
        self.pos = -1
        self.at_stride = False

    def advance(self, record: FrameRecord) -> tuple[set[str], Optional[tuple[Track, Track]]]:
        """Take one frame; returns the keys present and, at a stride point, the
        ``select_pair`` of the window ending at it."""
        self.pos = pos = self.pos + 1
        t, window, active, keys = record.timestamp, self.window, self._active, []
        for tid, skel in record.persons:
            entry = active.get(tid)
            if entry is None:
                key, splits, smoother = str(tid), 0, SkeletonSmoother(self.cfg.alpha, self.joints)
            else:
                key, last_pos, splits, smoother = entry
                if pos - last_pos > self.cfg.max_gap_frames:
                    splits += 1
                    key = f"{tid}.{splits}"
                    smoother = SkeletonSmoother(self.cfg.alpha, self.joints)
            active[tid] = (key, pos, splits, smoother)
            track = window.get(key)
            if track is None:
                track = window[key] = Track(key)
            track.timestamps.append(t)
            track.skeletons.append(smoother.step(skel))
            keys.append(key)
        self.frames.append(keys)
        wf, sf = self.cfg.window_frames, self.cfg.stride_frames
        while len(self.frames) > wf:
            for key in self.frames.popleft():
                track = window[key]
                # the sample's stored values leave with it (see ``Track``)
                del track.timestamps[0], track.skeletons[0]
                if track.centers:
                    del track.centers[0]
                for values in track.steps.values():
                    del values[:1]
                if not track.timestamps:
                    del window[key]
                    for other in window.values():
                        other.pairs.pop(key, None)
        self.at_stride = pos >= wf - 1 and (pos - (wf - 1)) % sf == 0
        if not self.at_stride:
            return set(keys), None
        return set(keys), select_pair(self.tracks(), MIN_SEGMENT_FRAMES)

    def tracks(self) -> list[Track]:
        """The window's tracks in key-creation order, live: each changes with the next frame."""
        return list(self.window.values())


def extract_windows(
    frames: Sequence[FrameRecord],
    cfg: PipelineConfig,
    schema: Optional[FeatureSchema] = None,
    stream_id: str = "stream",
) -> list[tuple[str, list[float]]]:
    """Offline sliding-window extraction: (segment id, row) per window with a pair.

    Each row is the pair under its ``order_roles`` ordering, computed over
    the full window tracks, in ``schema.names`` order. The segment id is
    ``"<stream_id>#<pair>#<end position>"``.
    """
    schema = schema or full_schema()
    windows = TrackWindows(cfg, schema.joints)
    rows: list[tuple[str, list[float]]] = []
    for record in frames:
        _, pair = windows.advance(record)
        if pair is None:
            continue
        agg, vic = order_roles(pair[0], pair[1], cfg.window_s)
        segment = pair_segment(agg, vic, fps=cfg.fps)
        row = extract_segment(segment, schema, SegmentFamilies(segment))
        key = pair_key_str(pair[0].track_id, pair[1].track_id)
        rows.append((f"{stream_id}#{key}#{windows.pos}", row))
    return rows


# ---------------------------------------------------------------------------
# online engine


def step_pairs(
    pairs: dict[str, tuple[int, tuple[str, str], AlarmState]],
    present: set[str],
    stride: bool,
    decision: Optional[tuple[str, tuple[str, str], int]],
    hcfg: HysteresisConfig,
) -> list[tuple[str, str, int]]:
    """One frame of the alarm rule (``docs/formats.md``, "Alarm rule").

    ``pairs`` maps each known pair key to its latest prediction, its two
    member keys and its alarm, in the order the pairs became known;
    ``present`` holds the frame's track keys, ``stride`` says whether the
    frame is a stride point and ``decision`` is the (pair key, members,
    prediction) classified at it, if any. Updates ``pairs`` in place and
    returns the frame's (pair key, kind, count) transitions in pair order.
    This is the only code that creates, steps or forgets an alarm.
    """
    if stride:
        # a prediction lives until the next stride point
        for key, (_, members, alarm) in pairs.items():
            pairs[key] = (0, members, alarm)
    if decision is not None:
        key, members, yhat = decision
        known = pairs.get(key)
        pairs[key] = (yhat, members, AlarmState() if known is None else known[2])
    transitions = []
    for key, (yhat, (a, b), alarm) in list(pairs.items()):
        kind = step(alarm, yhat if a in present and b in present else 0, hcfg)
        if kind is not None:
            transitions.append((key, kind, alarm.positives))
        if not (alarm.state or alarm.positives or yhat):
            # an all-zero alarm makes the transitions of a fresh one
            del pairs[key]
    return transitions


@dataclass
class AlertRecord:
    """One alarm transition of one pair: its alert line, and an activation's evidence line.

    ``evidence`` spans ``evidence_pre_s`` before the trigger, clamped at the
    stream's first timestamp, to ``evidence_post_s`` after it; its frames
    are those times multiplied by ``fps`` and rounded. A deactivation has none.
    """

    timestamp: float
    pair: str
    kind: str  # "activated" | "deactivated"
    count: int  # positives in the alarm's window at the transition
    evidence: Optional[dict] = None

    @classmethod
    def of(
        cls, pair: str, kind: str, timestamp: float, count: int,
        cfg: PipelineConfig, stream_start: float,
    ) -> "AlertRecord":
        if kind != "activated":
            return cls(timestamp, pair, kind, count)
        start = max(stream_start, timestamp - cfg.evidence_pre_s)
        end = timestamp + cfg.evidence_post_s
        evidence = {
            "pair": pair,
            "trigger_s": timestamp,
            "start_s": start,
            "end_s": end,
            "start_frame": round(start * cfg.fps),
            "end_frame": round(end * cfg.fps),
        }
        return cls(timestamp, pair, kind, count, evidence)

    def to_obj(self) -> dict:
        return {
            "timestamp_s": self.timestamp,
            "pair": self.pair,
            "kind": self.kind,
            "count": self.count,
        }


class StreamEngine:
    """Frame-by-frame detector: smooth, window, classify, hysteresis.

    Per window the closest pair's prediction is 1 when the higher robbery
    probability of its two orderings reaches ``prob_threshold``: ``p(A,B)``
    is the probability with the pair key's first track (``track_order``) as
    A, ``p(B,A)`` the one with it as B, and no role ordering runs. Both are
    extracted through one family table, first only in the columns both
    share; an ordering whose ``bound_probability`` with the directional
    columns unknown is below the threshold cannot reach it, and is neither
    extracted in full nor predicted. ``windows_bounded`` counts the windows
    that neither ordering's bound reaches the threshold of. The thresholded
    prediction then drives one alarm state
    machine per pair (``step_pairs``). A prediction lasts until the next
    stride point. Every known pair's alarm steps on every frame, with 0
    while a member is absent, and a pair whose alarm is off with no
    positive left in its window is forgotten.
    """

    def __init__(self, model: ForestModel, cfg: PipelineConfig):
        self.model = model
        self.cfg = cfg
        self.hcfg = cfg.hysteresis()
        missing = set(model.feature_names) - set(full_schema().names)
        if missing:
            raise SchemaMismatch(f"model needs unknown features: {sorted(missing)}")
        # the model's columns in its order, so each row extracted is the
        # forest's input as it stands; extraction computes only what the model
        # reads, the smoother only the joints that reads, and reading the
        # joints builds the plan now, so no decision pays for it
        self.schema = FeatureSchema(model.feature_names)
        self._windows = TrackWindows(cfg, self.schema.joints)
        # the known pairs, which only ``step_pairs`` creates, steps or forgets
        self._pairs: dict[str, tuple[int, tuple[str, str], AlarmState]] = {}
        self._prev_t: Optional[float] = None
        self._start_t: Optional[float] = None

        self.frames_processed = 0
        self.windows_bounded = 0
        self._forest_compiled = False

    def _compile_chunks(self) -> bool:
        """Compile part of the forest's forms while the first window fills; True once both are done.

        The exact form compiles one chunk per frame. From the second frame
        on, the bound form (when the model reads a directional column)
        compiles its chunks until its share of the trees is done: all of
        them by frame ``window_frames - 1``, the frame before the first
        decision. So no decision compiles, and the first frame, all that a
        one-frame stream runs, compiles one exact chunk only.
        """
        exact = compile_chunk(self.model)
        unknown = self.schema.directional
        if not unknown:
            return exact
        if self.frames_processed < 2:
            return False
        share = (self.frames_processed - 1) / max(self.cfg.window_frames - 2, 1)
        return compile_chunk(self.model, unknown, share) and exact

    @property
    def _buffers(self) -> KeysView[str]:
        """The track keys in the current window (the engine's track state)."""
        return self._windows.window.keys()

    def _classify(self, pair: tuple[Track, Track]) -> tuple[str, tuple[str, str], int]:
        """The window's decision: (pair key, members, thresholded prediction)."""
        a, b = sorted(pair, key=lambda track: track_order(track.track_id))
        segment = pair_segment(a, b, fps=self.cfg.fps)
        families = SegmentFamilies(segment)
        schema, threshold = self.schema, self.cfg.prob_threshold
        orderings = [segment, segment.swapped()]
        if schema.directional:
            # an ordering whose bound is below the threshold cannot reach it
            orderings = [
                s for s in orderings
                if bound_probability(
                    self.model, extract_segment(s, schema, families, schema.shared_plan),
                    schema.directional,
                ) >= threshold
            ]
            if not orderings:
                self.windows_bounded += 1
        yhat = int(any(
            predict_probability(self.model, extract_segment(s, schema, families)) >= threshold
            for s in orderings
        ))
        return pair_key_str(a.track_id, b.track_id), (a.track_id, b.track_id), yhat

    def process(self, record: FrameRecord) -> list[AlertRecord]:
        """Take one frame; returns the alarm transitions it caused, in pair order."""
        record = validate_frame(record, prev_timestamp=self._prev_t)
        self._prev_t = record.timestamp
        if self._start_t is None:
            self._start_t = record.timestamp
        self.frames_processed += 1
        if not self._forest_compiled:
            self._forest_compiled = self._compile_chunks()

        present, pair = self._windows.advance(record)
        decision = None if pair is None else self._classify(pair)
        transitions = step_pairs(self._pairs, present, self._windows.at_stride, decision, self.hcfg)
        alerts: list[AlertRecord] = []
        for key, kind, count in transitions:
            t = record.timestamp
            alerts.append(AlertRecord.of(key, kind, t, count, self.cfg, self._start_t))
        return alerts
