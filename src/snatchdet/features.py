"""Kinematic and interaction features over pair segments.

Every distance and velocity is normalized by the torso height of the person
it belongs to (interaction distances use the mean of both torso heights),
which removes sensitivity to subject-camera distance. Per-frame series are
aggregated into a fixed-order feature vector with mean / median / min /
max / p95 statistics plus a handful of event-shaped scalars (time to peak,
retraction after peak, longest fast-and-close run, ...). A schema computes
only the statistics and derived series (backward differences, IoU events)
that its names read, and sorts a series once for all of its order
statistics. The thresholds of those scalars and the shortest segment
extracted are fixed parts of the feature definitions (``FAST_HAND``,
``ELBOW_FLEX``, ``CLOSE_HAND``, ``HAND_TOWARD``, ``MIN_SEGMENT_FRAMES``),
not settings. ``FAMILY_JOINTS`` names the joints each family reads, and a
schema's ``joints`` (those and the torso joints) are the only ones the
smoother smooths: no feature reads the eyes, knees or ankles.

Per-frame values can be *missing* (None) when the joints involved are
invalid in that frame, and a per-frame value that is not finite (NaN or an
infinity, from a division by a tiny time step, torso height or area) is
missing too (``finite_rows``); statistics are computed over the present
values and an all-missing series (or a missing scalar) falls back to a
sentinel: ``MISSING_DISTANCE`` for the distance bases, 0 for every other
feature.

A ``SegmentFamilies`` table holds the family outputs and series aggregates
of one segment's two tracks, keyed by what each value depends on: an
individual family by its track, ``distance`` and the families derived
from it by the unordered pair (its values are the same under both role
orderings) and the directional families (``relative``, ``reaching``,
``facing``) by the ordered pair. Per-frame values are stored on the tracks
a segment was cut from (see ``types.Track``), so overlapping windows share
them. The stream engine builds one table per decision and passes it to
both role orderings' ``extract_segment`` calls, so the second call
computes only the directional families of its ordering.
"""

from __future__ import annotations

import csv
import math
from array import array
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from typing import IO, Iterable, Optional, Sequence, Union

from .types import (
    LEFT_ELBOW,
    LEFT_EAR,
    LEFT_HIP,
    LEFT_SHOULDER,
    LEFT_WRIST,
    NOSE,
    RIGHT_EAR,
    RIGHT_ELBOW,
    RIGHT_HIP,
    RIGHT_SHOULDER,
    RIGHT_WRIST,
    VALID_CONFIDENCE,
    MalformedRecord,
    PairSegment,
    Skeleton,
    Track,
    center_speed,
    clamp_cosine,
    ordered_sum,
    pair_values,
    track_steps,
)

Value = Optional[float]
# A family's outputs by base name: per-frame lists for series, values for scalars.
Outputs = dict[str, Union[Value, list[Value]]]


class NoTemporalOverlap(ValueError):
    """The two tracks share no usable time span."""


class SegmentTooShort(ValueError):
    """Segment shorter than ``MIN_SEGMENT_FRAMES``."""


# ---------------------------------------------------------------------------
# aggregation

STATS = ("mean", "median", "min", "max", "p95")

# Value substituted when a whole series (or scalar) is unobservable: the
# distance bases (``_DISTANCE_BASES``) default to "far apart", everything
# else to 0.
MISSING_DISTANCE = 10.0


def finite_rows(series: list[Value]) -> list[Value]:
    """``series`` with each NaN and infinity missing (``docs/formats.md``, "Missing values").

    A finite builtin sum of the present nonzero values rules both out, so
    such a series is returned as it is, after one pass in C.
    """
    if math.isfinite(sum(filter(None, series))):
        return series
    return [v if v is None or math.isfinite(v) else None for v in series]


def _mean(values: list[float], total: float) -> float:
    """The mean of finite ``values`` summing to ``total``; their shares' sum if that overflowed."""
    n = len(values)
    return total / n if math.isfinite(total) else ordered_sum(v / n for v in values)


def aggregate(series: list[Value], stats: Sequence[str] = STATS) -> dict[str, Value]:
    """The ``stats`` of a series' present values; all None when none is present.

    NaN and the infinities are missing (``finite_rows``), looked for only
    when the sum the mean needs (else one builtin sum) is not finite. The
    mean adds the values in series order. The median and p95 read one
    sorted copy, made only when one of them is asked for; min and max then
    read its ends: the sort is stable, so ``s[0]`` is what ``min()``
    returns and the first value equal to ``s[-1]`` what ``max()`` returns,
    of 0.0 and -0.0 too. A mean or median whose sum overflows is ``_mean``'s.
    """
    values = [v for v in series if v is not None]
    total = ordered_sum(values) if "mean" in stats else sum(values)
    if not math.isfinite(total):
        values = [v for v in finite_rows(values) if v is not None]
        total = ordered_sum(values)
    if not values:
        return dict.fromkeys(stats)
    n = len(values)
    s = sorted(values) if "median" in stats or "p95" in stats else None
    out: dict[str, Value] = {}
    for stat in stats:
        if stat == "mean":
            out[stat] = _mean(values, total)
        elif stat == "min":
            out[stat] = min(values) if s is None else s[0]
        elif stat == "max":
            out[stat] = max(values) if s is None else s[bisect_left(s, s[-1])]
        elif stat == "median":
            lo, hi = s[n // 2 - 1], s[n // 2]
            out[stat] = hi if n % 2 == 1 else _mean([lo, hi], lo + hi)
        elif stat == "p95":
            out[stat] = s[math.ceil(0.95 * n) - 1]
        else:
            raise KeyError(f"unknown statistic {stat!r}")
    return out


# ---------------------------------------------------------------------------
# schema

# The one description of every feature. A series row gives one aggregated
# name per statistic ("velocity_mean", ...), a scalar row one name. The
# family computes the feature and returns it under the row's name;
# individual rows give an "A_" and a "B_" feature (aggressor-only rows just
# the "A_" one), computed by the family on that role's track.
# Extraction runs a family only when the schema asks for one of its outputs,
# and aggregates a series only to the statistics the schema names. A
# backward difference of another family's series (acceleration, hand
# acceleration and jerk, distance rate) and the IoU events are families of
# their own, so a schema that reads none of them skips them.
_INDIVIDUAL_LAYOUT: tuple[tuple[str, str, bool, str], ...] = (
    # (name, "series"|"scalar", aggressor_only, family)
    ("velocity", "series", False, "kinematics"),
    ("acceleration", "series", False, "acceleration"),
    ("handVelocity", "series", False, "hands"),
    ("fastHandPct", "scalar", False, "hands"),
    ("timeToPeakHandVel", "scalar", False, "hands"),
    ("handAcceleration", "series", True, "handAcceleration"),
    ("handJerkMin", "scalar", True, "handJerk"),
    ("armExtension", "series", False, "arms"),
    ("timeToPeakArmExt", "scalar", True, "arms"),
    ("armRetraction0p2s", "scalar", True, "arms"),
    ("elbowFlexPctL", "scalar", False, "elbows"),
    ("elbowFlexPctR", "scalar", False, "elbows"),
    ("elbowAngleL", "series", False, "elbows"),
    ("elbowAngleR", "series", False, "elbows"),
    ("bboxAreaRate", "series", False, "bbox"),
)

# The joints each family's geometry reads by index, beyond the shoulder and
# hip midpoints (``Skeleton.midpoints``) that every body center and torso
# height reads; a derived family has the joints of its source. A schema
# smooths the torso joints and the joints of the families it reads
# (``FeatureSchema.joints``); ``kinematics``, ``distance`` and ``bbox`` read
# only the midpoints and the box.
TORSO_JOINTS = frozenset((LEFT_SHOULDER, RIGHT_SHOULDER, LEFT_HIP, RIGHT_HIP))
_WRISTS = frozenset((LEFT_WRIST, RIGHT_WRIST))
FAMILY_JOINTS: dict[str, frozenset[int]] = {
    "kinematics": frozenset(),
    "acceleration": frozenset(),  # kinematics
    "wrists": _WRISTS,
    "hands": _WRISTS,  # wrists
    "handAcceleration": _WRISTS,  # hands
    "handJerk": _WRISTS,  # handAcceleration
    "arms": _WRISTS | {LEFT_SHOULDER, RIGHT_SHOULDER},
    "elbows": _WRISTS | {LEFT_SHOULDER, RIGHT_SHOULDER, LEFT_ELBOW, RIGHT_ELBOW},
    "bbox": frozenset(),
    "distance": frozenset(),
    "distanceRate": frozenset(),  # distance
    "iouEvents": frozenset(),  # distance
    "relative": _WRISTS,  # wrists
    "reaching": _WRISTS,  # hands, distance
    "facing": frozenset((NOSE, LEFT_EAR, RIGHT_EAR, LEFT_SHOULDER, RIGHT_SHOULDER)),
}

_INTERACTION_LAYOUT: tuple[tuple[str, str, str], ...] = (
    # (name, "series"|"scalar", family)
    ("distance", "series", "distance"),
    ("distanceRate", "series", "distanceRate"),
    ("iou", "series", "distance"),
    ("iouPeak", "scalar", "iouEvents"),
    ("iouDrop0p2s", "scalar", "iouEvents"),
    ("relativeSpeed", "series", "relative"),
    ("handTowardCos", "series", "relative"),
    ("handTowardGt07Pct", "scalar", "relative"),
    ("handToTorso", "series", "reaching"),
    ("handToHip", "series", "reaching"),
    ("closeHandPct", "scalar", "reaching"),
    ("fastAndClosePct", "scalar", "reaching"),
    ("fastAndCloseLongest", "scalar", "reaching"),
    ("postContactSepMean", "scalar", "reaching"),
    ("AfacingToB", "series", "facing"),
    ("BfacingToA", "series", "facing"),
    ("facingRate", "series", "facing"),
)

# The thresholds of the event-shaped features and the shortest segment are
# part of the feature definitions above, not settings: a model file records
# only feature names, so features computed with other values would reach a
# model that never saw them. ``handTowardGt07Pct`` names its threshold.
FAST_HAND = 1.5  # torso heights per second (fastHandPct, fastAndClose*)
ELBOW_FLEX = 120.0  # degrees (elbowFlexPctL/R)
CLOSE_HAND = 0.4  # torso heights (closeHandPct, fastAndClose*)
HAND_TOWARD = 0.7  # cosine (handTowardGt07Pct)
MIN_SEGMENT_FRAMES = 5  # at least the 3 rows that hand motion (jerk) needs

# Historic spellings accepted on input and mapped to canonical names.
NAME_ALIASES = {
    "dist_p95": "distance_p95",
    "distancet_max": "distance_max",
    "handToTorsoMin": "handToTorso_min",
    "handToHipMin": "handToHip_min",
    "handTowardPct": "handTowardGt07Pct",
}

# Interaction families whose every output is the same under both role
# orderings; the others depend on which track is A.
_SYMMETRIC_FAMILIES = {"distance", "distanceRate", "iouEvents"}

_DISTANCE_BASES = {"distance", "handToTorso", "handToHip", "postContactSepMean"}


def canonical_name(name: str) -> str:
    if name.startswith("AB_"):
        name = name[3:]
    return NAME_ALIASES.get(name, name)


@dataclass(frozen=True)
class FeatureSchema:
    """Ordered list of aggregated feature names."""

    names: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(set(self.names)) != len(self.names):
            raise ValueError("schema names must be unique")

    def __len__(self) -> int:
        return len(self.names)

    @cached_property
    def plan(self) -> tuple[tuple[str, int, str, Stats, tuple[str, ...], float], ...]:
        """(family, owner role, base, statistics read, names, sentinel) per value read.

        One entry per scalar and per series (a base of one role) the schema
        reads, in the order of their first names. A series' "statistics
        read" are the statistics its names read, in ``STATS`` order: the one
        list extraction aggregates it to; its names follow the same order.
        A scalar has None and its one name. Built on first read; a name
        outside the layout raises ``KeyError``.
        """
        entries: dict[tuple[str, int, str, float], dict[Optional[str], str]] = {}
        for name in self.names:
            family, role, base, stat, sentinel = _SOURCE[name]
            entries.setdefault((family, role, base, sentinel), {})[stat] = name
        plan = []
        for (family, role, base, sentinel), by_stat in entries.items():
            stats = None if None in by_stat else tuple(s for s in STATS if s in by_stat)
            names = tuple(by_stat[s] for s in stats or (None,))
            plan.append((family, role, base, stats, names, sentinel))
        return tuple(plan)

    @cached_property
    def joints(self) -> frozenset[int]:
        """The joints the schema's values read: the torso joints and each planned
        family's ``FAMILY_JOINTS``. The smoother smooths these and no other."""
        return TORSO_JOINTS.union(*(FAMILY_JOINTS[entry[0]] for entry in self.plan))

    def select(self, names: Sequence[str]) -> "FeatureSchema":
        chosen = {canonical_name(n) for n in names}
        unknown = chosen - set(self.names)
        if unknown:
            raise KeyError(f"names not in schema: {sorted(unknown)}")
        return FeatureSchema(tuple(n for n in self.names if n in chosen))


# Which track of the ordering owns a family's outputs: A (an individual
# family of A, or a directional family, named by its aggressor), B, or
# neither (a symmetric family of the unordered pair).
_ROLE_A, _ROLE_B, _ROLE_PAIR = 0, 1, 2

# (family, owner role, base name, statistic or None, missing sentinel)
Source = tuple[str, int, str, Optional[str], float]
Stats = Optional[tuple[str, ...]]


def _layout() -> list[tuple[str, Source]]:
    """(name, source) for every aggregated feature, in schema order."""
    out: list[tuple[str, Source]] = []

    def put(prefix: str, base: str, shape: str, family: str, role: int) -> None:
        if shape == "series":
            names = [(f"{prefix}{base}_{stat}", stat) for stat in STATS]
        else:
            names = [(prefix + base, None)]
        sentinel = MISSING_DISTANCE if base in _DISTANCE_BASES else 0.0
        out.extend((n, (family, role, base, stat, sentinel)) for n, stat in names)

    for prefix, role in (("A_", _ROLE_A), ("B_", _ROLE_B)):
        for base, shape, agg_only, family in _INDIVIDUAL_LAYOUT:
            if agg_only and role == _ROLE_B:
                continue
            put(prefix, base, shape, family, role)
    for base, shape, family in _INTERACTION_LAYOUT:
        put("", base, shape, family, _ROLE_PAIR if family in _SYMMETRIC_FAMILIES else _ROLE_A)
    return out


_SOURCE: dict[str, Source] = dict(_layout())


def full_schema() -> FeatureSchema:
    return FeatureSchema(tuple(_SOURCE))


@dataclass(frozen=True)
class FeatureVector:
    """Aggregated features of one segment under one role ordering."""

    values: dict[str, float]
    roles: tuple[str, str]  # (aggressor track id, victim track id)

    def as_row(self, schema: FeatureSchema) -> list[float]:
        return [self.values[name] for name in schema.names]


# ---------------------------------------------------------------------------
# per-frame geometry helpers (plain arithmetic, fixed operation order)
#
# A family reads values of one skeleton from the skeleton itself, and
# values spanning two rows of a track (``track_steps``) or one or two rows
# of the ordered pair (``pair_values``) from the tracks the segment was cut
# from, each computed by one row function the first time any window asks.
# Everything relative to the window (the first rows' missing derivatives,
# peaks, runs, percentages) is computed per call, and so are the window's
# lists of stored values: for a 60-row window and a 15-row stride, storing
# a list that one comprehension builds costs more per stride than
# building it per window.


def _dist(ax: float, ay: float, bx: float, by: float) -> float:
    return math.sqrt((ax - bx) ** 2 + (ay - by) ** 2)


def _frames_for(span_s: float, fps: float) -> int:
    return round(span_s * fps)


def _first_argmax(values: list[Value]) -> Optional[int]:
    best_i: Optional[int] = None
    best_v = -math.inf
    for i, v in enumerate(values):
        if v is not None and v > best_v:
            best_i, best_v = i, v
    return best_i


def _first_argmin(values: list[Value]) -> Optional[int]:
    best_i: Optional[int] = None
    best_v = math.inf
    for i, v in enumerate(values):
        if v is not None and v < best_v:
            best_i, best_v = i, v
    return best_i


def _pct(flags: list[Optional[bool]]) -> Value:
    present = len(flags) - flags.count(None)
    if not present:
        return None
    return 100.0 * flags.count(True) / present


def _longest_run(flags: list[Optional[bool]]) -> float:
    best = run = 0
    for f in flags:
        if f:
            run += 1
            if run > best:
                best = run
        else:
            run = 0
    return float(best)


def _backward_diff(times: list[float], values: list[Value]) -> list[Value]:
    out: list[Value] = [None] * len(values)
    for i in range(1, len(values)):
        if values[i] is not None and values[i - 1] is not None:
            dt = times[i] - times[i - 1]
            if dt > 0:
                out[i] = (values[i] - values[i - 1]) / dt
    return out


def _mean_torso(a: Skeleton, b: Skeleton) -> Value:
    ta, tb = a.torso, b.torso
    return None if ta is None or tb is None else (ta + tb) / 2.0


# ---------------------------------------------------------------------------
# individual features


def center_kinematics(track: Track) -> Outputs:
    """Normalized body-center speed (its backward difference is ``acceleration``)."""
    return {"velocity": track_steps(track, center_speed)}


# Per row: None when neither wrist has a velocity there, else (normalized
# speed, vx, vy, wrist joint index) of the faster wrist, the left one on a tie.
WristStep = Optional[tuple[float, float, float, int]]


def _wrist_step(prev: Skeleton, cur: Skeleton, dt: float) -> WristStep:
    th = cur.torso
    if dt <= 0 or th is None:
        return None
    conf, xy, prev_conf, prev_xy = cur.conf, cur.xy, prev.conf, prev.xy
    step: WristStep = None
    if conf[LEFT_WRIST] >= VALID_CONFIDENCE and prev_conf[LEFT_WRIST] >= VALID_CONFIDENCE:
        vx = xy[18] - prev_xy[18]
        vy = xy[19] - prev_xy[19]
        step = (math.sqrt(vx**2 + vy**2) / dt / th, vx, vy, LEFT_WRIST)
    if conf[RIGHT_WRIST] >= VALID_CONFIDENCE and prev_conf[RIGHT_WRIST] >= VALID_CONFIDENCE:
        vx = xy[20] - prev_xy[20]
        vy = xy[21] - prev_xy[21]
        speed = math.sqrt(vx**2 + vy**2) / dt / th
        if step is None or speed > step[0]:
            step = (speed, vx, vy, RIGHT_WRIST)
    return step


def wrist_velocities(track: Track) -> list[WristStep]:
    """Per row, the wrists' velocities from the previous row (see ``WristStep``).

    The velocity vector is in raw pixels per frame step; the speed is
    normalized by time step and torso height. A wrist only has a velocity
    at row i when it is valid at rows i-1 and i.
    """
    return track_steps(track, _wrist_step)


def _fast_flags(hand_speed: list[Value]) -> list[Optional[bool]]:
    return [None if s is None else s > FAST_HAND for s in hand_speed]


def hand_motion(track: Track, velocities: list[WristStep]) -> Outputs:
    """Wrist speed series (max over the two wrists), its fast share and its peak.

    ``velocities`` are the track's ``wrist_velocities``. The speed's
    backward differences are the ``handAcceleration`` and ``handJerk``
    families of ``SegmentFamilies``.
    """
    speed = finite_rows([None if step is None else step[0] for step in velocities])
    peak = _first_argmax(speed)
    return {
        "handVelocity": speed,
        "fastHandPct": _pct(_fast_flags(speed)),
        "timeToPeakHandVel": None if peak is None else float(peak),
    }


def min_jerk(times: list[float], acceleration: list[Value]) -> Outputs:
    """The least backward difference of a hand acceleration series."""
    jerk = [v for v in finite_rows(_backward_diff(times, acceleration)) if v is not None]
    return {"handJerkMin": min(jerk) if jerk else None}


def arm_posture(track: Track, fps: float) -> Outputs:
    """Arm extension (max over arms), its peak and the retraction after it."""
    extension = finite_rows([s.arm_extension for s in track.skeletons])
    peak = _first_argmax(extension)
    retraction: Value = None
    if peak is not None:
        target = peak + _frames_for(0.2, fps)
        if target < len(extension) and extension[target] is not None:
            retraction = extension[peak] - extension[target]
    return {
        "armExtension": extension,
        "timeToPeakArmExt": None if peak is None else float(peak),
        "armRetraction0p2s": retraction,
    }


def elbow_flexion(track: Track) -> Outputs:
    """Interior elbow angles and the share of frames each elbow is flexed."""
    angle_l: list[Value] = [s.elbow_angles[0] for s in track.skeletons]
    angle_r: list[Value] = [s.elbow_angles[1] for s in track.skeletons]
    return {
        "elbowFlexPctL": _pct([None if a is None else a < ELBOW_FLEX for a in angle_l]),
        "elbowFlexPctR": _pct([None if a is None else a < ELBOW_FLEX for a in angle_r]),
        "elbowAngleL": angle_l,
        "elbowAngleR": angle_r,
    }


def _bbox_area_rate(prev: Skeleton, cur: Skeleton, dt: float) -> Value:
    area_prev = prev.bbox_area
    scale = area_prev * dt
    if dt > 0 and scale != 0.0:
        return (cur.bbox_area - area_prev) / scale
    return None


def bbox_area_rate(track: Track) -> Outputs:
    """Relative derivative of the (smoothed) bounding-box area, per second.

    The rate is missing at a frame whose previous box has zero area, or an
    area so small that its product with the time step is 0.0.
    """
    return {"bboxAreaRate": track_steps(track, _bbox_area_rate)}


def iou(box_a: Sequence[float], box_b: Sequence[float]) -> float:
    """Intersection over union of two (x1, y1, x2, y2) rectangles."""
    ix1 = max(box_a[0], box_b[0])
    iy1 = max(box_a[1], box_b[1])
    ix2 = min(box_a[2], box_b[2])
    iy2 = min(box_a[3], box_b[3])
    iw = ix2 - ix1
    ih = iy2 - iy1
    inter = iw * ih if iw > 0 and ih > 0 else 0.0
    area_a = (box_a[2] - box_a[0]) * (box_a[3] - box_a[1])
    area_b = (box_b[2] - box_b[0]) * (box_b[3] - box_b[1])
    union = area_a + area_b - inter
    if union <= 0:
        return 0.0
    return inter / union


# ---------------------------------------------------------------------------
# pair alignment and interaction features


def shared_samples(track_a: Track, track_b: Track) -> tuple[Sequence[int], Sequence[int]]:
    """The indices of each track's samples at the timestamps both have, in time order."""
    times_a, times_b = track_a.timestamps, track_b.timestamps
    if times_a == times_b:
        return range(len(times_a)), range(len(times_b))
    index_b = {t: i for i, t in enumerate(times_b)}
    picks_a = [i for i, t in enumerate(times_a) if t in index_b]
    return picks_a, [index_b[times_a[i]] for i in picks_a]


def pair_segment(track_a: Track, track_b: Track, fps: float) -> PairSegment:
    """Align two smoothed tracks on their shared timestamps.

    Each side's ``source`` is the track it was cut from and its indices
    there; a side of consecutive samples is two list slices of that track.
    """
    picks_a, picks_b = shared_samples(track_a, track_b)
    if len(picks_a) < 2:
        raise NoTemporalOverlap(
            f"tracks {track_a.track_id} and {track_b.track_id} share fewer than 2 frames"
        )
    return PairSegment(aggressor=_cut(track_a, picks_a), victim=_cut(track_b, picks_b), fps=fps)


def _cut(track: Track, picks: Sequence[int]) -> Track:
    first, n = picks[0], len(picks)
    if picks[-1] - first == n - 1:
        times, skels = track.timestamps[first : first + n], track.skeletons[first : first + n]
    else:
        times = [track.timestamps[i] for i in picks]
        skels = [track.skeletons[i] for i in picks]
    return Track(track.track_id, times, skels, source=(track, picks))


def _distance_and_iou(a: Skeleton, b: Skeleton) -> tuple[Value, float]:
    ca, cb, th = a.center, b.center, _mean_torso(a, b)
    distance = None
    if ca is not None and cb is not None and th is not None:
        distance = _dist(ca[0], ca[1], cb[0], cb[1]) / th
    return distance, iou(a.bbox, b.bbox)


def interaction_distance(pair: PairSegment) -> Outputs:
    """Normalized center distance and bbox IoU over the segment.

    The distance's backward difference is ``distanceRate``; the IoU's peak
    and drop are ``iou_events``.
    """
    rows = pair_values(pair, _distance_and_iou)
    return {"distance": finite_rows([d for d, _ in rows]), "iou": [v for _, v in rows]}


def iou_events(ious: list[Value], fps: float) -> Outputs:
    """The first IoU peak and how far the IoU has dropped 0.2 s after it."""
    peak = _first_argmax(ious)
    drop: Value = None
    if peak is not None:
        target = peak + _frames_for(0.2, fps)
        if target < len(ious):
            drop = ious[peak] - ious[target]
    return {"iouPeak": None if peak is None else ious[peak], "iouDrop0p2s": drop}


def _relative_step(
    pa: Skeleton, pb: Skeleton, a: Skeleton, b: Skeleton, dt: float, wrists: WristStep
) -> tuple[Value, Value]:
    """Relative center speed and the hand-toward-victim cosine at one row.

    ``wrists`` is A's ``WristStep`` from ``pa`` to ``a``.
    """
    ca, cb, pca, pcb = a.center, b.center, pa.center, pb.center
    th = _mean_torso(a, b)
    rel_speed: Value = None
    if not (None in (ca, cb, pca, pcb, th) or dt <= 0):
        rx = (ca[0] - cb[0]) - (pca[0] - pcb[0])
        ry = (ca[1] - cb[1]) - (pca[1] - pcb[1])
        rel_speed = math.sqrt(rx**2 + ry**2) / dt / th
    if cb is None or wrists is None:
        return rel_speed, None
    # the faster wrist, valid in ``a``, the row's skeleton of A
    _, vx, vy, wrist = wrists
    nv = math.sqrt(vx**2 + vy**2)
    if nv == 0.0:
        return rel_speed, None
    xy = a.xy
    dx = cb[0] - xy[2 * wrist]
    dy = cb[1] - xy[2 * wrist + 1]
    nd = math.sqrt(dx**2 + dy**2)
    if nd == 0.0:
        return rel_speed, None
    return rel_speed, clamp_cosine((vx * dx + vy * dy) / (nv * nd))


def relative_motion(pair: PairSegment, velocities: list[WristStep]) -> Outputs:
    """Relative center speed plus the hand-toward-victim direction cosine.

    The cosine compares the velocity of A's faster wrist with the vector
    from that wrist to B's torso center; frames without wrist motion yield
    a missing value. ``velocities`` are A's ``wrist_velocities``. Both
    values at row i span rows i-1 and i of the pair.
    """
    rows = pair_values(pair, _relative_step, velocities)
    rel_speed: list[Value] = [None]
    toward: list[Value] = [None]
    for speed, cosine in rows[1:]:
        rel_speed.append(speed)
        toward.append(cosine)

    return {
        "relativeSpeed": rel_speed,
        "handTowardCos": toward,
        "handTowardGt07Pct": _pct([None if c is None else c > HAND_TOWARD for c in toward]),
    }


def _nearer_wrist(xy: tuple, left: bool, right: bool, px: float, py: float, th: float) -> float:
    """The nearer of the flagged wrists to (px, py), over ``th``; left wins a tie."""
    d_left = _dist(xy[18], xy[19], px, py) / th if left else math.inf
    if not right:
        return d_left
    d_right = _dist(xy[20], xy[21], px, py) / th
    return d_right if d_right < d_left else d_left


def _hand_reach(a: Skeleton, b: Skeleton) -> tuple[Value, Value]:
    """A's nearer valid wrist to B's body center and to B's hip, in B's torso heights."""
    th = b.torso
    if th is None:
        return None, None
    conf = a.conf
    left = conf[LEFT_WRIST] >= VALID_CONFIDENCE
    right = conf[RIGHT_WRIST] >= VALID_CONFIDENCE
    if not (left or right):
        return None, None
    xy, cb, hip = a.xy, b.center, b.midpoints[1]
    return (
        None if cb is None else _nearer_wrist(xy, left, right, cb[0], cb[1], th),
        None if hip is None else _nearer_wrist(xy, left, right, hip[0], hip[1], th),
    )


def reaching(pair: PairSegment, hand_speed: list[Value], distance: list[Value]) -> Outputs:
    """A-wrist to B-torso/hip distances and the fast-and-close conjunction.

    ``hand_speed`` is A's hand speed series (``hand_motion``'s
    ``handVelocity``) and ``distance`` the normalized center distance series
    (``interaction_distance``'s ``distance``) of the same segment.
    """
    rows = pair_values(pair, _hand_reach)
    hand_to_torso = finite_rows([d for d, _ in rows])
    hand_to_hip: list[Value] = [d for _, d in rows]

    close_flags = [None if d is None else d < CLOSE_HAND for d in hand_to_torso]
    both: list[Optional[bool]] = [
        None if f is None or c is None else (f and c)
        for f, c in zip(_fast_flags(hand_speed), close_flags)
    ]

    contact = _first_argmin(hand_to_torso)
    post_mean: Value = None
    if contact is not None:
        stop = min(contact + _frames_for(0.4, pair.fps), len(rows) - 1)
        window = [distance[i] for i in range(contact, stop + 1) if distance[i] is not None]
        if window:
            post_mean = _mean(window, ordered_sum(window))

    return {
        "handToTorso": hand_to_torso,
        "handToHip": hand_to_hip,
        "closeHandPct": _pct(close_flags),
        "fastAndClosePct": _pct(both),
        "fastAndCloseLongest": _longest_run(both),
        "postContactSepMean": post_mean,
    }


def _facing_cosines(a: Skeleton, b: Skeleton) -> tuple[Value, Value]:
    ca, cb = a.center, b.center
    if ca is None or cb is None:
        return None, None
    ux, uy = cb[0] - ca[0], cb[1] - ca[1]
    nu = math.sqrt(ux**2 + uy**2)
    if nu == 0.0:
        return None, None
    fa, fb = a.facing, b.facing
    return (
        None if fa is None else clamp_cosine((fa[0] * ux + fa[1] * uy) / nu),
        None if fb is None else clamp_cosine((fb[0] * ux + fb[1] * uy) / nu),
    )


def _facing_rate(prev: Skeleton, cur: Skeleton, dt: float) -> Value:
    fa, fb = prev.facing, cur.facing
    if fa is None or fb is None or dt <= 0:
        return None
    d = math.atan2(fb[1], fb[0]) - math.atan2(fa[1], fa[0])
    d = (d + math.pi) % (2.0 * math.pi) - math.pi
    return abs(d) / dt


def facing(pair: PairSegment) -> Outputs:
    """Facing cosines for both roles plus the victim's facing angular speed.

    Both cosines are taken against the A-to-B direction, so +1 means A
    faces B and -1 means B faces A.
    """
    rows = pair_values(pair, _facing_cosines)
    return {
        "AfacingToB": [c for c, _ in rows],
        "BfacingToA": [c for _, c in rows],
        "facingRate": track_steps(pair.victim, _facing_rate),
    }


# ---------------------------------------------------------------------------
# segment-level assembly


class SegmentFamilies:
    """The family outputs and series aggregates of one segment's two tracks.

    Each value is computed on first lookup and keyed by what it depends on,
    so both role orderings of the segment share one table:

    - an individual family (``wrists``, ``kinematics``, ``acceleration``,
      ``hands``, ``handAcceleration``, ``handJerk``, ``arms``, ``elbows``,
      ``bbox``) by its track's id: A's ``hands`` under one ordering is B's
      ``hands`` under the other;
    - ``distance`` by the unordered pair, since its outputs are the same
      under both orderings (differences only enter squared, and the torso
      mean, the box max/min and the area sum commute), and so are
      ``distanceRate`` and ``iouEvents``, which read only its outputs;
    - a directional family (``relative``, ``reaching``, ``facing``) by the
      ordered pair, named by its aggressor's id;
    - each series' aggregate by its family's key, its base name and the
      statistics the schema reads of it.

    "wrists" are the wrist velocities that "hands" and "relative" share.
    A derived family (``acceleration``, ``handAcceleration``, ``handJerk``,
    ``distanceRate``, ``iouEvents``) reads its source family's output from
    the table, so it runs only when a name reads it.
    The families read their per-frame values from the tracks the segment
    was cut from. The table holds no reference to itself, so its per-frame
    lists are freed with it rather than by the cyclic garbage collector.
    """

    def __init__(self, pair: PairSegment) -> None:
        self.pair = pair
        self.outputs: dict[tuple[str, Optional[str]], Outputs] = {}
        self.aggregates: dict[tuple[tuple[str, Optional[str]], str, Stats], dict[str, Value]] = {}

    def serves(self, pair: PairSegment) -> bool:
        """True when ``pair`` is this table's segment under either role ordering."""
        own = self.pair
        same_tracks = (pair.aggressor is own.aggressor and pair.victim is own.victim) or (
            pair.aggressor is own.victim and pair.victim is own.aggressor
        )
        return same_tracks and pair.fps == own.fps

    def get(self, key: tuple[str, Optional[str]], pair: PairSegment) -> Outputs:
        """The outputs of family ``key[0]`` owned by ``key[1]``, for ``pair``'s ordering."""
        out = self.outputs.get(key)
        if out is None:
            out = self.outputs[key] = self._compute(key[0], key[1], pair)
        return out

    def _compute(self, family: str, owner: Optional[str], pair: PairSegment) -> Outputs:
        if family == "distance":
            # stored once per unordered pair, whichever track this window's roles put first
            if pair.aggressor.track_id > pair.victim.track_id:
                pair = pair.swapped()
            return interaction_distance(pair)
        if family == "relative":
            return relative_motion(pair, self.get(("wrists", owner), pair))
        if family == "reaching":
            hand_speed = self.get(("hands", owner), pair)["handVelocity"]
            distance = self.get(("distance", None), pair)["distance"]
            return reaching(pair, hand_speed, distance)
        if family == "facing":
            return facing(pair)
        # the two tracks of a segment share their timestamps
        times = pair.aggressor.timestamps
        if family == "distanceRate":
            distance = self.get(("distance", None), pair)["distance"]
            return {"distanceRate": _backward_diff(times, distance)}
        if family == "iouEvents":
            return iou_events(self.get(("distance", None), pair)["iou"], pair.fps)
        if family == "acceleration":
            velocity = self.get(("kinematics", owner), pair)["velocity"]
            return {"acceleration": _backward_diff(times, velocity)}
        if family == "handAcceleration":
            hand_speed = self.get(("hands", owner), pair)["handVelocity"]
            return {"handAcceleration": _backward_diff(times, hand_speed)}
        if family == "handJerk":
            return min_jerk(times, self.get(("handAcceleration", owner), pair)["handAcceleration"])
        track = pair.aggressor if owner == pair.aggressor.track_id else pair.victim
        if family == "wrists":
            return wrist_velocities(track)
        if family == "kinematics":
            return center_kinematics(track)
        if family == "hands":
            return hand_motion(track, self.get(("wrists", owner), pair))
        if family == "arms":
            return arm_posture(track, pair.fps)
        if family == "elbows":
            return elbow_flexion(track)
        if family == "bbox":
            return bbox_area_rate(track)
        raise KeyError(f"unknown feature family {family!r}")


def extract_segment(
    pair: PairSegment,
    schema: Optional[FeatureSchema] = None,
    families: Optional[SegmentFamilies] = None,
) -> FeatureVector:
    """Compute the feature vector of a pair segment for the schema's names.

    Values come from ``families``, a ``SegmentFamilies`` table of this
    segment under either role ordering; without one, from a fresh table.
    Each family with an output in the schema runs once per table, and each
    series it returns is aggregated once, to the statistics the schema
    reads of it (``FeatureSchema.plan``: one lookup per series and
    scalar), so a second call on ``pair.swapped()`` with the same table
    computes only the directional families of its ordering and the series
    its roles read differently. The vector's names come in plan order,
    which is the schema's when each series' names stand together, as in
    every schema ``full_schema`` and ``select`` give. Missing values are
    materialized with the layout's sentinel so the classifier always sees a
    finite value for every schema name. A segment shorter than
    ``MIN_SEGMENT_FRAMES`` raises ``SegmentTooShort``, a name whose family
    does not return its base name ``KeyError``, and a table built for
    another segment ``ValueError``.
    """
    if schema is None:
        schema = full_schema()
    if len(pair) < MIN_SEGMENT_FRAMES:
        raise SegmentTooShort(f"segment has {len(pair)} frames, need {MIN_SEGMENT_FRAMES}")
    if families is None:
        families = SegmentFamilies(pair)
    elif not families.serves(pair):
        raise ValueError("the family table belongs to another segment")
    aggregates = families.aggregates
    owners = (pair.aggressor.track_id, pair.victim.track_id, None)
    values: dict[str, float] = {}
    for family, role, base, stats, names, sentinel in schema.plan:
        key = (family, owners[role])
        if stats is None:
            value = families.get(key, pair)[base]
            values[names[0]] = sentinel if value is None else float(value)
            continue
        agg = aggregates.get((key, base, stats))
        if agg is None:
            agg = aggregates[key, base, stats] = aggregate(families.get(key, pair)[base], stats)
        for name, stat in zip(names, stats):
            value = agg[stat]
            values[name] = sentinel if value is None else float(value)
    return FeatureVector(values=values, roles=(pair.aggressor.track_id, pair.victim.track_id))


# ---------------------------------------------------------------------------
# CSV interchange

PathOrFile = Union[str, IO[str]]


def write_feature_csv(
    dest: PathOrFile, rows: Iterable[tuple[str, FeatureVector]], schema: FeatureSchema
) -> None:
    """Feature matrix CSV: segment_id column then schema columns, full precision."""
    if isinstance(dest, str):
        with open(dest, "w", encoding="utf-8", newline="") as fh:
            write_feature_csv(fh, rows, schema)
        return
    writer = csv.writer(dest)
    writer.writerow(["segment_id", *schema.names])
    for segment_id, vector in rows:
        writer.writerow([segment_id, *(repr(vector.values[n]) for n in schema.names)])


def read_feature_csv(source: PathOrFile) -> tuple[list[str], list[str], array]:
    """Parse a feature CSV into (schema names, segment ids, values).

    ``values`` holds every cell in row-major order, one 8-byte double each.
    A bad header (one naming a feature twice, under any two spellings, included),
    row length, cell or segment id raises ``MalformedRecord``; a cell that
    reads as ``nan`` or an infinity is a bad cell, and an id on an earlier
    line a bad id.
    """
    if isinstance(source, str):
        with open(source, "r", encoding="utf-8", newline="") as fh:
            return read_feature_csv(fh)
    reader = csv.reader(source)
    header = next(reader, None)
    if not header or header[0] != "segment_id":
        raise MalformedRecord("feature CSV must start with a segment_id header column")
    names = [canonical_name(n) for n in header[1:]]
    if len(set(names)) != len(names):
        twice = next(name for i, name in enumerate(names) if name in names[:i])
        spellings = [h for h, n in zip(header[1:], names) if n == twice]
        raise MalformedRecord(
            f"feature CSV header names feature {twice!r} more than once: {spellings}"
        )
    ids: list[str] = []
    lines: dict[str, int] = {}
    values = array("d")
    for line in reader:
        if not line:
            continue
        if len(line) != len(header):
            raise MalformedRecord(
                f"feature CSV line {reader.line_num}: {len(line)} fields, header has {len(header)}"
            )
        if line[0] in lines:
            raise MalformedRecord(f"feature CSV line {reader.line_num}: segment id {line[0]!r}"
                                  f" is on line {lines[line[0]]} already")
        lines[line[0]] = reader.line_num
        ids.append(line[0])
        start = len(values)
        try:
            values.extend(map(float, line[1:]))
        except ValueError as exc:
            raise MalformedRecord(f"feature CSV line {reader.line_num}: {exc}") from None
        if not all(map(math.isfinite, values[start:])):
            cell = next(c for c in line[1:] if not math.isfinite(float(c)))
            raise MalformedRecord(f"feature CSV line {reader.line_num}: non-finite cell {cell!r}")
    return names, ids, values
