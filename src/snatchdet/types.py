"""Skeleton, frame and track data model shared by the whole pipeline.

A skeleton is the standard 17-keypoint COCO layout:
nose=0, eyes=1,2, ears=3,4, shoulders=5,6, elbows=7,8, wrists=9,10,
hips=11,12, knees=13,14, ankles=15,16.

It is stored flat: ``xy`` holds the 34 coordinates (x0, y0, x1, y1, ...)
and ``conf`` the 17 confidences, so parsing, validation and smoothing work
on two tuples per person. ``Skeleton.keypoints`` gives the same values as
(x, y, confidence) ``Keypoint`` tuples, built on each read.

Each skeleton also carries its own geometry (shoulder and hip midpoints,
effective torso height, body center, facing direction, elbow angles, arm
extension). Every value is computed on first use and stored on that
skeleton, so pair selection, the role ordering of offline extraction,
every feature family and every overlapping window share one computation,
and the values are freed with the skeleton. Values that span two frames of
a track, or two people, have no one skeleton to live on; a ``FrameMemo``
holds the ones the feature families and offline role ordering read,
grouped by frame, and is the only code that reads or writes them. Pair selection's raw center distances are computed
where they are read, not stored: most belong to pairs that are never
extracted.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Iterable, NamedTuple, Optional

NUM_KEYPOINTS = 17

# COCO joint indices used downstream.
NOSE = 0
LEFT_EYE, RIGHT_EYE = 1, 2
LEFT_EAR, RIGHT_EAR = 3, 4
LEFT_SHOULDER, RIGHT_SHOULDER = 5, 6
LEFT_ELBOW, RIGHT_ELBOW = 7, 8
LEFT_WRIST, RIGHT_WRIST = 9, 10
LEFT_HIP, RIGHT_HIP = 11, 12
LEFT_KNEE, RIGHT_KNEE = 13, 14
LEFT_ANKLE, RIGHT_ANKLE = 15, 16

# A keypoint below this confidence carries no positional meaning.
VALID_CONFIDENCE = 0.3

# Effective torso height never drops below this fraction of the bbox height,
# which keeps normalization finite for near-degenerate poses.
SCALE_FLOOR_FRACTION = 0.05

# Keypoint and bbox coordinates beyond this magnitude are rejected: squaring
# them in the geometry would overflow a float.
COORDINATE_LIMIT = 1e9

# Confidences this close to [0, 1] are clamped instead of rejected.
_CONF_SLACK = 1e-9


class _stored:
    """A property computed on first read and stored in the instance dict.

    ``functools.cached_property`` does the same behind a lock (Python 3.11),
    which makes each first read cost about three times as much; every
    skeleton pays several of them.
    """

    def __init__(self, fn: Callable[[Any], Any]) -> None:
        self.fn = fn
        self.name = fn.__name__
        self.__doc__ = fn.__doc__

    def __get__(self, obj: Any, cls: Any = None) -> Any:
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.fn(obj)
        return value


class MalformedRecord(ValueError):
    """Raised when a raw frame record violates the data model."""


class Keypoint(NamedTuple):
    x: float
    y: float
    confidence: float


@dataclass(frozen=True)
class Skeleton:
    """One person's pose for one frame: 17 keypoints plus a bounding box.

    ``xy`` is (x0, y0, x1, y1, ...), ``conf`` the matching confidences.
    """

    xy: tuple[float, ...]
    conf: tuple[float, ...]
    bbox: tuple[float, float, float, float]  # x1, y1, x2, y2

    def __post_init__(self) -> None:
        if len(self.bbox) != 4:
            raise MalformedRecord(f"bbox must have 4 values, got {len(self.bbox)}")
        if len(self.conf) != NUM_KEYPOINTS or len(self.xy) != 2 * len(self.conf):
            raise MalformedRecord(
                f"skeleton must have {NUM_KEYPOINTS} keypoints, got {len(self.conf)}"
                f" confidences and {len(self.xy)} coordinates"
            )

    @property
    def keypoints(self) -> tuple[Keypoint, ...]:
        """The keypoints as (x, y, confidence) tuples, built on each read."""
        xy = self.xy
        return tuple(Keypoint(xy[2 * i], xy[2 * i + 1], c) for i, c in enumerate(self.conf))

    @property
    def bbox_height(self) -> float:
        return self.bbox[3] - self.bbox[1]

    @property
    def bbox_area(self) -> float:
        return (self.bbox[2] - self.bbox[0]) * (self.bbox[3] - self.bbox[1])

    # Stored geometry lives in the instance dict, outside the dataclass
    # fields, so equality, hash and repr ignore it.

    @_stored
    def exact_floats(self) -> bool:
        """Every coordinate, confidence and bbox value is an exact ``float``.

        The wire reader and ``validate_frame`` both ask; the scan runs once.
        """
        return {*map(type, self.xy), *map(type, self.conf), *map(type, self.bbox)} == _ONLY_FLOAT

    @_stored
    def midpoints(self) -> tuple[Optional[tuple[float, float]], Optional[tuple[float, float]]]:
        """(shoulder midpoint, hip midpoint), each None when unobservable.

        With exactly one valid shoulder (or hip) that point substitutes its
        midpoint. The torso height and the body center both start here.
        Pair selection reads the center of every new skeleton in the window,
        so the four joints are read inline, from one read of ``conf`` and
        ``xy`` (joint j's coordinates are ``xy[2j]`` and ``xy[2j + 1]``).
        """
        conf, xy = self.conf, self.xy
        left = conf[LEFT_SHOULDER] >= VALID_CONFIDENCE
        right = conf[RIGHT_SHOULDER] >= VALID_CONFIDENCE
        if left and right:
            shoulders = ((xy[10] + xy[12]) / 2.0, (xy[11] + xy[13]) / 2.0)
        elif left:
            shoulders = (xy[10], xy[11])
        elif right:
            shoulders = (xy[12], xy[13])
        else:
            shoulders = None
        left = conf[LEFT_HIP] >= VALID_CONFIDENCE
        right = conf[RIGHT_HIP] >= VALID_CONFIDENCE
        if left and right:
            hips = ((xy[22] + xy[24]) / 2.0, (xy[23] + xy[25]) / 2.0)
        elif left:
            hips = (xy[22], xy[23])
        elif right:
            hips = (xy[24], xy[25])
        else:
            hips = None
        return shoulders, hips

    @_stored
    def torso(self) -> Optional[float]:
        """Effective torso height (see ``_effective_torso_height``)."""
        return _effective_torso_height(self)

    @_stored
    def center(self) -> Optional[tuple[float, float]]:
        """Body center (see ``_body_center``)."""
        return _body_center(self)

    @_stored
    def facing(self) -> Optional[tuple[float, float]]:
        """Unit facing vector (see ``_facing_direction``)."""
        return _facing_direction(self)

    @_stored
    def elbow_angles(self) -> tuple[Optional[float], Optional[float]]:
        """Interior (left, right) elbow angles in degrees."""
        return (
            _elbow_angle(self, LEFT_SHOULDER, LEFT_ELBOW, LEFT_WRIST),
            _elbow_angle(self, RIGHT_SHOULDER, RIGHT_ELBOW, RIGHT_WRIST),
        )

    @_stored
    def arm_extension(self) -> Optional[float]:
        """Longer wrist-to-shoulder distance over the arms, in torso heights."""
        return _arm_extension(self)


# ---------------------------------------------------------------------------
# per-skeleton geometry (plain arithmetic, fixed operation order); callers
# read the stored values through the Skeleton properties above


def valid_pos(skel: Skeleton, idx: int) -> Optional[tuple[float, float]]:
    if skel.conf[idx] >= VALID_CONFIDENCE:
        xy = skel.xy
        return (xy[2 * idx], xy[2 * idx + 1])
    return None


def torso_height(skel: Skeleton) -> Optional[float]:
    """Shoulder-midpoint to hip-midpoint distance, or None if unobservable.

    With exactly one valid shoulder (or hip) that point substitutes its
    midpoint.
    """
    shoulders, hips = skel.midpoints
    if shoulders is None or hips is None:
        return None
    return math.sqrt((shoulders[0] - hips[0]) ** 2 + (shoulders[1] - hips[1]) ** 2)


def _effective_torso_height(skel: Skeleton) -> Optional[float]:
    """Torso height clamped from below by the bbox-height scale floor."""
    th = torso_height(skel)
    if th is None:
        return None
    eff = max(th, SCALE_FLOOR_FRACTION * skel.bbox_height)
    if eff <= 0.0:
        return None
    return eff


def _body_center(skel: Skeleton) -> Optional[tuple[float, float]]:
    """Mean of the valid shoulder and hip midpoints."""
    shoulders, hips = skel.midpoints
    if shoulders is not None and hips is not None:
        return ((shoulders[0] + hips[0]) / 2.0, (shoulders[1] + hips[1]) / 2.0)
    if shoulders is not None:
        return shoulders
    if hips is not None:
        return hips
    return None


def _facing_direction(skel: Skeleton) -> Optional[tuple[float, float]]:
    """Unit 2D facing vector from head geometry.

    Prefers ear-midpoint to nose; falls back to the shoulder-line normal
    signed toward the nose. None when neither construction has valid joints.
    """
    nose = valid_pos(skel, NOSE)
    if nose is None:
        return None
    ear_l = valid_pos(skel, LEFT_EAR)
    ear_r = valid_pos(skel, RIGHT_EAR)
    if ear_l is not None and ear_r is not None:
        mid = ((ear_l[0] + ear_r[0]) / 2.0, (ear_l[1] + ear_r[1]) / 2.0)
        fx, fy = nose[0] - mid[0], nose[1] - mid[1]
    else:
        sh_l = valid_pos(skel, LEFT_SHOULDER)
        sh_r = valid_pos(skel, RIGHT_SHOULDER)
        if sh_l is None or sh_r is None:
            return None
        lx, ly = sh_r[0] - sh_l[0], sh_r[1] - sh_l[1]
        nx, ny = -ly, lx
        mid = ((sh_l[0] + sh_r[0]) / 2.0, (sh_l[1] + sh_r[1]) / 2.0)
        side = nx * (nose[0] - mid[0]) + ny * (nose[1] - mid[1])
        if side == 0.0:
            return None
        if side < 0.0:
            nx, ny = -nx, -ny
        fx, fy = nx, ny
    norm = math.sqrt(fx**2 + fy**2)
    if norm == 0.0:
        return None
    return (fx / norm, fy / norm)


def _elbow_angle(skel: Skeleton, shoulder: int, elbow: int, wrist: int) -> Optional[float]:
    s = valid_pos(skel, shoulder)
    e = valid_pos(skel, elbow)
    w = valid_pos(skel, wrist)
    if s is None or e is None or w is None:
        return None
    ux, uy = s[0] - e[0], s[1] - e[1]
    wx, wy = w[0] - e[0], w[1] - e[1]
    nu = math.sqrt(ux**2 + uy**2)
    nw = math.sqrt(wx**2 + wy**2)
    if nu == 0.0 or nw == 0.0:
        return None
    c = (ux * wx + uy * wy) / (nu * nw)
    c = min(1.0, max(-1.0, c))
    return math.degrees(math.acos(c))


def _arm_extension(skel: Skeleton) -> Optional[float]:
    th = skel.torso
    if th is None:
        return None
    per_arm = []
    for shoulder, wrist in ((LEFT_SHOULDER, LEFT_WRIST), (RIGHT_SHOULDER, RIGHT_WRIST)):
        s = valid_pos(skel, shoulder)
        w = valid_pos(skel, wrist)
        if s is not None and w is not None:
            per_arm.append(math.sqrt((w[0] - s[0]) ** 2 + (w[1] - s[1]) ** 2) / th)
    return max(per_arm) if per_arm else None


def center_speed(prev: Skeleton, cur: Skeleton, dt: float) -> Optional[float]:
    """Body-center speed between two samples of one person, torso-heights/second.

    Normalized by the later sample's torso height; None when either center
    or that torso height is unobservable, or ``dt`` is not positive.
    """
    c, p, th = cur.center, prev.center, cur.torso
    if c is not None and p is not None and th is not None and dt > 0:
        return math.sqrt((c[0] - p[0]) ** 2 + (c[1] - p[1]) ** 2) / dt / th
    return None


@dataclass(frozen=True)
class FrameRecord:
    """All detected persons of one video frame."""

    frame_index: int
    timestamp: float
    persons: tuple[tuple[int, Skeleton], ...]


@dataclass
class Track:
    """Time-ordered skeletons of one person identity.

    ``skeletons`` runs parallel to ``timestamps``. The windowing core hands
    out skeletons already smoothed by ``preprocess.SkeletonSmoother``.
    """

    track_id: str
    timestamps: list[float] = field(default_factory=list)
    skeletons: list[Skeleton] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.timestamps)


def track_order(track_id: str) -> tuple:
    """Sort key of a track id: dotted integer parts, else ``(inf, id)``.

    "1.2" sorts after "1" but before "2"; plain numeric ids sort numerically.
    """
    try:
        return tuple(int(p) for p in track_id.split("."))
    except ValueError:
        return (float("inf"), track_id)


@dataclass(frozen=True)
class PairSegment:
    """A pair of time-aligned track slices for one classification window.

    ``aggressor`` plays role A and ``victim`` role B in all interaction
    features; both slices hold samples at identical timestamps.
    """

    aggressor: Track
    victim: Track
    fps: float

    def __post_init__(self) -> None:
        if self.aggressor.timestamps != self.victim.timestamps:
            raise ValueError("pair tracks must be aligned on identical timestamps")

    def __len__(self) -> int:
        return len(self.aggressor)

    def swapped(self) -> "PairSegment":
        return PairSegment(aggressor=self.victim, victim=self.aggressor, fps=self.fps)


_MISSING = object()


class FrameMemo:
    """Per-frame values of tracks and pairs, each computed once, grouped by frame.

    A value belongs to one row of the ordered pair (A, B) of tracks that
    share timestamps (``rows``), or to two consecutive rows of one track or
    of that pair (``steps``). ``values[t]`` holds the entries of the frame
    at timestamp ``t``, each under ``"<name>|<track key>[|<track key>]"``.
    Track keys and a timestamp name the skeletons, so every window, both
    orderings of a pair and every caller that asks get the same value. A value spanning the
    rows at ``t_prev`` and ``t`` is stored at ``t`` as ``(t_prev, value)``
    and read only when ``t_prev`` matches, since a segment's previous row
    is the previous frame both members share, which need not be the
    track's previous frame. ``evict(t)`` drops frame ``t``'s entries.
    Readers must not mutate a value. Nothing outside this class reads or
    writes ``values``.
    """

    def __init__(self) -> None:
        self.values: defaultdict[float, dict] = defaultdict(dict)

    def evict(self, t: float) -> None:
        self.values.pop(t, None)

    def rows(
        self, name: str, row: Callable[[Skeleton, Skeleton], Any], a: Track, b: Track
    ) -> list:
        """``row(A's skeleton, B's skeleton)`` at every row of the ordered pair (A, B).

        A value of one row of one track lives on its skeleton instead.
        """
        values, key = self.values, f"{name}|{a.track_id}|{b.track_id}"
        out = []
        for t, skel_a, skel_b in zip(a.timestamps, a.skeletons, b.skeletons):
            frame = values[t]
            v = frame.get(key, _MISSING)
            if v is _MISSING:
                v = frame[key] = row(skel_a, skel_b)
            out.append(v)
        return out

    def steps(
        self,
        name: str,
        row: Callable[..., Any],
        a: Track,
        b: Optional[Track] = None,
        extra: Optional[list] = None,
    ) -> list:
        """Values spanning each row and the row before it; None at row 0.

        For the track ``a``: ``row(previous skeleton, skeleton, dt)``. For
        the ordered pair (``a``, ``b``): ``row(A's previous skeleton, B's
        previous skeleton, A's skeleton, B's skeleton, dt, extra[i])``, where
        ``extra[i]`` is a value of row i the caller already holds (relative
        motion passes A's wrist steps); it must depend only on rows i-1 and i.
        """
        if b is None:
            key = f"{name}|{a.track_id}"
        else:
            key, skels_b = f"{name}|{a.track_id}|{b.track_id}", b.skeletons
        values, times, skels_a = self.values, a.timestamps, a.skeletons
        out: list = [None] if times else []
        for t, tp in zip(times[1:], times):
            frame = values[t]
            entry = frame.get(key)
            if entry is None or entry[0] != tp:
                i = len(out)
                if b is None:
                    value = row(skels_a[i - 1], skels_a[i], t - tp)
                else:
                    value = row(
                        skels_a[i - 1], skels_b[i - 1], skels_a[i], skels_b[i], t - tp, extra[i]
                    )
                entry = frame[key] = (tp, value)
            out.append(entry[1])
        return out


def memo_or_new(memo: Optional[FrameMemo]) -> FrameMemo:
    """The caller's memo, or a fresh one for a caller without a window store."""
    return FrameMemo() if memo is None else memo


def center_speeds(track: Track, memo: Optional[FrameMemo] = None) -> list[Optional[float]]:
    """``center_speed`` from each row's previous row; None at row 0."""
    return memo_or_new(memo).steps("centerSpeed", center_speed, track)


def _check_finite(value: float, what: str) -> None:
    if not isinstance(value, (int, float)) or isinstance(value, bool) or not math.isfinite(value):
        raise MalformedRecord(f"{what} must be a finite number, got {value!r}")


def _check_coordinate(value: float, what: str) -> None:
    # one chained comparison also rejects NaN and the infinities
    if (
        not isinstance(value, (int, float))
        or isinstance(value, bool)
        or not -COORDINATE_LIMIT <= value <= COORDINATE_LIMIT
    ):
        raise MalformedRecord(
            f"{what} must be a finite number within +-{COORDINATE_LIMIT:g}, got {value!r}"
        )


def _clamp_confidence(c: float) -> float:
    if -_CONF_SLACK <= c < 0.0:
        return 0.0
    if 1.0 < c <= 1.0 + _CONF_SLACK:
        return 1.0
    return c


_ONLY_FLOAT = frozenset((float,))


def _passes_whole(skel: Skeleton) -> bool:
    """True when every value of the skeleton passes as it is, with nothing to clamp.

    Only exact floats qualify. A finite sum rules out NaN and the
    infinities, so the minimum and maximum bound every value. False means
    "check value by value", not "invalid".
    """
    xy, conf, bbox = skel.xy, skel.conf, skel.bbox
    return (
        skel.exact_floats
        and math.isfinite(sum(xy))
        and -COORDINATE_LIMIT <= min(xy)
        and max(xy) <= COORDINATE_LIMIT
        and math.isfinite(sum(conf))
        and 0.0 <= min(conf)
        and max(conf) <= 1.0
        and -COORDINATE_LIMIT <= bbox[0] <= bbox[2] <= COORDINATE_LIMIT
        and -COORDINATE_LIMIT <= bbox[1] <= bbox[3] <= COORDINATE_LIMIT
    )


def _check_skeleton(skel: Skeleton) -> Skeleton:
    """Check each value in turn; raises at the first bad one, clamps confidences."""
    xy, confs = skel.xy, skel.conf
    new_confs = []
    skel_changed = False
    for i, c in enumerate(confs):
        _check_coordinate(xy[2 * i], f"keypoint {i} x")
        _check_coordinate(xy[2 * i + 1], f"keypoint {i} y")
        _check_finite(c, f"keypoint {i} confidence")
        conf = _clamp_confidence(c)
        if not 0.0 <= conf <= 1.0:
            raise MalformedRecord(f"keypoint {i} confidence {c} outside [0, 1]")
        if conf != c:
            skel_changed = True
        new_confs.append(conf)

    x1, y1, x2, y2 = skel.bbox
    for name, v in zip(("x1", "y1", "x2", "y2"), skel.bbox):
        _check_coordinate(v, f"bbox {name}")
    if x1 > x2 or y1 > y2:
        raise MalformedRecord(f"bbox corners out of order: {skel.bbox}")

    if skel_changed:
        return Skeleton(xy, tuple(new_confs), skel.bbox)
    return skel


def validate_frame(record: FrameRecord, prev_timestamp: Optional[float] = None) -> FrameRecord:
    """Check every invariant of a frame record.

    Returns the record (with confidences clamped when they sit within 1e-9
    of the [0, 1] bounds) or raises MalformedRecord. Keypoint and bbox
    coordinates must lie within +-``COORDINATE_LIMIT``; a timestamp need only
    be finite. When ``prev_timestamp`` is given, the record's timestamp must
    be strictly greater. Each skeleton is first checked as a whole; one
    that does not pass as it is gets the value-by-value check, which finds
    the first bad value or clamps.
    """
    frame_index = record.frame_index
    if not isinstance(frame_index, int) or isinstance(frame_index, bool) or frame_index < 0:
        raise MalformedRecord(f"frame_index must be a nonnegative integer, got {frame_index!r}")
    _check_finite(record.timestamp, "timestamp")
    if prev_timestamp is not None and record.timestamp <= prev_timestamp:
        raise MalformedRecord(
            f"timestamps must strictly increase ({record.timestamp} after {prev_timestamp})"
        )

    seen_ids: set[int] = set()
    new_persons = []
    changed = False
    for tid, skel in record.persons:
        if not isinstance(tid, int) or isinstance(tid, bool):
            raise MalformedRecord(f"track_id must be an integer, got {tid!r}")
        if tid in seen_ids:
            raise MalformedRecord(f"duplicate track_id {tid} within one frame")
        seen_ids.add(tid)
        if not _passes_whole(skel):
            checked = _check_skeleton(skel)
            if checked is not skel:
                skel = checked
                changed = True
        new_persons.append((tid, skel))

    if changed:
        return replace(record, persons=tuple(new_persons))
    return record


def validate_stream(frames: Iterable[FrameRecord]) -> list[FrameRecord]:
    """Validate a whole stream, enforcing strictly increasing timestamps."""
    out: list[FrameRecord] = []
    prev: Optional[float] = None
    for record in frames:
        out.append(validate_frame(record, prev_timestamp=prev))
        prev = record.timestamp
    return out

