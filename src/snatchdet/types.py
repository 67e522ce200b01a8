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
and the values are freed with the skeleton. A value spanning two samples
of a track, and the body center pair selection reads, live on the track
(``track_steps``); a value of two people lives in the ``PairRows`` of the
ordered pair (``pair_values``). Pair selection's raw center distances are
computed where they are read, not stored: most belong to pairs that are
never extracted.

Every float sum that reaches an output goes through ``ordered_sum``, one
left-to-right addition, so outputs do not depend on the Python version.

Every input rule is stated here once. The constructor checks the shape
(``check_shape``); ``validate_frame`` checks every value, the timestamp and
the ids. The wire reader checks the shape itself, builds each person with
``trusted_skeleton`` and stores its ``passes_whole`` verdict from
``values_pass_whole``, which ``validate_frame`` reads; any other skeleton
computes its verdict on first read.
"""

from __future__ import annotations

import math
import weakref
from bisect import bisect_left
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Iterable, NamedTuple, Optional, Sequence

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
    """Malformed input: a frame record, file, flag or config value that breaks a rule (exit 2)."""


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
        check_shape(self.xy, self.conf, self.bbox)

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
    def passes_whole(self) -> bool:
        """Every value passes ``validate_frame`` as it is, with nothing to clamp.

        The wire reader stores it as it builds the skeleton. False means
        "check value by value", not "invalid".
        """
        return values_pass_whole(self.xy, self.conf, self.bbox)

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


def check_shape(xy: tuple, conf: tuple, bbox: tuple) -> None:
    """Raise MalformedRecord unless there are 4 bbox values and 17 keypoints."""
    if len(bbox) != 4:
        raise MalformedRecord(f"bbox must have 4 values, got {len(bbox)}")
    if len(conf) != NUM_KEYPOINTS or len(xy) != 2 * len(conf):
        raise MalformedRecord(
            f"skeleton must have {NUM_KEYPOINTS} keypoints, got {len(conf)}"
            f" confidences and {len(xy)} coordinates"
        )


_new = object.__new__


def trusted_skeleton(
    xy: tuple, conf: tuple, bbox: tuple, passes_whole: Optional[bool] = None
) -> Skeleton:
    """A skeleton whose shape the caller has checked: no ``__post_init__``.

    ``passes_whole``, if given, is stored and must be ``values_pass_whole``'s verdict.
    """
    skel = _new(Skeleton)
    fields = skel.__dict__
    fields["xy"], fields["conf"], fields["bbox"] = xy, conf, bbox
    if passes_whole is not None:
        fields["passes_whole"] = passes_whole
    return skel


# ---------------------------------------------------------------------------
# per-skeleton geometry (plain arithmetic, fixed operation order); callers
# read the stored values through the Skeleton properties above


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
    Like ``Skeleton.midpoints``, it reads the joints inline (joint j at
    ``xy[2j]``, ``xy[2j + 1]``).
    """
    conf, xy = skel.conf, skel.xy
    if not conf[NOSE] >= VALID_CONFIDENCE:
        return None
    if conf[LEFT_EAR] >= VALID_CONFIDENCE and conf[RIGHT_EAR] >= VALID_CONFIDENCE:
        fx, fy = xy[0] - (xy[6] + xy[8]) / 2.0, xy[1] - (xy[7] + xy[9]) / 2.0
    elif conf[LEFT_SHOULDER] >= VALID_CONFIDENCE and conf[RIGHT_SHOULDER] >= VALID_CONFIDENCE:
        nx, ny = -(xy[13] - xy[11]), xy[12] - xy[10]
        side = nx * (xy[0] - (xy[10] + xy[12]) / 2.0) + ny * (xy[1] - (xy[11] + xy[13]) / 2.0)
        if side == 0.0:
            return None
        if side < 0.0:
            nx, ny = -nx, -ny
        fx, fy = nx, ny
    else:
        return None
    norm = math.sqrt(fx**2 + fy**2)
    if norm == 0.0:
        return None
    return (fx / norm, fy / norm)


def _elbow_angle(skel: Skeleton, shoulder: int, elbow: int, wrist: int) -> Optional[float]:
    conf = skel.conf
    if not (
        conf[shoulder] >= VALID_CONFIDENCE
        and conf[elbow] >= VALID_CONFIDENCE
        and conf[wrist] >= VALID_CONFIDENCE
    ):
        return None
    xy = skel.xy
    ex, ey = xy[2 * elbow], xy[2 * elbow + 1]
    ux, uy = xy[2 * shoulder] - ex, xy[2 * shoulder + 1] - ey
    wx, wy = xy[2 * wrist] - ex, xy[2 * wrist + 1] - ey
    nu = math.sqrt(ux**2 + uy**2)
    nw = math.sqrt(wx**2 + wy**2)
    if nu == 0.0 or nw == 0.0:
        return None
    c = (ux * wx + uy * wy) / (nu * nw)
    return math.degrees(math.acos(clamp_cosine(c)))


def _arm_extension(skel: Skeleton) -> Optional[float]:
    th = skel.torso
    if th is None:
        return None
    conf, xy = skel.conf, skel.xy
    longest = None
    if conf[LEFT_SHOULDER] >= VALID_CONFIDENCE and conf[LEFT_WRIST] >= VALID_CONFIDENCE:
        longest = math.sqrt((xy[18] - xy[10]) ** 2 + (xy[19] - xy[11]) ** 2) / th
    if conf[RIGHT_SHOULDER] >= VALID_CONFIDENCE and conf[RIGHT_WRIST] >= VALID_CONFIDENCE:
        right = math.sqrt((xy[20] - xy[12]) ** 2 + (xy[21] - xy[13]) ** 2) / th
        if longest is None or right > longest:
            longest = right
    return longest


def clamp_cosine(c: float) -> float:
    """``c`` clamped to [-1, 1] as ``min(1.0, max(-1.0, c))`` clamps it."""
    c = c if c > -1.0 else -1.0
    return c if c < 1.0 else 1.0


def center_speed(prev: Skeleton, cur: Skeleton, dt: float) -> Optional[float]:
    """Body-center speed between two samples of one person, torso-heights/second.

    Normalized by the later sample's torso height; None when either center
    or that torso height is unobservable, or ``dt`` is not positive.
    """
    c, p, th = cur.center, prev.center, cur.torso
    if c is not None and p is not None and th is not None and dt > 0:
        return math.sqrt((c[0] - p[0]) ** 2 + (c[1] - p[1]) ** 2) / dt / th
    return None


def ordered_sum(values: Iterable[float]) -> float:
    """The floats added one at a time, left to right, with no compensation.

    From Python 3.12 ``sum()`` compensates float rounding, so a mean summed
    with it could change an output's bytes with the interpreter's version.
    """
    total = 0.0
    for v in values:
        total += v
    return total


@dataclass(frozen=True)
class FrameRecord:
    """All detected persons of one video frame."""

    frame_index: int
    timestamp: float
    persons: tuple[tuple[int, Skeleton], ...]


@dataclass
class Track:
    """Time-ordered skeletons of one person identity, and values stored of them.

    ``skeletons`` runs parallel to ``timestamps``; the windowing core hands
    them out smoothed. ``centers`` (read by pair selection) and ``steps[row]``
    (``track_steps``) run parallel to the samples from the first, filled up
    to the last sample read and trimmed with the samples. ``pairs`` maps a
    partner's id to the ``PairRows`` of (this track, partner). The
    ``source`` of a ``PairSegment`` side is the track it was cut from and
    its indices there.
    """

    track_id: str
    timestamps: list[float] = field(default_factory=list)
    skeletons: list[Skeleton] = field(default_factory=list)
    centers: list = field(default_factory=list, compare=False, repr=False)
    steps: dict = field(default_factory=dict, compare=False, repr=False)
    pairs: dict = field(default_factory=dict, compare=False, repr=False)
    source: Optional[tuple] = field(default=None, compare=False, repr=False)

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


def _cut_from(track: Track) -> tuple[Track, Sequence[int]]:
    """(the track ``track`` was cut from, its indices there), or ``track`` and all of
    its indices when it was cut from none or that track has dropped a sample since."""
    if track.source is not None:
        live, picks = track.source
        if picks[-1] < len(live.skeletons) and live.skeletons[picks[-1]] is track.skeletons[-1]:
            return live, picks
    return track, range(len(track.timestamps))


def track_steps(track: Track, row: Callable[[Skeleton, Skeleton, float], Any]) -> list:
    """``row(previous skeleton, skeleton, dt)`` at each row of ``track``; None at row 0.

    A row whose previous row is the previous sample of the track it was cut from
    reads that track's ``steps[row]`` (never its first entry); any other is computed.
    """
    live, picks = _cut_from(track)
    if not picks:
        return []
    stored = live.steps.setdefault(row, [])
    times, skels = live.timestamps, live.skeletons
    for i in range(len(stored), picks[-1] + 1):
        stored.append(row(skels[i - 1], skels[i], times[i] - times[i - 1]) if i else None)
    first, n = picks[0], len(picks)
    if picks[-1] - first == n - 1:
        return [None, *stored[first + 1 : first + n]]
    return [None] + [
        stored[i] if prev == i - 1 else row(skels[prev], skels[i], times[i] - times[prev])
        for prev, i in zip(picks, picks[1:])
    ]


class PairRows(NamedTuple):
    """Stored values of one ordered pair of tracks, at the timestamps both have.

    Each list of ``values`` runs parallel to ``times`` from the first. Shared
    timestamps only leave from the front and arrive at the end, so a value
    spanning two rows keeps its previous row. ``partner`` is a weak reference:
    it tells apart another track with the same id and keeps none alive.
    """

    partner: weakref.ref
    times: list[float]
    values: dict[Callable, list]


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

    @_stored
    def rows(self) -> PairRows:
        """The (A, B) ``PairRows`` of the tracks cut from, its rows starting as this segment's."""
        live_a, live_b = _cut_from(self.aggressor)[0], _cut_from(self.victim)[0]
        rows = live_a.pairs.get(live_b.track_id)
        if rows is None or rows.partner() is not live_b:
            rows = live_a.pairs[live_b.track_id] = PairRows(weakref.ref(live_b), [], {})
        times, own = self.aggressor.timestamps, rows.times
        k = bisect_left(own, times[0])  # rows that have left the window
        del own[:k]
        for values in rows.values.values():
            del values[:k]
        n = min(len(own), len(times))
        if own[:n] != times[:n]:  # not this segment's rows: start over
            own.clear()
            rows.values.clear()
        own.extend(times[len(own) :])
        return rows


def pair_values(pair: PairSegment, row: Callable[..., Any], extra: Optional[list] = None) -> list:
    """Stored values of the ordered pair (A, B), one per row.

    Without ``extra``, ``row(A's skeleton, B's skeleton)``. With it, None at
    row 0, then ``row(A's and B's previous skeletons, A's and B's skeletons,
    dt, extra[i])``; ``extra[i]``, a value of row i the caller holds (A's
    wrist steps), must depend only on rows i-1 and i.
    """
    a, b, n = pair.aggressor.skeletons, pair.victim.skeletons, len(pair)
    if pair.rows.times[:1] != pair.aggressor.timestamps[:1]:  # a newer segment trimmed them
        del pair.__dict__["rows"]  # derived again on the next read
    stored = pair.rows.values.setdefault(row, [])
    if extra is None:
        stored.extend(map(row, a[len(stored) : n], b[len(stored) : n]))
        return stored[:n]
    times = pair.aggressor.timestamps
    if not stored:
        stored.append(None)
    for i in range(len(stored), n):
        stored.append(row(a[i - 1], b[i - 1], a[i], b[i], times[i] - times[i - 1], extra[i]))
    return [None, *stored[1:n]]


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


_ALL_FLOAT = [float] * (3 * NUM_KEYPOINTS + 4)  # the types of a whole skeleton's values


def values_pass_whole(xy: tuple, conf: tuple, bbox: tuple) -> bool:
    """True when every value passes as it is, with nothing to clamp.

    Only exact floats qualify. A finite sum rules out NaN and the
    infinities, so the ends of the sorted values bound every value
    (``sorted`` compares floats in about half the time ``min`` and ``max``
    take). False means "check value by value", not "invalid".
    """
    if [*map(type, xy), *map(type, conf), *map(type, bbox)] != _ALL_FLOAT:
        return False
    if not math.isfinite(sum(xy) + sum(conf)):
        return False
    xs, cs = sorted(xy), sorted(conf)
    return (
        -COORDINATE_LIMIT <= xs[0]
        and xs[-1] <= COORDINATE_LIMIT
        and 0.0 <= cs[0]
        and cs[-1] <= 1.0
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
    be strictly greater. Each skeleton is first checked as a whole, through
    its ``passes_whole`` verdict; one that does not pass as it is gets the
    value-by-value check, which finds the first bad value or clamps.
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
        if not skel.passes_whole:
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

