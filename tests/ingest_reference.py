"""Value-by-value reading, validation and keypoint-object smoothing, kept as oracles.

These are the straight-line forms of ``streams.obj_to_frame``,
``types.validate_frame`` and ``preprocess.SkeletonSmoother.step``: the
reader converts every value with its own call and stores no verdict, every
coordinate and confidence is checked with its own call, and the smoother
builds one ``Keypoint`` per joint. The one-pass reader with its stored
verdict, the whole-vector check and the flat smoother must agree with them
bit for bit (``tests/test_ingest.py``). ``smooth_track`` runs the reference
smoother over a whole track, for oracles and tests that need smoothed input.
The smoother smooths the joints it is given and passes every other joint
through as it came; the joint sets below are written from the COCO layout
here, not read from the package. Nothing in ``src/`` imports this.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import Optional

from conftest import skeleton_from_keypoints
from snatchdet.types import (
    COORDINATE_LIMIT,
    VALID_CONFIDENCE,
    FrameRecord,
    Keypoint,
    MalformedRecord,
    Skeleton,
    Track,
)

_CONF_SLACK = 1e-9

# COCO joints: nose 0, eyes 1-2, ears 3-4, shoulders 5-6, elbows 7-8,
# wrists 9-10, hips 11-12, knees 13-14, ankles 15-16.
ALL_JOINTS = frozenset(range(17))
# shoulders and hips, which every body center and torso height reads
TORSO_JOINTS = frozenset({5, 6, 11, 12})
# what the full feature schema reads: nose and ears (facing), shoulders to
# wrists (arms, elbows, hands), hips; no eye, knee or ankle
FULL_SCHEMA_JOINTS = frozenset({0, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})


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


def _number(value, what: str) -> float:
    if type(value) is not float and type(value) is not int:
        raise MalformedRecord(f"bad frame object: {what} must be a number, got {value!r}")
    return float(value)


def obj_to_frame(obj: dict, fps: float = 30.0) -> FrameRecord:
    """The frame of one decoded object, each value converted on its own."""
    try:
        frame_index = obj["frame_index"]
        timestamp = obj.get("timestamp_s")
        if timestamp is None:
            timestamp = frame_index / fps
        else:
            timestamp = _number(timestamp, "timestamp_s")
        persons = []
        for p in obj["persons"]:
            kps = [(x, y, c) for x, y, c in p["keypoints"]]
            bbox = tuple(p["bbox"])
            if len(bbox) != 4:
                raise MalformedRecord(f"bbox must have 4 values, got {len(bbox)}")
            if len(kps) != 17:
                raise MalformedRecord(
                    f"skeleton must have 17 keypoints, got {len(kps)}"
                    f" confidences and {2 * len(kps)} coordinates"
                )
            xy = [_number(v, "a keypoint value") for x, y, _ in kps for v in (x, y)]
            conf = [_number(c, "a keypoint value") for _, _, c in kps]
            bbox = tuple(_number(v, "a bbox value") for v in bbox)
            persons.append((p["track_id"], Skeleton(tuple(xy), tuple(conf), bbox)))
    except MalformedRecord:
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise MalformedRecord(f"bad frame object: {exc}") from exc
    return FrameRecord(frame_index=frame_index, timestamp=timestamp, persons=tuple(persons))


def validate_frame(record: FrameRecord, prev_timestamp: Optional[float] = None) -> FrameRecord:
    """Every invariant of a frame record, one value at a time."""
    index = record.frame_index
    if not isinstance(index, int) or isinstance(index, bool) or index < 0:
        raise MalformedRecord(f"frame_index must be a nonnegative integer, got {record.frame_index!r}")
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

        new_kps = []
        skel_changed = False
        for i, kp in enumerate(skel.keypoints):
            _check_coordinate(kp.x, f"keypoint {i} x")
            _check_coordinate(kp.y, f"keypoint {i} y")
            _check_finite(kp.confidence, f"keypoint {i} confidence")
            conf = _clamp_confidence(kp.confidence)
            if not 0.0 <= conf <= 1.0:
                raise MalformedRecord(f"keypoint {i} confidence {kp.confidence} outside [0, 1]")
            if conf != kp.confidence:
                kp = Keypoint(kp.x, kp.y, conf)
                skel_changed = True
            new_kps.append(kp)

        x1, y1, x2, y2 = skel.bbox
        for name, v in zip(("x1", "y1", "x2", "y2"), skel.bbox):
            _check_coordinate(v, f"bbox {name}")
        if x1 > x2 or y1 > y2:
            raise MalformedRecord(f"bbox corners out of order: {skel.bbox}")

        if skel_changed:
            skel = skeleton_from_keypoints(new_kps, skel.bbox)
            changed = True
        new_persons.append((tid, skel))

    if changed:
        return replace(record, persons=tuple(new_persons))
    return record


def _ema(prev: float, raw: float, alpha: float) -> float:
    if raw == prev:
        return prev
    return alpha * raw + (1.0 - alpha) * prev


class SkeletonSmoother:
    """EMA over the joints in ``smoothed`` and the bbox, with one state tuple
    per joint; any other joint is passed through as it came."""

    def __init__(self, alpha: float = 0.6, smoothed: frozenset = ALL_JOINTS):
        self.alpha = alpha
        self.smoothed = smoothed
        self._joints: list[Optional[tuple[float, float]]] = [None] * 17
        self._bbox: Optional[tuple[float, float, float, float]] = None

    def step(self, skel: Skeleton) -> Skeleton:
        a = self.alpha
        out = []
        for j, kp in enumerate(skel.keypoints):
            if j not in self.smoothed:
                out.append(kp)
                continue
            state = self._joints[j]
            if kp.confidence >= VALID_CONFIDENCE:
                if state is None:
                    state = (kp.x, kp.y)
                else:
                    state = (_ema(state[0], kp.x, a), _ema(state[1], kp.y, a))
                self._joints[j] = state
                out.append(Keypoint(state[0], state[1], kp.confidence))
            else:
                pos = state if state is not None else (kp.x, kp.y)
                out.append(Keypoint(pos[0], pos[1], kp.confidence))
        if self._bbox is None:
            self._bbox = skel.bbox
        else:
            self._bbox = tuple(
                _ema(prev, raw, a) for raw, prev in zip(skel.bbox, self._bbox)
            )
        return skeleton_from_keypoints(out, self._bbox)


def smooth_track(
    track: Track, alpha: float = 0.6, smoothed: frozenset = ALL_JOINTS
) -> Track:
    """A copy of the track, smoothed from its first sample by the reference smoother."""
    smoother = SkeletonSmoother(alpha, smoothed)
    return Track(track.track_id, list(track.timestamps), [smoother.step(s) for s in track.skeletons])
