"""Shared builders for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from snatchdet.features import pair_segment
from snatchdet.temporal import AlarmState, step
from snatchdet.types import FrameRecord, Keypoint, Skeleton, Track

# Rough body-plan offsets (x, y) around the person center, in pixels.
_TEMPLATE = [
    (0.0, -75.0),   # nose
    (-4.0, -78.0), (4.0, -78.0),    # eyes
    (-8.0, -72.0), (8.0, -72.0),    # ears
    (-20.0, -50.0), (20.0, -50.0),  # shoulders
    (-26.0, -24.0), (26.0, -24.0),  # elbows
    (-28.0, 2.0), (28.0, 2.0),      # wrists
    (-13.0, 50.0), (13.0, 50.0),    # hips
    (-14.0, 95.0), (14.0, 95.0),    # knees
    (-15.0, 140.0), (15.0, 140.0),  # ankles
]


def skeleton_from_keypoints(keypoints, bbox) -> Skeleton:
    """A skeleton from (x, y, confidence) triples, such as ``Keypoint``s."""
    kps = tuple(keypoints)
    xy = tuple(v for x, y, _ in kps for v in (x, y))
    return Skeleton(xy, tuple(c for _, _, c in kps), tuple(bbox))


def random_skeleton(rng: np.random.Generator, center, jitter: float = 6.0, dropout: float = 0.1) -> Skeleton:
    kps = []
    for dx, dy in _TEMPLATE:
        x = center[0] + dx + float(rng.normal(0, jitter))
        y = center[1] + dy + float(rng.normal(0, jitter))
        if rng.random() < dropout:
            conf = float(rng.uniform(0.0, 0.29))
        else:
            conf = float(rng.uniform(0.35, 1.0))
        kps.append(Keypoint(x, y, conf))
    xs = [kp.x for kp in kps]
    ys = [kp.y for kp in kps]
    bbox = (min(xs) - 5.0, min(ys) - 5.0, max(xs) + 5.0, max(ys) + 5.0)
    return skeleton_from_keypoints(kps, bbox)


def random_track(
    rng: np.random.Generator,
    track_id: str,
    n_frames: int,
    fps: float = 10.0,
    start=(200.0, 200.0),
    step_sigma: float = 12.0,
    dropout: float = 0.1,
) -> Track:
    center = list(start)
    skeletons = []
    for i in range(n_frames):
        center[0] += float(rng.normal(0, step_sigma))
        center[1] += float(rng.normal(0, step_sigma))
        skeletons.append(random_skeleton(rng, center, dropout=dropout))
    return Track(track_id, [i / fps for i in range(n_frames)], skeletons)


def random_segment(
    rng: np.random.Generator,
    n_frames: int,
    fps: float = 10.0,
    dropout: float = 0.1,
    alpha: float = 0.6,
):
    """Two random tracks, smoothed by the reference smoother, as one pair segment."""
    # imported here: ingest_reference imports this module
    from ingest_reference import smooth_track

    a = smooth_track(random_track(rng, "1", n_frames, fps, (200.0, 220.0), dropout=dropout), alpha)
    b = smooth_track(random_track(rng, "2", n_frames, fps, (340.0, 210.0), dropout=dropout), alpha)
    return pair_segment(a, b, fps=fps)


def fresh_segment(segment):
    """``segment`` cut anew from copies of its tracks, which store no value yet."""
    a, b = segment.aggressor, segment.victim
    return pair_segment(
        Track(a.track_id, list(a.timestamps), list(a.skeletons)),
        Track(b.track_id, list(b.timestamps), list(b.skeletons)),
        fps=segment.fps,
    )


def static_skeleton(center=(100.0, 100.0), conf: float = 0.9) -> Skeleton:
    kps = tuple(Keypoint(center[0] + dx, center[1] + dy, conf) for dx, dy in _TEMPLATE)
    xs = [kp.x for kp in kps]
    ys = [kp.y for kp in kps]
    return skeleton_from_keypoints(kps, (min(xs) - 5.0, min(ys) - 5.0, max(xs) + 5.0, max(ys) + 5.0))


def frame_of(index: int, t: float, persons) -> FrameRecord:
    return FrameRecord(frame_index=index, timestamp=t, persons=tuple(persons))


def with_bystander(frames, tid=9, dx=2000.0):
    """Add a lone person far to the side of the clip's first person."""
    out = []
    for f in frames:
        _, skel = f.persons[0]
        kps = tuple(Keypoint(kp.x + dx, kp.y, kp.confidence) for kp in skel.keypoints)
        bbox = (skel.bbox[0] + dx, skel.bbox[1], skel.bbox[2] + dx, skel.bbox[3])
        out.append(FrameRecord(f.frame_index, f.timestamp, f.persons + ((tid, skeleton_from_keypoints(kps, bbox)),)))
    return out


def without_person(frames, tid, start, stop):
    """Drop person ``tid`` from frame positions start..stop-1."""
    return [
        FrameRecord(f.frame_index, f.timestamp, tuple(p for p in f.persons if p[0] != tid))
        if start <= pos < stop
        else f
        for pos, f in enumerate(frames)
    ]


def run_alarm(predictions, cfg):
    """Step ``temporal.step`` through ``predictions`` at timestamps 0.0, 1.0, ...

    Returns the alarm state after each prediction and the events that fired,
    as (kind, timestamp, count) tuples.
    """
    state = AlarmState()
    states, events = [], []
    for t, y in enumerate(predictions):
        kind = step(state, y, cfg)
        states.append(state.state)
        if kind is not None:
            events.append((kind, float(t), state.positives))
    return states, events


def run_engine(engine, frames):
    """Feed ``frames`` to a ``StreamEngine``; returns every alert record it gave, in order."""
    return [alert for record in frames for alert in engine.process(record)]


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)
