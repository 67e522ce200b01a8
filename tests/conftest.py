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


def roles(segment):
    """(aggressor id, victim id) of a pair segment."""
    return segment.aggressor.track_id, segment.victim.track_id


def by_name(schema, row):
    """A feature row, in ``schema.names`` order, as a dict by feature name."""
    assert len(row) == len(schema)
    return dict(zip(schema.names, row))


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


def classified_windows(engine, frames):
    """Run ``engine`` over ``frames``; returns its alert records and one record per window it classified.

    A window's record is (frame position, (A id, B id), (row A,B, row B,A),
    (p(A,B), p(B,A))), with the pair key's first track as A. The engine
    predicts only the orderings its bound leaves open, so the rows and
    probabilities are computed here, by ``features.extract_segment`` and
    ``forest.predict_probability``, from the segment the engine cuts
    (``pipeline.pair_segment``) before its tracks move on. Each window's
    decision (``StreamEngine._classify``) must be its pair and
    [max(p(A,B), p(B,A)) >= prob_threshold]. Every row the engine extracts
    must equal its ordering's row in the columns its plan fills, and hold 0.0
    in the others; every bound must be at least its ordering's probability,
    and every probability the engine predicts must be it, bit for bit.
    """
    from snatchdet import features, forest, pipeline

    cut, calls, windows = [], [], []
    segment_of, classify = pipeline.pair_segment, engine._classify
    extract, bound, predict = (
        pipeline.extract_segment, pipeline.bound_probability, pipeline.predict_probability
    )

    def recording_segment(*args, **kwargs):
        cut.append(segment_of(*args, **kwargs))
        return cut[-1]

    def recording_extract(pair, schema=None, families=None, plan=None):
        row = extract(pair, schema, families, plan)
        calls.append(("row", roles(pair), (row, plan)))
        return row

    def recording_bound(model, x, unknown):
        calls.append(("bound", calls[-1][1], bound(model, x, unknown)))
        return calls[-1][2]

    def recording_predict(model, x):
        calls.append(("predict", calls[-1][1], predict(model, x)))
        return calls[-1][2]

    def checked_classify(pair):
        decision = classify(pair)
        (segment,) = cut
        ids = roles(segment)
        rows = tuple(features.extract_segment(s, engine.schema) for s in (segment, segment.swapped()))
        probs = tuple(forest.predict_probability(engine.model, row) for row in rows)
        yhat = 1 if max(probs) >= engine.cfg.prob_threshold else 0
        assert decision == (pipeline.pair_key_str(*ids), ids, yhat)
        for kind, ordering, value in calls:
            k = 0 if ordering == ids else 1
            if kind == "row":
                row, plan = value
                filled = {c for entry in (engine.schema.plan if plan is None else plan) for c in entry[4]}
                want = [v if c in filled else 0.0 for c, v in enumerate(rows[k])]
                assert repr(row) == repr(want)
            elif kind == "bound":
                assert value >= probs[k]
            else:
                assert repr(value) == repr(probs[k])
        cut.clear()
        calls.clear()
        windows.append((engine.frames_processed - 1, ids, rows, probs))
        return decision

    with pytest.MonkeyPatch.context() as m:
        m.setattr(pipeline, "pair_segment", recording_segment)
        m.setattr(pipeline, "extract_segment", recording_extract)
        m.setattr(pipeline, "bound_probability", recording_bound)
        m.setattr(pipeline, "predict_probability", recording_predict)
        m.setattr(engine, "_classify", checked_classify)
        alerts = run_engine(engine, frames)
    return alerts, windows


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)
