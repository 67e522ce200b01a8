"""Per-skeleton geometry is computed once and stored on the skeleton; per-track
work is computed once per extraction."""

from collections import Counter

from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import random_skeleton, skeleton_from_keypoints, static_skeleton, with_bystander
from feature_reference import _center, _mid, _torso
from snatchdet import features, types
from snatchdet.config import PipelineConfig
from snatchdet.features import MIN_SEGMENT_FRAMES, extract_segment, full_schema, pair_segment
from snatchdet.pipeline import order_roles, select_pair
from snatchdet.synth import ScenarioSpec, generate
from snatchdet.types import Skeleton
from track_reference import reference_windows, smoothed_tracks


def test_window_computes_each_skeleton_once(monkeypatch):
    cfg = PipelineConfig()
    clip = generate(ScenarioSpec(kind="snatch", seed=5, duration=4.0, noise_sigma=1.0))
    frames = with_bystander(clip.frames)
    windows = dict(reference_windows(frames, cfg))[89]

    counts: dict[str, Counter] = {"center": Counter(), "torso": Counter()}
    for name, helper in (("center", "_body_center"), ("torso", "_effective_torso_height")):
        uncached = getattr(types, helper)

        def counting(skel, _uncached=uncached, _counter=counts[name]):
            _counter[id(skel)] += 1
            return _uncached(skel)

        monkeypatch.setattr(types, helper, counting)

    pair = select_pair(windows, MIN_SEGMENT_FRAMES)
    assert pair is not None and {pair[0].track_id, pair[1].track_id} == {"1", "2"}
    agg, vic = order_roles(pair[0], pair[1], cfg.window_s)
    segment = pair_segment(agg, vic, fps=cfg.fps)
    extract_segment(segment, full_schema())
    extract_segment(segment.swapped(), full_schema())

    pair_skels = {id(s) for w in (agg, vic) for s in w.skeletons}
    all_skels = {id(s) for w in windows for s in w.skeletons}
    # pair selection reads every person's centers, including the bystander's
    assert set(counts["center"]) == all_skels
    assert set(counts["torso"]) == pair_skels
    assert max(counts["center"].values()) == 1
    assert max(counts["torso"].values()) == 1


def test_extraction_computes_each_track_wrist_velocities_once(monkeypatch):
    cfg = PipelineConfig()
    clip = generate(ScenarioSpec(kind="snatch", seed=5, duration=4.0, noise_sigma=1.0))
    agg, vic = order_roles(*smoothed_tracks(clip.frames, cfg)[:2], cfg.window_s)
    segment = pair_segment(agg, vic, fps=cfg.fps)

    calls = Counter()
    uncached = features.wrist_velocities

    def counting(track, memo=None):
        calls[track.track_id] += 1
        return uncached(track, memo)

    monkeypatch.setattr(features, "wrist_velocities", counting)
    extract_segment(segment, full_schema())
    # A's velocities feed both hand_motion and relative_motion
    assert calls == {agg.track_id: 1, vic.track_id: 1}
    calls.clear()
    extract_segment(segment, full_schema().select(["handTowardCos_mean"]))
    assert calls == {agg.track_id: 1}


def test_stored_values_equal_the_uncached_helpers(rng):
    for _ in range(20):
        skel = random_skeleton(rng, (200.0, 200.0), dropout=0.3)
        assert skel.center == types._body_center(skel)
        assert skel.torso == types._effective_torso_height(skel)
        assert skel.facing == types._facing_direction(skel)
        assert skel.elbow_angles == (
            types._elbow_angle(skel, types.LEFT_SHOULDER, types.LEFT_ELBOW, types.LEFT_WRIST),
            types._elbow_angle(skel, types.RIGHT_SHOULDER, types.RIGHT_ELBOW, types.RIGHT_WRIST),
        )


def test_stored_geometry_keeps_equality_hash_and_repr():
    skel = static_skeleton()
    fresh = skeleton_from_keypoints(skel.keypoints, skel.bbox)
    text = repr(skel)
    _ = (skel.center, skel.torso, skel.facing, skel.elbow_angles)
    assert "center" in vars(skel) and "center" not in vars(fresh)
    assert skel == fresh
    assert hash(skel) == hash(fresh)
    assert repr(skel) == repr(fresh) == text


_TORSO_JOINTS = (types.LEFT_SHOULDER, types.RIGHT_SHOULDER, types.LEFT_HIP, types.RIGHT_HIP)


@st.composite
def torso_joints(draw):
    """A skeleton whose four torso joints are each valid or not, with
    confidences at and just below the 0.3 cut."""
    xy = list(static_skeleton().xy)
    conf = [0.9] * types.NUM_KEYPOINTS
    coord = st.sampled_from([0.0, -0.0, 1.5, -7.25, 1e9]) | st.floats(-1e9, 1e9)
    for joint in _TORSO_JOINTS:
        xy[2 * joint] = draw(coord)
        xy[2 * joint + 1] = draw(coord)
        conf[joint] = draw(st.sampled_from([0.0, 0.29999999999999993, 0.3, 0.30000000000000004, 1.0]))
    return Skeleton(tuple(xy), tuple(conf), (0.0, 0.0, 300.0, 300.0))


def _with_conf(valid):
    skel = static_skeleton()
    conf = list(skel.conf)
    for joint in _TORSO_JOINTS:
        conf[joint] = 0.3 if joint in valid else 0.0
    return Skeleton(skel.xy, tuple(conf), skel.bbox)


@settings(max_examples=300, deadline=None)
@given(torso_joints())
@example(_with_conf(set()))
@example(_with_conf({types.LEFT_SHOULDER}))
@example(_with_conf({types.RIGHT_HIP}))
@example(_with_conf(set(_TORSO_JOINTS)))
def test_midpoints_equal_the_per_joint_reference(skel):
    # one valid joint stands in for its midpoint; none gives None; 0.3 is valid
    want = (_mid(skel, 5, 6), _mid(skel, 11, 12))
    assert repr(skel.midpoints) == repr(want)
    assert repr(skel.center) == repr(_center(skel))
    assert repr(skel.torso) == repr(_torso(skel))
