"""Per-skeleton geometry is computed once and stored on the skeleton; per-track
work is computed once per extraction."""

from collections import Counter

from conftest import random_skeleton, static_skeleton, with_bystander
from snatchdet import features, types
from snatchdet.config import PipelineConfig
from snatchdet.features import extract_segment, full_schema, pair_segment
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

    params = cfg.feature_params()
    pair = select_pair(windows, params.min_segment_frames)
    assert pair is not None and {pair[0].track_id, pair[1].track_id} == {"1", "2"}
    agg, vic = order_roles(pair[0], pair[1], cfg.window_s)
    segment = pair_segment(agg, vic, fps=cfg.fps)
    extract_segment(segment, full_schema(), params)
    extract_segment(segment.swapped(), full_schema(), params)

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
    params = cfg.feature_params()
    extract_segment(segment, full_schema(), params)
    # A's velocities feed both hand_motion and relative_motion
    assert calls == {agg.track_id: 1, vic.track_id: 1}
    calls.clear()
    extract_segment(segment, full_schema().select(["handTowardCos_mean"]), params)
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
    fresh = Skeleton.from_keypoints(skel.keypoints, skel.bbox)
    text = repr(skel)
    _ = (skel.center, skel.torso, skel.facing, skel.elbow_angles)
    assert "center" in vars(skel) and "center" not in vars(fresh)
    assert skel == fresh
    assert hash(skel) == hash(fresh)
    assert repr(skel) == repr(fresh) == text
