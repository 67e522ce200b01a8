"""EMA smoothing, torso scale and the aggressor-role softmax."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import skeleton_from_keypoints, static_skeleton
from ingest_reference import smooth_track
from snatchdet.preprocess import (
    DEFAULT_ALPHA,
    InsufficientHistory,
    InvalidAlpha,
    SkeletonSmoother,
    aggressor_probabilities,
    body_center,
    choose_aggressor,
)
from snatchdet.types import VALID_CONFIDENCE, Keypoint, Skeleton, Track, torso_height


def smooth_all(skeletons, alpha=DEFAULT_ALPHA):
    """Step one ``SkeletonSmoother`` through the skeletons; the smoothed outputs."""
    smoother = SkeletonSmoother(alpha)
    return [smoother.step(skel) for skel in skeletons]


def ema_joint(xs, alpha):
    """Smoothed x of the nose over a skeleton whose nose x runs through ``xs``.

    Every other coordinate holds still, so the nose x follows the EMA recursion
    alone.
    """
    base = static_skeleton()
    skeletons = [Skeleton((float(x),) + base.xy[1:], base.conf, base.bbox) for x in xs]
    return [skel.xy[0] for skel in smooth_all(skeletons, alpha)]


class TestEmaStep:
    """The EMA update, stepped through ``SkeletonSmoother`` on one joint."""

    def test_direct_evaluation(self):
        assert ema_joint([0.0, 1.0], 0.5)[-1] == 0.5

    def test_fixed_point(self):
        for alpha in (0.1, 0.5, 0.9):
            assert ema_joint([3.25, 3.25], alpha)[-1] == pytest.approx(3.25, abs=1e-12)

    def test_alpha_near_one(self):
        assert ema_joint([0.0, 1.0], 0.999)[-1] == pytest.approx(0.999, abs=1e-12)

    @pytest.mark.parametrize("alpha", [0.0, 1.0, -0.3, 1.5])
    def test_invalid_alpha(self, alpha):
        with pytest.raises(InvalidAlpha):
            SkeletonSmoother(alpha)


def closed_form(xs, alpha):
    """Direct expansion of the recursion from the first sample."""
    t = len(xs) - 1
    value = (1 - alpha) ** t * xs[0]
    for k in range(t):
        value += alpha * (1 - alpha) ** k * xs[t - k]
    return value


@settings(max_examples=80, deadline=None)
@given(
    st.lists(st.floats(min_value=-100, max_value=100, allow_nan=False), min_size=1, max_size=100),
    st.floats(min_value=0.01, max_value=0.99),
)
def test_ema_matches_closed_form(xs, alpha):
    assert ema_joint(xs, alpha)[-1] == pytest.approx(closed_form(xs, alpha), abs=1e-9)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.floats(min_value=-50, max_value=50, allow_nan=False), min_size=2, max_size=40),
    st.floats(min_value=0.05, max_value=0.95),
    st.floats(min_value=-1000, max_value=1000, allow_nan=False),
)
def test_ema_shift_equivariance(xs, alpha, c):
    plain = ema_joint(xs, alpha)
    shifted = ema_joint([x + c for x in xs], alpha)
    for a, b in zip(plain, shifted):
        assert b == pytest.approx(a + c, abs=1e-6)


def _skeleton_conf(conf_map, center=(100.0, 100.0)):
    """Static skeleton with per-joint confidence overrides."""
    base = static_skeleton(center)
    kps = [
        Keypoint(kp.x, kp.y, conf_map.get(i, kp.confidence))
        for i, kp in enumerate(base.keypoints)
    ]
    return skeleton_from_keypoints(kps, base.bbox)


class TestSmoothTrack:
    """A whole track stepped through one ``SkeletonSmoother``."""

    def test_constant_track_is_fixed_point(self):
        skel = static_skeleton()
        out = smooth_all([skel] * 10)
        assert len(out) == 10
        for sm in out:
            for kp, ref in zip(sm.keypoints, skel.keypoints):
                assert kp.x == pytest.approx(ref.x, abs=1e-12)
                assert kp.y == pytest.approx(ref.y, abs=1e-12)

    def test_step_input_unrolls_recursion(self):
        # x: 0, 0, 1, 1 with alpha = 0.5 -> 0, 0, 0.5, 0.75 on every joint x
        offsets = [0.0, 0.0, 1.0, 1.0]
        out = smooth_all([static_skeleton((100.0 + dx, 100.0)) for dx in offsets], alpha=0.5)
        base = static_skeleton((100.0, 100.0))
        expected = [0.0, 0.0, 0.5, 0.75]
        for want, sm in zip(expected, out):
            assert sm.keypoints[0].x - base.keypoints[0].x == pytest.approx(want, abs=1e-12)

    def test_invalid_keypoint_carries_forward(self):
        moving = [static_skeleton((100.0 + 3.0 * i, 100.0)) for i in range(5)]
        kps = list(moving[3].keypoints)
        kps[9] = Keypoint(kps[9].x, kps[9].y, 0.1)  # left wrist drops out at frame 3
        moving[3] = skeleton_from_keypoints(kps, moving[3].bbox)
        out = smooth_all(moving)
        held, prev = out[3].keypoints[9], out[2].keypoints[9]
        assert (held.x, held.y) == (prev.x, prev.y)
        assert out[3].keypoints[9].confidence < VALID_CONFIDENCE
        assert out[4].keypoints[9].confidence >= VALID_CONFIDENCE


class TestTorsoHeight:
    def test_midpoint_geometry(self):
        skel = _skeleton_conf({})
        kps = list(skel.keypoints)
        kps[5] = Keypoint(0.0, 0.0, 0.9)
        kps[6] = Keypoint(2.0, 0.0, 0.9)
        kps[11] = Keypoint(0.0, 4.0, 0.9)
        kps[12] = Keypoint(2.0, 4.0, 0.9)
        assert torso_height(skeleton_from_keypoints(kps, skel.bbox)) == pytest.approx(4.0, abs=1e-12)

    def test_all_invalid_is_missing(self):
        skel = _skeleton_conf({5: 0.0, 6: 0.0, 11: 0.0, 12: 0.0})
        assert torso_height(skel) is None

    def test_single_valid_shoulder_substitutes_midpoint(self):
        skel = _skeleton_conf({})
        kps = list(skel.keypoints)
        kps[5] = Keypoint(1.0, 0.0, 0.9)
        kps[6] = Keypoint(99.0, 99.0, 0.1)  # invalid
        kps[11] = Keypoint(0.0, 4.0, 0.9)
        kps[12] = Keypoint(2.0, 4.0, 0.9)
        assert torso_height(skeleton_from_keypoints(kps, skel.bbox)) == pytest.approx(4.0, abs=1e-12)

    def test_degenerate_zero_height_clamped_by_scale_floor(self):
        skel = _skeleton_conf({})
        kps = list(skel.keypoints)
        for i in (5, 6, 11, 12):
            kps[i] = Keypoint(1.0, 1.0, 0.9)
        degenerate = skeleton_from_keypoints(kps, (0.0, 0.0, 10.0, 20.0))
        assert torso_height(degenerate) == 0.0
        assert degenerate.torso == pytest.approx(0.05 * 20.0)

    def test_body_center_mean_of_midpoints(self):
        skel = _skeleton_conf({})
        kps = list(skel.keypoints)
        kps[5] = Keypoint(0.0, 0.0, 0.9)
        kps[6] = Keypoint(2.0, 0.0, 0.9)
        kps[11] = Keypoint(0.0, 4.0, 0.9)
        kps[12] = Keypoint(2.0, 4.0, 0.9)
        assert body_center(skeleton_from_keypoints(kps, skel.bbox)) == (1.0, 2.0)


def _track_moving(track_id, speed_px, n=20, fps=10.0):
    return Track(
        track_id,
        [i / fps for i in range(n)],
        [static_skeleton((100.0 + speed_px * i, 100.0)) for i in range(n)],
    )


class TestAggressorProbabilities:
    def _smooth(self, track):
        return smooth_track(track, 0.6)

    def test_equal_translation_is_symmetric(self):
        a = self._smooth(_track_moving("1", 5.0))
        b = self._smooth(_track_moving("2", 5.0))
        probs = aggressor_probabilities([a, b], window=10.0)
        assert probs[0].p_aggressor == pytest.approx(0.5, abs=1e-9)
        assert probs[1].p_aggressor == pytest.approx(0.5, abs=1e-9)

    def test_softmax_of_unit_gap(self):
        # m = (1.0, 0.0) through the module's softmax
        from snatchdet.preprocess import softmax

        p = softmax([1.0, 0.0])
        assert p[0] == pytest.approx(math.e / (math.e + 1), abs=1e-12)
        assert p[1] == pytest.approx(1 / (math.e + 1), abs=1e-12)
        # and the real pipeline: still-vs-moving puts the mover first
        a = self._smooth(_track_moving("1", 8.0))
        b = self._smooth(_track_moving("2", 0.0))
        probs = aggressor_probabilities([a, b], window=10.0)
        assert probs[0].p_aggressor > probs[1].p_aggressor
        assert probs[0].p_aggressor + probs[1].p_aggressor == pytest.approx(1.0, abs=1e-9)

    def test_single_track_probability_one(self):
        a = self._smooth(_track_moving("1", 2.0))
        probs = aggressor_probabilities([a], window=10.0)
        assert probs[0].p_aggressor == 1.0

    def test_insufficient_history(self):
        a = self._smooth(_track_moving("1", 2.0, n=5))
        with pytest.raises(InsufficientHistory):
            aggressor_probabilities([a], window=0.01)

    def test_probabilities_sum_to_one(self, rng):
        tracks = [
            self._smooth(_track_moving(str(i), float(rng.uniform(0, 10)))) for i in range(4)
        ]
        probs = aggressor_probabilities(tracks, window=10.0)
        assert sum(p.p_aggressor for p in probs) == pytest.approx(1.0, abs=1e-9)

    def test_argmax_matches_mean_translation(self, rng):
        speeds = [2.0, 7.0, 4.0]
        tracks = [self._smooth(_track_moving(str(i + 1), s)) for i, s in enumerate(speeds)]
        probs = aggressor_probabilities(tracks, window=10.0)
        assert choose_aggressor(probs) == "2"

    def test_tie_breaks_to_lower_track_id(self):
        a = self._smooth(_track_moving("2", 5.0))
        b = self._smooth(_track_moving("1", 5.0))
        probs = aggressor_probabilities([a, b], window=10.0)
        assert choose_aggressor(probs) == "1"


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.floats(min_value=-20, max_value=20, allow_nan=False), min_size=1, max_size=6),
    st.floats(min_value=-100, max_value=100, allow_nan=False),
)
def test_softmax_sums_to_one_and_is_shift_invariant(scores, c):
    from snatchdet.preprocess import softmax

    probs = softmax(scores)
    assert sum(probs) == pytest.approx(1.0, abs=1e-9)
    shifted = softmax([s + c for s in scores])
    for p, q in zip(probs, shifted):
        assert q == pytest.approx(p, abs=1e-9)
