"""EMA smoothing, torso scale and the role ordering of offline extraction."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import skeleton_from_keypoints, static_skeleton
from ingest_reference import smooth_track
from snatchdet.config import BadConfig, PipelineConfig
from snatchdet.pipeline import order_roles
from snatchdet.preprocess import SkeletonSmoother, body_center
from snatchdet.types import VALID_CONFIDENCE, Keypoint, Skeleton, Track, torso_height


def smooth_all(skeletons, alpha=PipelineConfig().alpha):
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
        # the smoother is handed an alpha the config has checked
        with pytest.raises(BadConfig, match=r"^alpha must be in \(0, 1\)"):
            PipelineConfig(alpha=alpha)


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


def _track(track_id, xs, times):
    """A smoothed track whose body center runs through ``xs`` at ``times``."""
    raw = Track(track_id, list(times), [static_skeleton((100.0 + x, 100.0)) for x in xs])
    return smooth_track(raw, 0.6)


def _track_moving(track_id, speed_px, n=20, fps=10.0):
    return _track(track_id, [speed_px * i for i in range(n)], [i / fps for i in range(n)])


def ids(pair):
    return tuple(track.track_id for track in pair)


class TestOrderRoles:
    """``pipeline.order_roles``: the track with the higher mean center speed in the span is A."""

    def test_moving_track_comes_before_a_still_one(self):
        still, mover = _track_moving("1", 0.0), _track_moving("2", 8.0)
        assert ids(order_roles(still, mover, 10.0)) == ("2", "1")
        assert ids(order_roles(mover, still, 10.0)) == ("2", "1")

    def test_faster_track_comes_first(self):
        slow, fast = _track_moving("3", 4.0), _track_moving("4", 7.0)
        assert ids(order_roles(slow, fast, 10.0)) == ("4", "3")
        assert ids(order_roles(fast, slow, 10.0)) == ("4", "3")

    @pytest.mark.parametrize("low, high", [("1", "2"), ("9", "10"), ("3", "3.1")])
    def test_tie_puts_the_lower_id_first_in_either_argument_order(self, low, high):
        a, b = _track_moving(low, 5.0), _track_moving(high, 5.0)
        assert ids(order_roles(a, b, 10.0)) == (low, high)
        assert ids(order_roles(b, a, 10.0)) == (low, high)

    def test_span_is_trimmed_by_a_timestamp_gap(self):
        # "1" is the faster before the gap, "2" after it; the 2 s span ends at
        # 101 s and holds only the samples after the gap
        times = [i / 10.0 for i in range(20)] + [100.0 + i / 10.0 for i in range(11)]
        fast_then_still = _track("1", [20.0 * min(i, 15) for i in range(31)], times)
        still_then_slow = _track("2", [0.0] * 20 + [4.0 * i for i in range(11)], times)
        assert ids(order_roles(fast_then_still, still_then_slow, 2.0)) == ("2", "1")
        # over the whole track "1" moved more
        assert ids(order_roles(fast_then_still, still_then_slow, 200.0)) == ("1", "2")

    def test_no_two_samples_in_the_span_is_a_tie(self):
        # the last timestamp jumps: each 2 s span holds one sample, no speed
        times = [i / 10.0 for i in range(19)] + [100.0]
        still = _track("1", [0.0] * 20, times)
        mover = _track("2", [8.0 * i for i in range(20)], times)
        assert ids(order_roles(mover, still, 2.0)) == ("1", "2")
        assert ids(order_roles(still, mover, 2.0)) == ("1", "2")
