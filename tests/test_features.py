"""Per-frame feature ops, aggregation, and the straight-line oracle."""

import csv
import gc
import math
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import by_name, random_segment, random_track, skeleton_from_keypoints, static_skeleton
from feature_reference import _ref_stat, _sentinel, reference_segment_features
from ingest_reference import smooth_track
from snatchdet import features
from snatchdet.features import (
    MIN_SEGMENT_FRAMES,
    STATS,
    FeatureSchema,
    SegmentFamilies,
    SegmentTooShort,
    aggregate,
    arm_posture,
    bbox_area_rate,
    canonical_name,
    center_kinematics,
    elbow_flexion,
    extract_segment,
    facing,
    finite_rows,
    full_schema,
    hand_motion,
    interaction_distance,
    iou,
    iou_events,
    min_jerk,
    pair_segment,
    reaching,
    read_feature_csv,
    relative_motion,
    wrist_velocities,
    write_feature_csv,
    _backward_diff,
    _first_argmax,
    _longest_run,
    _pct,
)
from snatchdet.config import PipelineConfig
from snatchdet.pipeline import extract_windows, order_roles, pair_key_str
from snatchdet.synth import ScenarioSpec, generate
from snatchdet.types import FrameRecord, Keypoint, MalformedRecord, Skeleton, Track, validate_stream
from track_reference import reference_pairs


def build_skeleton(joints: dict, bbox=None, default_conf=0.9, center=(100.0, 100.0)):
    """Skeleton from explicit joint positions; unspecified joints sit at a
    plausible static pose around ``center``."""
    base = static_skeleton(center)
    kps = list(base.keypoints)
    for idx, value in joints.items():
        if value is None:
            kps[idx] = Keypoint(kps[idx].x, kps[idx].y, 0.0)
        else:
            x, y = value
            kps[idx] = Keypoint(x, y, default_conf)
    if bbox is None:
        xs = [kp.x for kp in kps]
        ys = [kp.y for kp in kps]
        bbox = (min(xs) - 5.0, min(ys) - 5.0, max(xs) + 5.0, max(ys) + 5.0)
    return skeleton_from_keypoints(kps, bbox)


def presmoothed_track(skels, fps=30.0, track_id="1"):
    """Track whose smoothed sequence is given directly (identity smoothing)."""
    return Track(track_id, [i / fps for i in range(len(skels))], list(skels))


def make_pair(skels_a, skels_b, fps=30.0):
    return pair_segment(
        presmoothed_track(skels_a, fps, "1"), presmoothed_track(skels_b, fps, "2"), fps=fps
    )


def present(values):
    return [v for v in values if v is not None]


def hands_of(track):
    """``hand_motion`` fed with the track's own wrist velocities."""
    return hand_motion(track, wrist_velocities(track))


def derivative(track, series):
    """The backward difference that the derived families take of a series."""
    return _backward_diff(track.timestamps, series)


def reaching_of(pair):
    """``reaching`` fed with the segment's own hand speeds and distances."""
    hand_speed = hands_of(pair.aggressor)["handVelocity"]
    distance = interaction_distance(pair)["distance"]
    return reaching(pair, hand_speed, distance)


def base_and_stat(name):
    """A schema name's base and statistic (None for a scalar), read from its spelling."""
    base = name[2:] if name.startswith(("A_", "B_")) else name
    head, _, stat = base.rpartition("_")
    return (head, stat) if stat in STATS else (base, None)


def range_kind(name):
    """percentage | iou | cosine | distance | other: the range a feature keeps."""
    base, _ = base_and_stat(name)
    if "Pct" in base:
        return "percentage"
    if base in {"iou", "iouPeak", "iouDrop0p2s"}:
        return "iou"
    if base in {"handTowardCos", "AfacingToB", "BfacingToA"}:
        return "cosine"
    if base in {"distance", "handToTorso", "handToHip", "postContactSepMean"}:
        return "distance"
    return "other"


class AllMissing(SegmentFamilies):
    """A family table whose every family returns each base missing."""

    def __init__(self, pair, names):
        super().__init__(pair)
        self.missing = {}
        for name in names:
            base, stat = base_and_stat(name)
            self.missing[base] = None if stat is None else [None, None]

    def get(self, key, pair):
        return self.missing


class TestCenterKinematics:
    def test_stationary_track(self):
        track = presmoothed_track([static_skeleton()] * 8)
        velocity = center_kinematics(track)["velocity"]
        assert all(v == 0.0 for v in present(velocity))
        assert all(a == 0.0 for a in present(derivative(track, velocity)))

    def test_one_torso_height_per_frame(self):
        # torso height of the template skeleton: shoulder mid (0,-50) to hip mid (0,50)
        skels = [static_skeleton((100.0 + 100.0 * i, 100.0)) for i in range(5)]
        velocity = center_kinematics(presmoothed_track(skels, fps=30.0))["velocity"]
        for v in present(velocity):
            assert v == pytest.approx(30.0, rel=1e-9)

    def test_two_samples_has_velocity_but_no_acceleration(self):
        track = presmoothed_track([static_skeleton(), static_skeleton((110.0, 100.0))])
        velocity = center_kinematics(track)["velocity"]
        assert velocity[0] is None and velocity[1] is not None
        assert present(derivative(track, velocity)) == []


class TestHandMotion:
    def test_stationary_wrists(self):
        track = presmoothed_track([static_skeleton()] * 6)
        result = hands_of(track)
        assert all(v == 0.0 for v in present(result["handVelocity"]))
        assert result["fastHandPct"] == 0.0
        acceleration = derivative(track, result["handVelocity"])
        assert min_jerk(track.timestamps, acceleration)["handJerkMin"] == 0.0

    def test_fast_pct_and_time_to_peak(self):
        # wrist speeds over frames 1..4: 0, 0, 5, 0 torso-heights/s
        base = static_skeleton()
        wrist = (base.keypoints[10].x, base.keypoints[10].y)
        th = 100.0  # template torso height
        fps = 30.0
        offsets = [0.0, 0.0, 0.0, 5.0 * th / fps, 5.0 * th / fps]
        skels = [
            build_skeleton({10: (wrist[0] + dx, wrist[1])}) for dx in offsets
        ]
        result = hands_of(presmoothed_track(skels, fps))
        values = result["handVelocity"]
        assert values[0] is None
        assert [round(v, 9) for v in values[1:]] == [0.0, 0.0, 5.0, 0.0]
        assert result["fastHandPct"] == pytest.approx(25.0)
        assert result["timeToPeakHandVel"] == 3.0  # frames from segment start

    def test_spec_series_oracle(self):
        # direct count/argmax oracle over a bare speed series
        speeds = [0.0, 0.0, 5.0, 0.0]
        assert _first_argmax(speeds) == 2
        assert _pct([s > 1.5 for s in speeds]) == pytest.approx(25.0)

    def test_invalid_left_wrist_uses_right_only(self):
        th = 100.0
        skels = []
        for i in range(4):
            skels.append(
                build_skeleton({9: None, 10: (128.0 + 2.0 * i * th / 30.0, 102.0)})
            )
        result = hands_of(presmoothed_track(skels, 30.0))
        for v in present(result["handVelocity"]):
            assert v == pytest.approx(2.0, rel=1e-9)


class TestArmPosture:
    def test_collinear_elbow_angle(self):
        skel = build_skeleton({5: (0.0, 0.0), 7: (1.0, 0.0), 9: (2.0, 0.0)})
        elbows = elbow_flexion(presmoothed_track([skel] * 2))
        assert elbows["elbowAngleL"][0] == pytest.approx(180.0, abs=1e-9)

    def test_perpendicular_elbow_angle(self):
        skel = build_skeleton({5: (0.0, 0.0), 7: (1.0, 0.0), 9: (1.0, 1.0)})
        elbows = elbow_flexion(presmoothed_track([skel] * 2))
        assert elbows["elbowAngleL"][0] == pytest.approx(90.0, abs=1e-9)

    def test_retraction_after_peak(self):
        # extension series 0.2, 0.9, 0.4 at 5 fps: 0.2 s = 1 frame
        th = 100.0
        shoulder = (0.0, 0.0)
        skels = []
        for ext in (0.2, 0.9, 0.4):
            skels.append(
                build_skeleton(
                    {
                        5: shoulder,
                        6: (10.0, 0.0),
                        9: (shoulder[0] + ext * th, shoulder[1]),
                        10: (5.0, 10.0),
                        11: (0.0, th),
                        12: (10.0, th),
                    },
                    bbox=(0.0, 0.0, 120.0, 110.0),
                )
            )
        arms = arm_posture(presmoothed_track(skels, fps=5.0), fps=5.0)
        assert arms["timeToPeakArmExt"] == 1.0
        assert arms["armRetraction0p2s"] == pytest.approx(0.5, rel=1e-9)

    def test_retraction_missing_when_peak_near_end(self):
        th = 100.0
        skels = []
        for ext in (0.2, 0.4, 0.9):
            skels.append(
                build_skeleton(
                    {
                        5: (0.0, 0.0),
                        6: (10.0, 0.0),
                        9: (ext * th, 0.0),
                        10: (5.0, 10.0),
                        11: (0.0, th),
                        12: (10.0, th),
                    },
                    bbox=(0.0, 0.0, 120.0, 110.0),
                )
            )
        arms = arm_posture(presmoothed_track(skels, fps=5.0), fps=5.0)
        assert arms["armRetraction0p2s"] is None


class TestBboxAreaRate:
    def test_constant_box(self):
        track = presmoothed_track([static_skeleton()] * 5)
        series = bbox_area_rate(track)["bboxAreaRate"]
        assert all(v == 0.0 for v in present(series))

    def test_area_doubling_in_one_frame(self):
        s1 = skeleton_from_keypoints(static_skeleton().keypoints, (0.0, 0.0, 10.0, 10.0))
        s2 = skeleton_from_keypoints(static_skeleton().keypoints, (0.0, 0.0, 20.0, 10.0))
        series = bbox_area_rate(presmoothed_track([s1, s2], fps=30.0))["bboxAreaRate"]
        assert series[1] == pytest.approx(30.0, rel=1e-9)

    def test_zero_area_previous_box(self):
        s1 = skeleton_from_keypoints(static_skeleton().keypoints, (5.0, 5.0, 5.0, 5.0))
        s2 = skeleton_from_keypoints(static_skeleton().keypoints, (0.0, 0.0, 20.0, 10.0))
        series = bbox_area_rate(presmoothed_track([s1, s2]))["bboxAreaRate"]
        assert series == [None, None]


def raster_iou(box_a, box_b, cells=400):
    """Rasterized-area counting oracle on a fine grid."""
    x_lo = min(box_a[0], box_b[0])
    y_lo = min(box_a[1], box_b[1])
    x_hi = max(box_a[2], box_b[2])
    y_hi = max(box_a[3], box_b[3])
    if x_hi == x_lo or y_hi == y_lo:
        return 0.0
    xs = np.linspace(x_lo, x_hi, cells, endpoint=False) + (x_hi - x_lo) / (2 * cells)
    ys = np.linspace(y_lo, y_hi, cells, endpoint=False) + (y_hi - y_lo) / (2 * cells)
    gx, gy = np.meshgrid(xs, ys)
    in_a = (gx >= box_a[0]) & (gx <= box_a[2]) & (gy >= box_a[1]) & (gy <= box_a[3])
    in_b = (gx >= box_b[0]) & (gx <= box_b[2]) & (gy >= box_b[1]) & (gy <= box_b[3])
    union = np.count_nonzero(in_a | in_b)
    if union == 0:
        return 0.0
    return np.count_nonzero(in_a & in_b) / union


class TestIou:
    def test_identical_boxes(self):
        assert iou((0, 0, 2, 2), (0, 0, 2, 2)) == 1.0

    def test_disjoint_boxes(self):
        assert iou((0, 0, 1, 1), (5, 5, 6, 6)) == 0.0

    def test_known_overlap(self):
        assert iou((0, 0, 2, 2), (1, 1, 3, 3)) == pytest.approx(1 / 7, abs=1e-12)
        assert iou((0, 0, 2, 2), (1, 1, 3, 3)) == pytest.approx(
            raster_iou((0, 0, 2, 2), (1, 1, 3, 3)), abs=2e-3
        )

    def test_zero_union(self):
        assert iou((1, 1, 1, 1), (1, 1, 1, 1)) == 0.0

    def test_against_raster_oracle(self, rng):
        for _ in range(50):
            a = np.sort(rng.uniform(0, 10, size=4))
            b = np.sort(rng.uniform(0, 10, size=4))
            box_a = (a[0], a[1], a[2], a[3])
            box_b = (b[0], b[1], b[2], b[3])
            assert iou(box_a, box_b) == pytest.approx(raster_iou(box_a, box_b), abs=2e-3)


class TestInteractionDistance:
    def test_stationary_rate_is_zero(self):
        pair = make_pair([static_skeleton((100, 100))] * 6, [static_skeleton((400, 100))] * 6)
        rate = derivative(pair.aggressor, interaction_distance(pair)["distance"])
        assert all(v == 0.0 for v in present(rate))

    def test_iou_drop_after_peak(self):
        # ious by construction: 0, 1, 1/3 at 5 fps -> drop = 1 - 1/3
        kp = static_skeleton().keypoints
        a_boxes = [(0.0, 0.0, 2.0, 2.0)] * 3
        b_boxes = [(10.0, 10.0, 12.0, 12.0), (0.0, 0.0, 2.0, 2.0), (1.0, 0.0, 3.0, 2.0)]
        skels_a = [skeleton_from_keypoints(kp, b) for b in a_boxes]
        skels_b = [skeleton_from_keypoints(kp, b) for b in b_boxes]
        pair = make_pair(skels_a, skels_b, fps=5.0)
        ious = interaction_distance(pair)["iou"]
        assert ious == [0.0, 1.0, pytest.approx(1 / 3)]
        events = iou_events(ious, pair.fps)
        assert events["iouPeak"] == 1.0
        assert events["iouDrop0p2s"] == pytest.approx(1.0 - 1 / 3, rel=1e-9)

    def test_nonoverlapping_peak_zero(self):
        pair = make_pair([static_skeleton((0, 0))] * 4, [static_skeleton((5000, 0))] * 4)
        assert iou_events(interaction_distance(pair)["iou"], pair.fps)["iouPeak"] == 0.0


class TestRelativeMotion:
    def _reaching_pair(self, direction):
        """A's right wrist steps along ``direction``; B stands to the right."""
        base = static_skeleton((100.0, 100.0))
        wrist0 = (base.keypoints[10].x, base.keypoints[10].y)
        skels_a = [
            build_skeleton({10: wrist0}),
            build_skeleton({10: (wrist0[0] + direction[0], wrist0[1] + direction[1])}),
        ]
        skels_b = [static_skeleton((400.0, 100.0))] * 2
        return make_pair(skels_a, skels_b)

    def test_hand_toward_victim_is_one(self):
        base = static_skeleton((100.0, 100.0))
        wrist0 = (base.keypoints[10].x, base.keypoints[10].y)
        target = (400.0, 100.0)  # B's center
        ux, uy = target[0] - wrist0[0], target[1] - wrist0[1]
        pair = self._reaching_pair((ux * 0.01, uy * 0.01))
        rel = relative_motion(pair, wrist_velocities(pair.aggressor))
        assert rel["handTowardCos"][1] == pytest.approx(1.0, abs=1e-9)

    def test_perpendicular_hand_motion_is_zero(self):
        # Thales construction: with the new wrist on the circle whose
        # diameter is wrist0 -> target, the step is orthogonal to the
        # remaining target vector.
        base = static_skeleton((100.0, 100.0))
        wrist0 = (base.keypoints[10].x, base.keypoints[10].y)
        target = (400.0, 100.0)
        mx, my = (wrist0[0] + target[0]) / 2.0, (wrist0[1] + target[1]) / 2.0
        ux, uy = target[0] - wrist0[0], target[1] - wrist0[1]
        r = math.hypot(ux, uy) / 2.0
        px, py = -uy / math.hypot(ux, uy), ux / math.hypot(ux, uy)
        wrist1 = (mx + r * px, my + r * py)
        pair = self._reaching_pair((wrist1[0] - wrist0[0], wrist1[1] - wrist0[1]))
        rel = relative_motion(pair, wrist_velocities(pair.aggressor))
        assert rel["handTowardCos"][1] == pytest.approx(0.0, abs=1e-9)

    def test_pct_excludes_missing(self):
        assert _pct([True, False, True, None]) == pytest.approx(100.0 * 2 / 3)
        cos_series = [0.9, 0.5, 0.8, None]
        flags = [None if c is None else c > 0.7 for c in cos_series]
        assert _pct(flags) == pytest.approx(66.66666666666667)


class TestReaching:
    def test_longest_run(self):
        flags = [True, True, False, True, True, True]
        assert _longest_run(flags) == 3.0
        assert _longest_run([True, None, True]) == 1.0

    def test_never_close(self):
        pair = make_pair(
            [static_skeleton((100, 100))] * 6, [static_skeleton((500, 100))] * 6
        )
        result = reaching_of(pair)
        assert result["closeHandPct"] == 0.0
        assert result["fastAndClosePct"] == 0.0

    def test_post_contact_window_mean(self):
        # handToTorso dips at frame 1; 0.4 s at 5 fps = 2 frames -> frames 1..3
        th = 100.0
        b_center = (400.0, 100.0)
        dips = [1.0, 0.2, 0.9, 1.1, 1.2]
        skels_a = [
            build_skeleton({10: (b_center[0] - d * th, b_center[1])}) for d in dips
        ]
        skels_b = [static_skeleton(b_center)] * 5
        pair = make_pair(skels_a, skels_b, fps=5.0)
        result = reaching_of(pair)
        distance = interaction_distance(pair)["distance"]
        expected = sum(distance[1:4]) / 3
        assert result["postContactSepMean"] == pytest.approx(expected, rel=1e-12)


class TestFacing:
    def test_sign_conventions(self):
        # A at left faces B (+x); B at right faces A (-x).
        skel_a = build_skeleton(
            {0: (110.0, 28.0), 3: (95.0, 26.0), 4: (95.0, 30.0)}, center=(100.0, 100.0)
        )
        skel_b = build_skeleton(
            {0: (390.0, 28.0), 3: (405.0, 26.0), 4: (405.0, 30.0)}, center=(400.0, 100.0)
        )
        pair = make_pair([skel_a] * 3, [skel_b] * 3)
        result = facing(pair)
        assert result["AfacingToB"][0] == pytest.approx(1.0, abs=1e-9)
        assert result["BfacingToA"][0] == pytest.approx(-1.0, abs=1e-9)

    def test_constant_facing_zero_rate(self):
        pair = make_pair([static_skeleton()] * 5, [static_skeleton((400, 100))] * 5)
        result = facing(pair)
        assert all(v == 0.0 for v in present(result["facingRate"]))

    def test_facing_direction_from_ears_and_nose(self):
        skel = static_skeleton()
        direction = skel.facing
        assert direction is not None
        # template nose sits forward of the ear midpoint along -y (up): mostly -y
        assert abs(direction[0]) < 0.5 and direction[1] < 0.0


# series values drawn mostly from a few that tie and from the non-finite ones
_SERIES = st.lists(
    st.one_of(
        st.none(),
        st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, math.inf, -math.inf, math.nan]),
        st.floats(allow_nan=True, allow_infinity=True),
    ),
    min_size=1,
    max_size=12,
)
_STAT_SUBSETS = [
    tuple(stat for i, stat in enumerate(STATS) if mask >> i & 1)
    for mask in range(1, 2 ** len(STATS))
]


def _bits(value):
    return None if value is None else struct.pack("<d", value)


class TestAggregate:
    def test_basic_stats(self):
        agg = aggregate([1.0, 2.0, 3.0, 4.0, 100.0])
        assert agg["mean"] == pytest.approx(22.0)
        assert agg["max"] == 100.0
        assert agg["p95"] == 100.0  # nearest rank: ceil(0.95 * 5) = 5
        assert agg["min"] == 1.0
        assert agg["median"] == 3.0

    def test_singleton_median(self):
        assert aggregate([5.0])["median"] == 5.0

    def test_missing_excluded(self):
        assert aggregate([None, 4.0, None])["mean"] == 4.0

    def test_all_missing_yields_sentinel(self):
        # None for every statistic; extract_segment substitutes the feature's sentinel
        assert aggregate([None, None]) == dict.fromkeys(STATS)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=1, max_size=50))
    def test_stat_ordering(self, values):
        agg = aggregate(values)
        assert agg["max"] >= agg["p95"] >= agg["median"] >= agg["min"]

    @settings(max_examples=400, deadline=None)
    @given(_SERIES, st.sampled_from(_STAT_SUBSETS))
    @example([0.0, -0.0], ("max", "median"))  # max() keeps the first of equal maxima
    @example([-0.0, 0.0, -0.0], ("min", "max", "p95"))
    @example([1.0, math.nan, -1.0], STATS)
    @example([math.inf, None, -math.inf, 2.0], STATS)
    @example([math.nan, math.inf], ("median",))
    @example([1.7e308, 1.7e308, -1.0], STATS)  # a sum of finite values that overflows
    @example([1e308, 1.7e308], ("median",))
    def test_equals_reference_bit_for_bit(self, series, stats):
        """Every non-empty subset of STATS, over series with gaps, ties of 0.0
        and -0.0, infinities, NaN and sums that overflow, against the oracle's
        own statistics: NaN and the infinities are missing in both."""
        got = aggregate(series, stats)
        assert list(got) == list(stats)
        for stat in stats:
            want = _ref_stat(series, stat)
            assert _bits(got[stat]) == _bits(want), (stat, got[stat], want)
            assert want is None or math.isfinite(want)


class TestSchema:
    def test_full_schema_shape(self):
        schema = full_schema()
        assert len(schema.names) == len(set(schema.names)) == 143
        for name in (
            "distance_p95",
            "handToHip_max",
            "handToTorso_mean",
            "closeHandPct",
            "A_handJerkMin",
            "B_velocity_mean",
        ):
            assert name in schema.names
        # aggressor-only features stay off the victim side
        assert "B_handJerkMin" not in schema.names
        assert "B_armRetraction0p2s" not in schema.names

    def test_aliases(self):
        assert canonical_name("dist_p95") == "distance_p95"
        assert canonical_name("distancet_max") == "distance_max"
        assert canonical_name("AB_handTowardGt07Pct") == "handTowardGt07Pct"
        assert canonical_name("handToTorsoMin") == "handToTorso_min"

    def test_select_preserves_order(self):
        schema = full_schema()
        subset = schema.select(["closeHandPct", "distance_p95", "A_velocity_mean"])
        assert list(subset.names) == [
            n for n in schema.names if n in {"closeHandPct", "distance_p95", "A_velocity_mean"}
        ]


class TestExtractSegment:
    def test_sentinels_match_the_reference(self, rng):
        # every series all-missing and every scalar missing: each name gets its sentinel
        schema = full_schema()
        seg = random_segment(rng, 8)
        row = extract_segment(seg, schema, AllMissing(seg, schema.names))
        assert len(row) == 143
        for name, value in zip(schema.names, row):
            assert value == _sentinel(name), name

    def test_stationary_far_apart(self):
        pair = make_pair(
            [static_skeleton((100, 100))] * 10, [static_skeleton((900, 100))] * 10
        )
        values = by_name(full_schema(), extract_segment(pair))
        assert values["A_velocity_mean"] == 0.0
        assert values["A_fastHandPct"] == 0.0
        assert values["closeHandPct"] == 0.0
        assert values["iou_max"] == 0.0
        assert values["distance_max"] == pytest.approx(values["distance_min"], rel=1e-9)

    def test_schema_completeness(self, rng):
        schema = full_schema()
        seg = random_segment(rng, 12)
        row = extract_segment(seg, schema)
        assert len(row) == len(schema)
        assert all(type(v) is float and math.isfinite(v) for v in row)

    def test_table_style_names_present(self, rng):
        schema = full_schema()
        table_names = [
            "dist_p95", "handToHip_max", "handToTorso_mean", "handToTorso_p95",
            "handToTorso_max", "distancet_max", "handToTorso_median",
            "handToHip_p95", "distance_mean", "closeHandPct",
        ]
        reduced = schema.select(table_names)
        assert len(reduced.names) == 10
        seg = random_segment(rng, 10)
        assert len(extract_segment(seg, reduced)) == 10

    def test_too_short_segment(self, rng):
        # the shortest segment extracted gives every full-schema value finite
        schema = full_schema()
        row = extract_segment(random_segment(rng, MIN_SEGMENT_FRAMES), schema)
        assert len(row) == len(schema)
        assert all(math.isfinite(v) for v in row)
        with pytest.raises(SegmentTooShort):
            extract_segment(random_segment(rng, MIN_SEGMENT_FRAMES - 1))

    def test_no_valid_aggressor_wrist_gives_reaching_sentinels(self):
        no_wrists = {9: None, 10: None}
        skels_a = [build_skeleton(no_wrists, center=(100.0 + i, 100.0)) for i in range(8)]
        pair = make_pair(skels_a, [static_skeleton((300.0, 100.0))] * 8)
        values = by_name(full_schema(), extract_segment(pair))
        want = reference_segment_features(pair)
        for stat in ("mean", "median", "min", "max", "p95"):
            assert values[f"handToTorso_{stat}"] == values[f"handToHip_{stat}"] == 10.0
        assert values["postContactSepMean"] == 10.0
        for name in ("closeHandPct", "fastAndClosePct", "fastAndCloseLongest"):
            assert values[name] == 0.0
        assert values == {name: want[name] for name in values}

    def test_base_name_missing_from_its_family_is_an_error(self, rng, monkeypatch):
        inner = facing

        def without_rate(pair):
            out = inner(pair)
            del out["facingRate"]
            return out

        monkeypatch.setattr("snatchdet.features.facing", without_rate)
        seg = random_segment(rng, 12)
        extract_segment(seg, full_schema().select(["AfacingToB_mean"]))
        with pytest.raises(KeyError, match="facingRate"):
            extract_segment(seg, full_schema().select(["facingRate_max"]))

    def test_extraction_leaves_no_reference_cycles(self, rng):
        # the per-frame series of every window must be freed at once, not by the collector
        seg = random_segment(rng, 12)
        gc.collect()
        gc.disable()
        try:
            extract_segment(seg, full_schema())
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_range_invariants(self, rng):
        schema = full_schema()
        for _ in range(10):
            seg = random_segment(rng, int(rng.integers(5, 18)))
            for name, value in zip(schema.names, extract_segment(seg, schema)):
                kind = range_kind(name)
                if kind == "percentage":
                    assert 0.0 <= value <= 100.0, name
                elif kind == "cosine":
                    assert -1.0 <= value <= 1.0, name
                elif kind == "iou":
                    assert -1.0 <= value <= 1.0, name
                elif kind == "distance":
                    assert value >= 0.0, name


def oracle_segments():
    """The 200 segments of the acceptance feature oracle, in its order."""
    rng = np.random.default_rng(202)
    for _ in range(200):
        n = int(rng.integers(5, 21))
        yield random_segment(rng, n, dropout=float(rng.uniform(0.0, 0.25)))


class TestSchemaPruning:
    MIXED = (
        "B_velocity_mean", "B_handVelocity_p95", "A_armExtension_max", "A_bboxAreaRate_max",
        "distance_min", "handTowardGt07Pct", "closeHandPct", "fastAndClosePct",
        "postContactSepMean", "facingRate_max",
    )

    def test_selected_schema_equals_restricted_full_extraction(self):
        full = full_schema()
        mixed = full.select(self.MIXED)
        assert len(mixed) == 10
        schemas = [full.select([name]) for name in full.names] + [mixed]
        for seg in oracle_segments():
            got = [by_name(schema, extract_segment(seg, schema)) for schema in schemas]
            want = by_name(full, extract_segment(seg, full))
            for schema, values in zip(schemas, got):
                assert values == {name: want[name] for name in schema.names}, schema.names

    def test_unread_families_are_not_computed(self, rng, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("family computed although no schema name reads it")

        for name in (
            "center_kinematics", "arm_posture", "elbow_flexion", "bbox_area_rate",
            "relative_motion", "facing",
        ):
            monkeypatch.setattr(f"snatchdet.features.{name}", forbidden)
        schema = full_schema().select(["distance_min", "closeHandPct", "A_handJerkMin"])
        assert len(extract_segment(random_segment(rng, 12), schema)) == 3

    # the ten columns `rank` puts first on the scripts/output_digest.py corpus,
    # and ten that read distances and reaching, like perfbench's top-10 model
    TOP10 = (
        "A_velocity_p95", "A_handVelocity_max", "A_armExtension_p95", "A_velocity_mean",
        "A_armRetraction0p2s", "A_bboxAreaRate_min", "A_handAcceleration_mean",
        "A_armExtension_mean", "A_handVelocity_p95", "A_armExtension_max",
    )
    REACH10 = (
        "distance_min", "A_armExtension_p95", "closeHandPct", "handToTorso_min",
        "handToHip_min", "iou_p95", "fastAndClosePct", "A_armExtension_max",
        "postContactSepMean", "A_bboxAreaRate_max",
    )

    @pytest.mark.parametrize(
        "names, diffs, sorts",
        [
            # per ordering: the hand acceleration of A (no center acceleration,
            # no jerk); a sort for each of A's velocity, arm extension and hand
            # speed, the series a p95 is read of
            (TOP10, 2, 6),
            # no backward difference; A's arm extension per ordering, and the
            # pair's IoU once for both
            (REACH10, 0, 3),
        ],
        ids=["top10", "reach10"],
    )
    def test_unread_differences_and_sorts_are_not_computed(
        self, rng, monkeypatch, names, diffs, sorts
    ):
        calls = {"diff": 0, "sort": 0}
        diff = features._backward_diff

        def counting_diff(*args):
            calls["diff"] += 1
            return diff(*args)

        def counting_sorted(values):
            calls["sort"] += 1
            return sorted(values)

        schema = full_schema().select(names)
        seg = random_segment(rng, 20)
        want = [by_name(full_schema(), extract_segment(p)) for p in (seg, seg.swapped())]
        monkeypatch.setattr(features, "_backward_diff", counting_diff)
        monkeypatch.setattr(features, "sorted", counting_sorted, raising=False)
        table = SegmentFamilies(seg)
        got = [by_name(schema, extract_segment(p, schema, table)) for p in (seg, seg.swapped())]
        assert calls == {"diff": diffs, "sort": sorts}
        assert got == [{n: values[n] for n in schema.names} for values in want]


class TestOracleEquivalence:
    def test_matches_straight_line_reference_exactly(self, rng):
        schema = full_schema()
        for _ in range(40):
            n = int(rng.integers(5, 21))
            seg = random_segment(rng, n, dropout=float(rng.uniform(0, 0.25)))
            got = by_name(schema, extract_segment(seg, schema))
            want = reference_segment_features(seg)
            for name in schema.names:
                assert got[name] == want[name], name


def _scaled_track(track, k):
    scaled = []
    for skel in track.skeletons:
        kps = tuple(Keypoint(kp.x * k, kp.y * k, kp.confidence) for kp in skel.keypoints)
        bbox = tuple(v * k for v in skel.bbox)
        scaled.append(skeleton_from_keypoints(kps, bbox))
    return Track(track.track_id, list(track.timestamps), scaled)


def _shifted_track(track, cx, cy):
    shifted = []
    for skel in track.skeletons:
        kps = tuple(Keypoint(kp.x + cx, kp.y + cy, kp.confidence) for kp in skel.keypoints)
        bbox = (skel.bbox[0] + cx, skel.bbox[1] + cy, skel.bbox[2] + cx, skel.bbox[3] + cy)
        shifted.append(skeleton_from_keypoints(kps, bbox))
    return Track(track.track_id, list(track.timestamps), shifted)


class TestInvariances:
    def _extract_from_raw(self, raw_a, raw_b, fps=10.0):
        alpha = 0.6
        pair = pair_segment(smooth_track(raw_a, alpha), smooth_track(raw_b, alpha), fps=fps)
        return by_name(full_schema(), extract_segment(pair))

    def test_scale_invariance(self, rng):
        raw_a = random_track(rng, "1", 12, start=(200.0, 220.0))
        raw_b = random_track(rng, "2", 12, start=(330.0, 210.0))
        baseline = self._extract_from_raw(raw_a, raw_b)
        for k in (0.25, 3.0, 17.5):
            scaled = self._extract_from_raw(_scaled_track(raw_a, k), _scaled_track(raw_b, k))
            for name, value in baseline.items():
                assert scaled[name] == pytest.approx(value, abs=1e-6), (name, k)

    def test_translation_invariance(self, rng):
        raw_a = random_track(rng, "1", 12, start=(200.0, 220.0))
        raw_b = random_track(rng, "2", 12, start=(330.0, 210.0))
        baseline = self._extract_from_raw(raw_a, raw_b)
        for cx, cy in ((500.0, -250.0), (-1000.0, 4000.0)):
            shifted = self._extract_from_raw(
                _shifted_track(raw_a, cx, cy), _shifted_track(raw_b, cx, cy)
            )
            for name, value in baseline.items():
                assert shifted[name] == pytest.approx(value, abs=1e-9), (name, cx)

    def test_distance_rate_time_reversal(self, rng):
        seg = random_segment(rng, 14, dropout=0.0)
        forward = derivative(seg.aggressor, interaction_distance(seg)["distance"])
        t_max = seg.aggressor.timestamps[-1]

        def reverse(track):
            times = track.timestamps
            return Track(
                track.track_id,
                [t_max - times[len(times) - 1 - i] for i in range(len(times))],
                list(reversed(track.skeletons)),
            )

        rev_pair = pair_segment(reverse(seg.aggressor), reverse(seg.victim), fps=seg.fps)
        backward = derivative(rev_pair.aggressor, interaction_distance(rev_pair)["distance"])
        n = len(forward)
        for i in range(1, n):
            f, b = forward[n - i], backward[i]
            if f is None or b is None:
                assert f is None and b is None
            else:
                assert b == pytest.approx(-f, abs=1e-9)


class TestFeatureCsv:
    def test_round_trip_gives_names_ids_and_row_major_values(self, tmp_path):
        schema = full_schema()
        rng = np.random.default_rng(5)
        rows = [(f"clip{i}#1|2#{i}", row) for i, row in enumerate(rng.normal(size=(4, len(schema))).tolist())]
        path = str(tmp_path / "f.csv")
        write_feature_csv(path, rows, schema)
        names, ids, values = read_feature_csv(path)
        assert names == list(schema.names)
        assert ids == [sid for sid, _ in rows]
        assert list(values) == [v for _, row in rows for v in row]

    def test_reading_holds_about_8_bytes_a_cell(self, tmp_path):
        # 2,000 rows of the full schema: a dict per row held about 57 B a cell
        names = full_schema().names
        assert len(names) == 143
        rng = np.random.default_rng(7)
        path = tmp_path / "big.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["segment_id", *names])
            for i in range(2000):
                writer.writerow([f"clip{i:04d}#1|2#{i}", *map(repr, rng.normal(size=143).tolist())])
        tracemalloc.start()
        try:
            _, ids, values = read_feature_csv(str(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (len(ids), len(values)) == (2000, 2000 * 143)
        assert peak < 12 * 2000 * 143

    @pytest.mark.parametrize("cell", ["nan", "NaN", "inf", "-inf", "Infinity", "1e400"])
    def test_non_finite_cell_rejected_naming_its_line(self, tmp_path, cell):
        path = tmp_path / "f.csv"
        path.write_text(f"segment_id,distance_mean,A_velocity_mean\na,1.0,2.0\n\nb,3.0,{cell}\n")
        with pytest.raises(MalformedRecord, match=f"^feature CSV line 4: non-finite cell '{cell}'$"):
            read_feature_csv(str(path))


# ---------------------------------------------------------------------------
# a non-finite per-row value is missing (docs/formats.md, "Missing values")


# a 4 s snatch clip whose frames the tests below edit
SNATCH_503 = generate(ScenarioSpec(kind="snatch", seed=503, noise_sigma=1.0, duration=4.0)).frames


def box_jump_frames():
    """The clip with person 2's box (0, 0, 1e-150, 1e-150) for 40 frames, then
    (0, 0, 1e9, 1e9): the box-area rate of the jump overflows."""
    frames = []
    for pos, f in enumerate(SNATCH_503):
        box = (0.0, 0.0, 1e-150, 1e-150) if pos < 40 else (0.0, 0.0, 1e9, 1e9)
        persons = tuple((tid, Skeleton(s.xy, s.conf, box) if tid == 2 else s) for tid, s in f.persons)
        frames.append(FrameRecord(f.frame_index, f.timestamp, persons))
    return frames


# the frames are scaled by powers of ten: joints and boxes each, per person and frame
_EXPONENT = st.sampled_from([-320, -300, -200, -160, -150, -100, -30, 0, 3, 5])


def _scaled(skel, joints_exp, box_exp):
    k, kb = 10.0**joints_exp, 10.0**box_exp
    return Skeleton(tuple(v * k for v in skel.xy), skel.conf, tuple(v * kb for v in skel.bbox))


def assert_windows_match_reference(frames, cfg):
    """Every window extraction writes is finite and equals the reference's, bit for bit."""
    rows = extract_windows(frames, cfg, stream_id="s")
    pairs = list(reference_pairs(frames, cfg))
    keys = [(end, pair_key_str(a.track_id, b.track_id)) for end, (a, b) in pairs]
    assert [sid for sid, _ in rows] == [f"s#{key}#{end}" for end, key in keys]
    schema = full_schema()
    for (sid, row), (_, (a, b)) in zip(rows, pairs):
        values = by_name(schema, row)
        bad = {n: v for n, v in values.items() if not math.isfinite(v)}
        assert not bad, (sid, bad)
        want = reference_segment_features(pair_segment(*order_roles(a, b, cfg.window_s), fps=cfg.fps))
        assert {n: _bits(v) for n, v in values.items()} == {n: _bits(want[n]) for n in values}
    return [end for end, _ in pairs]


class TestNonFiniteRows:
    def test_finite_rows_keeps_a_finite_series_and_drops_nan_and_infinities(self):
        series = [None, 1.0, -0.0, 2.5]
        assert finite_rows(series) is series
        got = finite_rows([1.0, math.inf, None, -math.inf, math.nan, 0.0])
        assert got == [1.0, None, None, None, None, 0.0]
        # finite values whose sum overflows are kept
        assert finite_rows([1.7e308, 1.7e308]) == [1.7e308, 1.7e308]

    def test_box_rate_jump_is_missing(self):
        """The jump's rate overflows to inf and is missing."""
        cfg = PipelineConfig()
        ends = assert_windows_match_reference(box_jump_frames(), cfg)
        assert any(end - cfg.window_frames < 40 <= end for end in ends)  # a window holds the jump

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(0, len(SNATCH_503) - 16),
        st.lists(st.tuples(_EXPONENT, _EXPONENT, _EXPONENT, _EXPONENT), min_size=16, max_size=16),
    )
    def test_every_value_from_extreme_scale_frames_is_finite(self, start, exponents):
        frames = []
        for pos, (ja, ba, jb, bb) in enumerate(exponents):
            (ta, a), (tb, b) = SNATCH_503[start + pos].persons
            persons = ((ta, _scaled(a, ja, ba)), (tb, _scaled(b, jb, bb)))
            frames.append(FrameRecord(pos, pos / 30.0, persons))
        assert_windows_match_reference(validate_stream(frames), PipelineConfig(window_s=0.4, stride_s=0.1))
