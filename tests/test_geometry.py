"""Per-skeleton geometry is computed once and stored on the skeleton; per-track
work is computed once per extraction; the geometry, which reads each joint
inline, equals bit for bit the valid-joint references of
``tests/feature_reference.py``."""

from collections import Counter

from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import random_skeleton, skeleton_from_keypoints, static_skeleton, with_bystander
import feature_reference as ref
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

    def counting(track):
        calls[track.track_id] += 1
        return uncached(track)

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


# ---------------------------------------------------------------------------
# every joint read inline equals the valid-joint reference, bit for bit

_POOL_COORD = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, 100.0, 1e-300, 1e9, -1e9]) | st.floats(
    min_value=-1e9, max_value=1e9, allow_nan=False
)
_JOINT_CONF = st.sampled_from([0.0, 0.29999999999999993, 0.3, 0.9, 1.0])


@st.composite
def joint_skeletons(draw):
    """Skeletons whose joints and box corners come from a few shared values, so
    joints coincide (zero-length limbs and steps) and line up, with each
    joint's confidence on either side of the 0.3 cut."""
    pick = st.sampled_from(draw(st.lists(_POOL_COORD, min_size=1, max_size=5)))
    xy = tuple(draw(pick) for _ in range(2 * types.NUM_KEYPOINTS))
    conf = tuple(draw(_JOINT_CONF) for _ in range(types.NUM_KEYPOINTS))
    return Skeleton(xy, conf, tuple(draw(pick) for _ in range(4)))


def _posed(joints, conf=None):
    """The template skeleton with some joints moved; ``conf`` sets confidences by joint."""
    xy = list(static_skeleton().xy)
    confs = [0.9] * types.NUM_KEYPOINTS
    for joint, (x, y) in joints.items():
        xy[2 * joint], xy[2 * joint + 1] = x, y
    for joint, c in (conf or {}).items():
        confs[joint] = c
    return Skeleton(tuple(xy), tuple(confs), static_skeleton().bbox)


# shoulder, elbow, wrist on one line: the unclamped cosine is -1 - 2**-52 (a
# straight arm) and 1 + 2**-52 (a folded one), outside acos's domain
_STRAIGHT_ARM = _posed({5: (-69.0735637201088, 65.72274185482117),
                        7: (-73.12715117751975, 69.48674738744654),
                        9: (-76.82929149258958, 72.9244126098909)})
_FOLDED_ARM = _posed({6: (-69.0735637201088, 65.72274185482117),
                      8: (-73.12715117751975, 69.48674738744654),
                      10: (-69.42501086244992, 66.04908216500219)})


@settings(max_examples=400, deadline=None)
@given(joint_skeletons())
@example(_STRAIGHT_ARM)
@example(_FOLDED_ARM)
@example(_posed({7: (80.0, 76.0), 5: (80.0, 76.0)}))  # a zero-length upper arm
@example(_posed({}, conf={types.LEFT_WRIST: 0.0}))  # one valid wrist
@example(_posed({}, conf={types.LEFT_EAR: 0.0}))  # facing from the shoulder line
@example(_posed({0: (100.0, 50.0)}, conf={types.LEFT_EAR: 0.0}))  # nose on the shoulder line
def test_skeleton_geometry_equals_the_valid_joint_reference(skel):
    for side in ((5, 7, 9), (6, 8, 10)):
        assert repr(types._elbow_angle(skel, *side)) == repr(ref.elbow_angle(skel, *side))
    assert repr(types._arm_extension(skel)) == repr(ref.arm_extension(skel))
    assert repr(types._facing_direction(skel)) == repr(ref.facing_direction(skel))


def _shifted(skel, dx, dy):
    xy = tuple(v + dx if i % 2 == 0 else v + dy for i, v in enumerate(skel.xy))
    x1, y1, x2, y2 = skel.bbox
    return Skeleton(xy, skel.conf, (x1 + dx, y1 + dy, x2 + dx, y2 + dy))


_STILL = _posed({})
# Both wrists step 3 px, the left one along x and the right one along y: equal
# speeds, so the left wrist must be the faster one, and the hand-toward
# cosine (B stands 300 px to the right) is near 1 from it, near 0 from the
# right one.
_BOTH_STEP = _posed({9: (_STILL.xy[18] + 3.0, _STILL.xy[19]),
                     10: (_STILL.xy[20], _STILL.xy[21] + 3.0)})
_RIGHT_OF = _shifted(_STILL, 300.0, 0.0)
# A faces along (-9, -2) from its ear midpoint and B's center lies 43 times
# that from A's: the unclamped facing cosine is 1 + 2**-52 (and -1 - 2**-52
# with the roles swapped)
_FACING_B = (_posed({0: (91.0, 26.0)}), _shifted(_STILL, -387.0, -86.0))
# A's left wrist steps (-4, 9) and B's center lies 15 such steps ahead of it:
# the unclamped hand-toward cosine is 1 + 2**-52
_STEP_AT_B = (_posed({9: (_STILL.xy[18] - 4.0, _STILL.xy[19] + 9.0)}),
              _shifted(_STILL, -92.0, 146.0))
_DT = st.sampled_from([1 / 30, 0.5, 0.0, -0.1, 1e-300])


@settings(max_examples=400, deadline=None)
@given(joint_skeletons(), joint_skeletons(), joint_skeletons(), joint_skeletons(), _DT)
@example(_STILL, _RIGHT_OF, _BOTH_STEP, _RIGHT_OF, 1 / 30)
@example(_STILL, _RIGHT_OF, _posed({}, conf={types.RIGHT_WRIST: 0.0}), _RIGHT_OF, 1 / 30)
@example(_STILL, _STILL, _STILL, _STILL, 1 / 30)  # no step, B on A: zero-length vectors
@example(_STILL, _STILL, *_FACING_B, 1 / 30)
@example(_STILL, _STILL, *reversed(_FACING_B), 1 / 30)
@example(_STILL, _STEP_AT_B[1], *_STEP_AT_B, 1 / 30)
def test_row_geometry_equals_the_valid_joint_reference(pa, pb, a, b, dt):
    step = features._wrist_step(pa, a, dt)
    assert repr(step) == repr(ref.wrist_step(pa, a, dt))
    assert repr(features._relative_step(pa, pb, a, b, dt, step)) == repr(
        ref.relative_step(pa, pb, a, b, dt)
    )
    assert repr(features._hand_reach(a, b)) == repr(ref.hand_reach(a, b))
    assert repr(features._facing_cosines(a, b)) == repr(ref.facing_cosines(a, b))
