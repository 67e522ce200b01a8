"""One ``SegmentFamilies`` table serves both role orderings of a segment.

The stream engine extracts each window's pair as (A, B) and as (B, A)
through one table. An individual family is keyed by its track, so it runs
once per track; ``distance`` is keyed by the unordered pair, which is only
right because ``_distance_and_iou`` is bitwise symmetric; the directional
families run once per ordering. Each case here compares the table with two
independent extractions, which build a fresh table each.
"""

import gc
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import fresh_segment, random_segment, roles, run_engine, static_skeleton
from snatchdet import features, pipeline
from snatchdet.config import PipelineConfig
from snatchdet.features import (
    SegmentFamilies,
    _distance_and_iou,
    extract_segment,
    full_schema,
)
from snatchdet.forest import Dataset, ForestConfig, train
from snatchdet.synth import ScenarioSpec, generate
from snatchdet.types import LEFT_HIP, LEFT_SHOULDER, RIGHT_HIP, RIGHT_SHOULDER, Skeleton

FULL = full_schema()
# the ten columns `rank` puts first on the scripts/output_digest.py corpus
TOP10 = FULL.select([
    "A_velocity_p95", "A_handVelocity_max", "A_armExtension_p95", "A_velocity_mean",
    "A_armRetraction0p2s", "A_bboxAreaRate_min", "A_handAcceleration_mean",
    "A_armExtension_mean", "A_handVelocity_p95", "A_armExtension_max",
])
A_ONLY = FULL.select([n for n in FULL.names if n.startswith("A_")])
B_ONLY = FULL.select([n for n in FULL.names if n.startswith("B_")])


def both_orderings(segment, schema):
    """(repr(row), roles) of (A, B) then (B, A), extracted through one table."""
    table = SegmentFamilies(segment)
    return [(repr(extract_segment(p, schema, table)), roles(p)) for p in (segment, segment.swapped())]


def independent(segment, schema):
    """As ``both_orderings``, but each ordering through its own table, on copies of the tracks."""
    segment = fresh_segment(segment)
    return [(repr(extract_segment(p, schema)), roles(p)) for p in (segment, segment.swapped())]


# ---------------------------------------------------------------------------
# the symmetry the unordered ``distance`` key rests on

_COORD = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, 100.0, 1e-300, 1e9, -1e9]) | st.floats(
    min_value=-1e9, max_value=1e9, allow_nan=False
)
_CONF = st.sampled_from([0.0, 0.29999999999999993, 0.3, 1.0])


@st.composite
def skeletons(draw):
    """Skeletons whose torso joints and box corners come from a few shared values,
    so that centers, torsos and box edges coincide across the two people."""
    coords = draw(st.lists(_COORD, min_size=1, max_size=4))
    pick = st.sampled_from(coords)
    xy = [0.0] * 34
    conf = [0.0] * 17
    for joint in (LEFT_SHOULDER, RIGHT_SHOULDER, LEFT_HIP, RIGHT_HIP):
        xy[2 * joint] = draw(pick)
        xy[2 * joint + 1] = draw(pick)
        conf[joint] = draw(_CONF)
    # corners in any order: degenerate (zero-width) and inverted boxes too
    bbox = tuple(draw(pick) for _ in range(4))
    return Skeleton(tuple(xy), tuple(conf), bbox)


@settings(max_examples=400, deadline=None)
@given(skeletons(), skeletons())
@example(
    Skeleton((0.0,) * 34, (1.0,) * 17, (0.0, 0.0, 0.0, 0.0)),
    Skeleton((-0.0,) * 34, (1.0,) * 17, (-0.0, -0.0, -0.0, -0.0)),
)
@example(  # max(0.0, -0.0) and max(-0.0, 0.0) differ in sign; the IoU must not
    Skeleton(static_skeleton().xy, static_skeleton().conf, (0.0, -0.0, 5.0, 5.0)),
    Skeleton(static_skeleton().xy, static_skeleton().conf, (-0.0, 0.0, 5.0, 5.0)),
)
@example(  # no valid torso joint: no center, no torso
    Skeleton((1.0,) * 34, (0.0,) * 17, (0.0, 0.0, 2.0, 2.0)),
    Skeleton((1.0,) * 34, (1.0,) * 17, (0.0, 0.0, 2.0, 2.0)),
)
def test_distance_and_iou_is_bitwise_symmetric(a, b):
    assert repr(_distance_and_iou(a, b)) == repr(_distance_and_iou(b, a))


# ---------------------------------------------------------------------------
# one table gives what two independent extractions give


@pytest.mark.parametrize("schema", [FULL, TOP10, A_ONLY, B_ONLY], ids=["full", "top10", "A", "B"])
def test_one_table_equals_independent_extractions(rng, schema):
    for _ in range(25):
        n = int(rng.integers(5, 21))
        seg = random_segment(rng, n, dropout=float(rng.uniform(0.0, 0.3)))
        want = independent(seg, schema)
        assert both_orderings(seg, schema) == want
        # a second table reads the values the first stored on the tracks
        assert both_orderings(seg, schema) == want


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.sampled_from(FULL.names), min_size=1, max_size=30, unique=True),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=5, max_value=16),
)
def test_one_table_equals_independent_extractions_on_any_subset(names, seed, n):
    seg = random_segment(np.random.default_rng(seed), n, dropout=0.2)
    schema = FULL.select(names)
    assert both_orderings(seg, schema) == independent(seg, schema)


def test_a_table_of_another_segment_is_refused(rng):
    seg, other = random_segment(rng, 8), random_segment(rng, 8)
    table = SegmentFamilies(seg)
    with pytest.raises(ValueError, match="family table"):
        extract_segment(other, FULL, table)


# ---------------------------------------------------------------------------
# what runs, and how often


def test_each_family_runs_once_per_owner(rng, monkeypatch):
    seg = random_segment(rng, 12)
    a, b = seg.aggressor.track_id, seg.victim.track_id
    calls: dict[str, Counter] = {}

    def count(name, owner_of):
        inner = getattr(features, name)
        calls[name] = Counter()

        def counting(*args, **kwargs):
            calls[name][owner_of(args[0])] += 1
            return inner(*args, **kwargs)

        monkeypatch.setattr(features, name, counting)

    track_id = lambda track: track.track_id  # noqa: E731
    ordering = lambda pair: (pair.aggressor.track_id, pair.victim.track_id)  # noqa: E731
    for name in ("wrist_velocities", "center_kinematics", "hand_motion", "arm_posture",
                 "elbow_flexion", "bbox_area_rate"):
        count(name, track_id)
    for name in ("interaction_distance", "relative_motion", "reaching", "facing"):
        count(name, ordering)
    count("aggregate", lambda series: "series")

    table = SegmentFamilies(seg)
    extract_segment(seg, FULL, table)
    extract_segment(seg.swapped(), FULL, table)

    for name in ("wrist_velocities", "center_kinematics", "hand_motion", "arm_posture",
                 "elbow_flexion", "bbox_area_rate"):
        assert calls[name] == {a: 1, b: 1}, name
    assert sum(calls["interaction_distance"].values()) == 1
    for name in ("relative_motion", "reaching", "facing"):
        assert calls[name] == {(a, b): 1, (b, a): 1}, name
    # per track 8 series (handAcceleration for both: each is A once), 3 of
    # distance, and 7 directional series per ordering
    assert calls["aggregate"]["series"] == 2 * 8 + 3 + 2 * 7


def test_unread_families_are_not_computed_through_one_table(rng, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("family computed although no schema name reads it")

    for name in (
        "center_kinematics", "arm_posture", "elbow_flexion", "bbox_area_rate",
        "relative_motion", "facing",
    ):
        monkeypatch.setattr(f"snatchdet.features.{name}", forbidden)
    schema = full_schema().select(["distance_min", "closeHandPct", "A_handJerkMin"])
    seg = random_segment(rng, 12)
    table = SegmentFamilies(seg)
    for pair in (seg, seg.swapped()):
        assert len(extract_segment(pair, schema, table)) == 3


def test_one_table_leaves_no_reference_cycles(rng):
    seg = random_segment(rng, 12)
    gc.collect()
    gc.disable()
    try:
        table = SegmentFamilies(seg)
        extract_segment(seg, FULL, table)
        extract_segment(seg.swapped(), FULL, table)
        del table
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_engine_shares_one_table_between_the_orderings(monkeypatch):
    # the distance family runs once per decision, not once per extraction:
    # each decision extracts both orderings' shared columns, and may extract
    # an ordering in full after its bound
    frames = generate(ScenarioSpec(kind="snatch", seed=11, duration=4.0, noise_sigma=1.0)).frames
    model = train(
        Dataset(("distance_mean", "relativeSpeed_mean"), [[0.0, 0.0], [1.0, 1.0]], [0, 1]),
        ForestConfig(n_trees=1),
    )
    calls = Counter()
    distance, extract, segment = (
        features.interaction_distance, pipeline.extract_segment, pipeline.pair_segment
    )

    def counting(name, inner):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(features, "interaction_distance", counting("distance", distance))
    monkeypatch.setattr(pipeline, "extract_segment", counting("extract", extract))
    monkeypatch.setattr(pipeline, "pair_segment", counting("decision", segment))
    run_engine(pipeline.StreamEngine(model, PipelineConfig()), frames)
    assert calls["decision"] > 0
    assert calls["extract"] >= 2 * calls["decision"]
    assert calls["distance"] == calls["decision"]
