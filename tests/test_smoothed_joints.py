"""The smoother smooths only the joints the deployed schema reads.

``FeatureSchema.joints`` is the torso joints plus each planned family's
``FAMILY_JOINTS``; every other joint passes through the smoother as the
detector gave it. The pins below state the sets. The extraction oracle is
the guard against a table that misses a joint: for random schemas, the rows
``extract_windows`` writes and the rows and probabilities ``StreamEngine``
computes per window equal, bit for bit, those computed from tracks smoothed
on all 17 joints by the reference smoother (``tests/track_reference.py``).
The last test moves the joints no schema reads in a digest stream and
checks that ``extract`` and ``stream`` write the same bytes.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import classified_windows, roles, with_bystander, without_person
from snatchdet import streams
from snatchdet.config import PipelineConfig
from snatchdet.features import (
    FAMILY_JOINTS,
    TORSO_JOINTS,
    extract_segment,
    full_schema,
    pair_segment,
)
from snatchdet.forest import Dataset, ForestConfig, predict_probability, train
from snatchdet.pipeline import StreamEngine, extract_windows, order_roles, pair_key_str
from snatchdet.synth import ScenarioSpec, generate
from snatchdet.types import FrameRecord, Skeleton, track_order
from test_family_table import TOP10
from test_output_digest import load_script
from track_reference import reference_pairs

FULL = full_schema()
# every name of each family the layout gives
FAMILY_NAMES: dict[str, list[str]] = {}
for _family, _role, _base, _stats, _columns, _sentinel in FULL.plan:
    FAMILY_NAMES.setdefault(_family, []).extend(FULL.names[c] for c in _columns)

WRISTS = {9, 10}
PINNED_FAMILY_JOINTS = {
    "kinematics": set(),
    "acceleration": set(),
    "wrists": WRISTS,
    "hands": WRISTS,
    "handAcceleration": WRISTS,
    "handJerk": WRISTS,
    "arms": {5, 6, 9, 10},
    "elbows": {5, 6, 7, 8, 9, 10},
    "bbox": set(),
    "distance": set(),
    "distanceRate": set(),
    "iouEvents": set(),
    "relative": WRISTS,
    "reaching": WRISTS,
    "facing": {0, 3, 4, 5, 6},
}
# the joints no schema reads: eyes, knees and ankles
UNREAD = (1, 2, 13, 14, 15, 16)


# ---------------------------------------------------------------------------
# pins


def test_full_schema_smooths_eleven_joints():
    assert FULL.joints == {0, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}
    assert not FULL.joints & set(UNREAD)


def test_each_family_reads_its_joints():
    assert TORSO_JOINTS == {5, 6, 11, 12}
    assert FAMILY_JOINTS == PINNED_FAMILY_JOINTS
    # every family a schema plans has an entry
    assert set(FAMILY_NAMES) <= set(FAMILY_JOINTS)


def test_a_single_family_schema_smooths_the_torso_and_its_joints():
    for family, names in FAMILY_NAMES.items():
        assert FULL.select(names).joints == {5, 6, 11, 12} | PINNED_FAMILY_JOINTS[family], family


def test_top10_model_smooths_six_joints():
    assert TOP10.joints == {5, 6, 9, 10, 11, 12}


# ---------------------------------------------------------------------------
# extraction oracle: smoothing fewer joints changes no row and no probability

schemas = st.one_of(
    st.just(TOP10),
    st.sampled_from(sorted(FAMILY_NAMES)).map(lambda family: FULL.select(FAMILY_NAMES[family])),
    st.sets(st.sampled_from(FULL.names), min_size=1, max_size=12).map(FULL.select),
)


def _obscured(frames, stretches):
    """``frames`` with each (person, joint, start, length, confidence) stretch's
    joint below the validity threshold."""
    low: dict[tuple[int, int], dict[int, float]] = {}
    for tid, joint, start, length, conf in stretches:
        for pos in range(start, start + length):
            low.setdefault((pos, tid), {})[joint] = conf
    out = []
    for pos, f in enumerate(frames):
        persons = []
        for tid, skel in f.persons:
            changed = low.get((pos, tid))
            if changed:
                conf = tuple(changed.get(j, c) for j, c in enumerate(skel.conf))
                skel = Skeleton(skel.xy, conf, skel.bbox)
            persons.append((tid, skel))
        out.append(FrameRecord(f.frame_index, f.timestamp, tuple(persons)))
    return out


@st.composite
def clips(draw):
    """A noisy synth clip (5% of joints drop below the validity threshold),
    with longer low-confidence stretches, and person 2 sometimes gone for a
    while (past ``max_gap_frames`` it returns under a split key)."""
    spec = ScenarioSpec(
        kind=draw(st.sampled_from(["snatch", "walk_by", "handshake", "standing"])),
        duration=3.0,
        seed=draw(st.integers(0, 10_000)),
        noise_sigma=draw(st.sampled_from([1.0, 2.5])),
    )
    frames = generate(spec).frames
    stretches = draw(st.lists(
        st.tuples(st.sampled_from([1, 2]), st.integers(0, 16), st.integers(0, 80),
                  st.integers(1, 30), st.floats(0.0, 0.29)),
        max_size=8,
    ))
    frames = _obscured(frames, stretches)
    if draw(st.booleans()):
        start = draw(st.integers(10, 70))
        frames = without_person(frames, 2, start, start + draw(st.integers(1, 25)))
    if draw(st.booleans()):
        frames = with_bystander(frames)
    return frames


def _reference_rows(frames, cfg, schema):
    """(segment id, row) per window, from tracks smoothed on every joint."""
    rows = []
    for end, (a, b) in reference_pairs(frames, cfg):
        segment = pair_segment(*order_roles(a, b, cfg.window_s), fps=cfg.fps)
        sid = f"s#{pair_key_str(a.track_id, b.track_id)}#{end}"
        rows.append((sid, extract_segment(segment, schema)))
    return rows


def _model(schema, rows):
    """A small forest over ``schema`` that splits on the values of ``rows``."""
    labels = [i % 2 for i in range(len(rows))] + [0, 1]
    rows = [*rows, [0.0] * len(schema), [1.0] * len(schema)]
    return train(Dataset(schema.names, rows, labels), ForestConfig(n_trees=3))


def _engine_windows(model, frames, cfg):
    """Each window's (repr of row, roles) pairs and probabilities, from the segments the
    engine cuts (``classified_windows``, which checks the rows and probabilities the engine
    computes against them)."""
    rows, probs = [], []
    for _, ids, window_rows, window_probs in classified_windows(StreamEngine(model, cfg), frames)[1]:
        rows += [(repr(window_rows[0]), ids), (repr(window_rows[1]), ids[::-1])]
        probs += window_probs
    return rows, probs


def assert_equal_to_full_smoothing(schema, frames):
    """``extract_windows`` rows, and the engine's rows and probabilities per
    window, equal those of tracks smoothed on every joint, bit for bit."""
    cfg = PipelineConfig()
    want = _reference_rows(frames, cfg, schema)
    got = extract_windows(frames, cfg, schema, stream_id="s")
    # repr tells -0.0 from 0.0, so this is bit for bit
    assert [(sid, repr(v)) for sid, v in got] == [(sid, repr(v)) for sid, v in want]

    model = _model(schema, [row for _, row in want])
    want_rows, want_probs = [], []
    for _, (a, b) in reference_pairs(frames, cfg):
        a, b = sorted((a, b), key=lambda track: track_order(track.track_id))
        segment = pair_segment(a, b, fps=cfg.fps)
        for pair in (segment, segment.swapped()):
            row = extract_segment(pair, schema)
            want_rows.append((repr(row), roles(pair)))
            want_probs.append(predict_probability(model, row))
    got_rows, got_probs = _engine_windows(model, frames, cfg)
    assert got_rows == want_rows
    assert repr(got_probs) == repr(want_probs)
    return len(want)


@settings(max_examples=40, deadline=None)
@given(schemas, clips())
def test_rows_and_probabilities_equal_full_smoothing(schema, frames):
    assert_equal_to_full_smoothing(schema, frames)


# a snatch with a far bystander, a wrist and an ear dropping out for a
# while, and person 2 gone for 20 frames (it returns under a split key)
SNATCH = with_bystander(without_person(_obscured(
    generate(ScenarioSpec(kind="snatch", duration=3.0, seed=34, noise_sigma=1.5)).frames,
    [(1, 9, 30, 12, 0.1), (2, 3, 5, 20, 0.2)],
), 2, 65, 85))


@pytest.mark.parametrize("family", sorted(FAMILY_NAMES))
def test_each_family_equals_full_smoothing(family):
    assert assert_equal_to_full_smoothing(FULL.select(FAMILY_NAMES[family]), SNATCH) > 1


# ---------------------------------------------------------------------------
# the joints no schema reads do not reach any output


def _unread_moved(frames, rng):
    """``frames`` with the coordinates and confidences of every person's
    eyes, knees and ankles redrawn within the valid ranges."""
    out = []
    for f in frames:
        persons = []
        for tid, skel in f.persons:
            xy, conf = list(skel.xy), list(skel.conf)
            for j in UNREAD:
                scale = 1e9 if rng.random() < 0.2 else 1e4
                xy[2 * j], xy[2 * j + 1] = (float(v) for v in rng.uniform(-scale, scale, 2))
                conf[j] = float(rng.choice([0.0, 1.0, rng.uniform(0.0, 1.0)]))
            persons.append((tid, Skeleton(tuple(xy), tuple(conf), skel.bbox)))
        out.append(FrameRecord(f.frame_index, f.timestamp, tuple(persons)))
    return out


def test_moving_unread_joints_keeps_every_output_byte(tmp_path):
    digest = load_script()
    work = tmp_path / "digest"
    work.mkdir()
    digest.digests(str(work), n_per_class=2, n_trees=5, rounds=1)
    rng = np.random.default_rng(34)
    for name, model in (("pair_stream", "top_model.json"), ("crowd_stream", "full_model.json")):
        moved_dir = tmp_path / name
        moved_dir.mkdir()
        original, moved = work / f"{name}.jsonl", moved_dir / f"{name}.jsonl"
        frames = streams.read_stream(str(original))
        streams.write_stream(str(moved), _unread_moved(frames, rng))
        assert moved.read_bytes() != original.read_bytes()
        outputs = []
        for stream in (original, moved):
            out = stream.parent / f"{name}.out"
            out.mkdir()
            digest._run(["extract", "--streams", str(stream), "--out", str(out / "rows.csv")])
            digest._run(["stream", "--stream", str(stream), "--model", str(work / model),
                         "--alerts-out", str(out / "alerts.jsonl")])
            outputs.append((
                (out / "rows.csv").read_bytes(),
                (out / "alerts.jsonl").read_bytes(),
                digest.window_lines(str(stream), str(work / model)),
            ))
        assert outputs[0] == outputs[1], name
        rows, alerts, windows = outputs[0]
        assert rows.count(b"\n") > 1 and alerts and windows
