"""The lean ingest path against its value-by-value oracles, and the JSONL boundary.

``validate_frame`` checks each skeleton as one vector and falls back to a
per-value loop; ``SkeletonSmoother`` updates one flat state list. Both must
agree with ``tests/ingest_reference.py`` bit for bit, including every error
message. Any JSON object handed to ``line_to_frame`` gives a frame or a
``MalformedRecord``, nothing else.
"""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ingest_reference as ref
from conftest import frame_of
from snatchdet import streams
from snatchdet.preprocess import SkeletonSmoother
from snatchdet.types import FrameRecord, MalformedRecord, Skeleton, validate_frame

# ---------------------------------------------------------------------------
# validate_frame: whole-vector check == value-by-value reference

_SPECIAL = [1e9, -1e9, 1e200, -1e200, math.nan, math.inf, -math.inf, 0.0, -0.0]
_CONF_EDGE = [
    0.0, -0.0, 1.0, 1.0 + 5e-10, -5e-10, 1.0 + 1e-9, -1e-9, 1.0 + 2e-9, -2e-9, 1.01, -0.5,
]
odd_value = st.one_of(
    st.sampled_from(_SPECIAL),
    st.integers(min_value=-(10**10), max_value=10**10),
    st.booleans(),
    st.text(max_size=3),
    st.none(),
)
coordinate = st.floats(min_value=-1e6, max_value=1e6)
confidence = st.floats(min_value=0.0, max_value=1.0)


@st.composite
def raw_skeletons(draw):
    """A valid float skeleton with a few values replaced by edge cases."""
    xy = [draw(coordinate) for _ in range(34)]
    conf = [draw(confidence) for _ in range(17)]
    x1, x2 = sorted((draw(coordinate), draw(coordinate)))
    y1, y2 = sorted((draw(coordinate), draw(coordinate)))
    bbox = [x1, y1, x2, y2]
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        where = draw(st.sampled_from(("xy", "conf", "conf_edge", "bbox", "bbox_swap")))
        if where == "xy":
            xy[draw(st.integers(0, 33))] = draw(odd_value)
        elif where == "conf":
            conf[draw(st.integers(0, 16))] = draw(odd_value)
        elif where == "conf_edge":
            conf[draw(st.integers(0, 16))] = draw(st.sampled_from(_CONF_EDGE))
        elif where == "bbox":
            bbox[draw(st.integers(0, 3))] = draw(odd_value)
        else:
            bbox[0], bbox[2] = bbox[2], bbox[0]
    return Skeleton(tuple(xy), tuple(conf), tuple(bbox))


def _outcome(fn, record):
    try:
        return "ok", fn(record)
    except MalformedRecord as exc:
        return "error", str(exc)


@settings(max_examples=250, deadline=None)
@given(st.lists(raw_skeletons(), min_size=1, max_size=3))
def test_validate_frame_matches_reference(skeletons):
    record = frame_of(7, 0.25, [(tid, skel) for tid, skel in enumerate(skeletons, start=1)])
    got_kind, got = _outcome(validate_frame, record)
    want_kind, want = _outcome(ref.validate_frame, record)
    assert got_kind == want_kind
    if got_kind == "error":
        assert got == want
    else:
        assert repr(got) == repr(want)
        assert (got is record) == (want is record)


@pytest.mark.parametrize("index", [True, False])
def test_validate_frame_rejects_boolean_frame_index(index):
    with pytest.raises(MalformedRecord, match="frame_index must be a nonnegative integer"):
        validate_frame(FrameRecord(frame_index=index, timestamp=0.0, persons=()))


# ---------------------------------------------------------------------------
# SkeletonSmoother: flat state == keypoint-object reference

# a small pool makes unchanged samples (raw == state) and -0.0 common
pooled = st.one_of(st.sampled_from([0.0, -0.0, 1.0, 2.5, 100.0]), st.floats(-1e4, 1e4))
smoother_conf = st.one_of(
    st.sampled_from([0.0, 0.29, 0.3, 0.9]), st.floats(min_value=0.0, max_value=1.0)
)


@st.composite
def skeleton_sequences(draw):
    n = draw(st.integers(min_value=1, max_value=8))
    # joints in never_valid stay below the validity threshold throughout
    never_valid = draw(st.sets(st.integers(0, 16), max_size=6))
    seq = []
    for _ in range(n):
        xy = tuple(draw(pooled) for _ in range(34))
        conf = tuple(
            draw(st.floats(0.0, 0.29)) if j in never_valid else draw(smoother_conf)
            for j in range(17)
        )
        bbox = tuple(draw(pooled) for _ in range(4))
        seq.append(Skeleton(xy, conf, bbox))
    return seq


@settings(max_examples=120, deadline=None)
@given(skeleton_sequences(), st.floats(min_value=0.01, max_value=0.99))
def test_flat_smoother_matches_reference(seq, alpha):
    flat, oracle = SkeletonSmoother(alpha), ref.SkeletonSmoother(alpha)
    for skel in seq:
        got, want = flat.step(skel), oracle.step(skel)
        # repr tells -0.0 from 0.0, so this is bit for bit
        assert repr(got) == repr(want)


# ---------------------------------------------------------------------------
# the JSONL boundary

json_scalar = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.just(10**400),  # too large for a float
    st.floats(),
    st.text(max_size=5),
)
json_value = st.recursive(
    json_scalar,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=12,
)


def _maybe(strategy):
    """The well-formed shape most of the time, any JSON value otherwise."""
    return st.one_of(strategy, strategy, json_value)


# numbers as the wire allows them, and look-alikes it must refuse
numeric_text = st.one_of(st.floats().map(repr), st.integers().map(str))
number = st.one_of(st.floats(), st.integers(-(10**6), 10**6))
look_alike = st.one_of(st.booleans(), numeric_text)


def _value(strategy):
    """Mostly the given numbers, sometimes a boolean or a numeric string."""
    return st.one_of(strategy, strategy, strategy, look_alike)


triple = _maybe(st.lists(_maybe(_value(number)), min_size=3, max_size=3))
person = _maybe(
    st.fixed_dictionaries(
        {
            "track_id": _maybe(st.integers(min_value=0, max_value=9)),
            "keypoints": _maybe(st.lists(triple, min_size=16, max_size=18)),
            "bbox": _maybe(st.lists(_maybe(_value(number)), min_size=3, max_size=5)),
        }
    )
)
frame_object = st.fixed_dictionaries(
    {},
    optional={
        "frame_index": _maybe(st.integers(min_value=0, max_value=10**6)),
        "timestamp_s": _maybe(_value(st.floats(min_value=0.0, max_value=1e6))),
        "persons": _maybe(st.lists(person, max_size=2)),
        "extra": json_value,
    },
)


@settings(max_examples=400, deadline=None)
@given(frame_object)
def test_any_json_object_gives_a_frame_or_malformed_record(obj):
    line = json.dumps(obj)
    try:
        frame = streams.line_to_frame(line)
    except MalformedRecord:
        return
    assert isinstance(frame, FrameRecord)
    # a frame was read only from numbers: no string or boolean passed as one
    # (a null or missing timestamp_s is synthesized from frame_index)
    wire = [] if obj.get("timestamp_s") is None else [obj["timestamp_s"]]
    for p in obj["persons"]:
        wire.extend(v for x, y, c in p["keypoints"] for v in (x, y, c))
        wire.extend(p["bbox"])
    assert {type(v) for v in wire} <= {int, float}
    # and JSON integers arrive as floats
    assert type(frame.timestamp) is float
    for _, skel in frame.persons:
        assert {type(v) for v in (*skel.xy, *skel.conf, *skel.bbox)} <= {float}
    try:
        validate_frame(frame)
    except MalformedRecord:
        pass


@pytest.mark.parametrize(
    "field, value",
    [("timestamp_s", True), ("timestamp_s", "0.5"), ("keypoint", "1.5"), ("keypoint", True),
     ("confidence", "0.9"), ("bbox", False), ("bbox", "10")],
)
def test_string_or_boolean_number_is_a_malformed_record(field, value):
    obj = json.loads(_one_person_line())
    if field == "timestamp_s":
        obj["timestamp_s"] = value
    elif field == "bbox":
        obj["persons"][0]["bbox"][1] = value
    else:
        obj["persons"][0]["keypoints"][4][0 if field == "keypoint" else 2] = value
    with pytest.raises(MalformedRecord, match="bad frame object: .* must be a number"):
        streams.line_to_frame(json.dumps(obj))


def test_integer_values_are_stored_as_floats():
    obj = json.loads(_one_person_line())
    obj["timestamp_s"] = 2
    obj["persons"][0]["keypoints"][0] = [10, -3, 1]
    obj["persons"][0]["bbox"] = [0, 1, 50, 60]
    frame = streams.line_to_frame(json.dumps(obj))
    skel = frame.persons[0][1]
    assert repr((frame.timestamp, skel.xy[:2], skel.conf[0], skel.bbox)) == repr(
        (2.0, (10.0, -3.0), 1.0, (0.0, 1.0, 50.0, 60.0))
    )


def _one_person_line() -> str:
    kps = [[100.0 + j, 200.0 - j, 0.9] for j in range(17)]
    return json.dumps(
        {"frame_index": 0, "timestamp_s": 0.0,
         "persons": [{"track_id": 1, "keypoints": kps, "bbox": [90.0, 180.0, 130.0, 220.0]}]}
    )


@pytest.mark.parametrize(
    "field, value",
    [("timestamp_s", "abc"), ("timestamp_s", [1]), ("frame_index", 10**400), ("frame_index", "7")],
)
def test_bad_timestamp_or_index_is_a_malformed_record(field, value):
    obj = {"frame_index": 3, "timestamp_s": 0.1, "persons": []}
    obj[field] = value
    if field == "frame_index":
        del obj["timestamp_s"]  # the timestamp comes from frame_index / fps
    with pytest.raises(MalformedRecord, match="bad frame object"):
        streams.line_to_frame(json.dumps(obj))


@pytest.mark.parametrize(
    "persons",
    ["[" * 100_000 + "]" * 100_000, "1" * 5000],  # too deep; an integer over Python's digit limit
)
def test_undecodable_line_is_a_malformed_record(persons):
    line = '{"frame_index": 0, "persons": ' + persons + "}"
    with pytest.raises(MalformedRecord, match="invalid JSON line"):
        streams.line_to_frame(line)
