"""The lean ingest path against its value-by-value oracles, and the JSONL boundary.

``validate_frame`` checks each skeleton as one vector and falls back to a
per-value loop; ``SkeletonSmoother`` updates one flat state list for the
joints it smooths and passes the others through. Both must
agree with ``tests/ingest_reference.py`` bit for bit, including every error
message. So must the engine's whole ingest, from a decoded frame object
through ``obj_to_frame`` and its stored verdicts to the smoothed skeletons
in the window store. Any JSON object handed to ``line_to_frame`` gives a
frame or a ``MalformedRecord``, nothing else, and every frame its decoder
reads holds the values the standard library's ``json.loads`` reads, bit
for bit.
"""

import copy
import json
import math
import struct
from dataclasses import replace
from unittest import mock

import orjson
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ingest_reference as ref
from conftest import frame_of
from snatchdet import streams
from snatchdet.config import PipelineConfig
from snatchdet.forest import Dataset, ForestConfig, train
from snatchdet.pipeline import StreamEngine
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


# the joints a smoother smooths: always the torso, and any others
smoothed_joints = st.sets(st.integers(0, 16)).map(ref.TORSO_JOINTS.union)


@settings(max_examples=120, deadline=None)
@given(skeleton_sequences(), st.floats(min_value=0.01, max_value=0.99), smoothed_joints)
def test_flat_smoother_matches_reference(seq, alpha, joints):
    flat, oracle = SkeletonSmoother(alpha, joints), ref.SkeletonSmoother(alpha, joints)
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
    # 10**400 lies beyond the double range, which the decoder rejects
    expected = "invalid JSON line" if value == 10**400 else "bad frame object"
    with pytest.raises(MalformedRecord, match=expected):
        streams.line_to_frame(json.dumps(obj))


@pytest.mark.parametrize(
    "persons",
    ["[" * 100_000 + "]" * 100_000, "1" * 5000],  # too deep; a number beyond the double range
)
def test_undecodable_line_is_a_malformed_record(persons):
    line = '{"frame_index": 0, "persons": ' + persons + "}"
    with pytest.raises(MalformedRecord, match="invalid JSON line"):
        streams.line_to_frame(line)


@pytest.mark.parametrize("opener, closer", [("[", "]"), ('{"k":', "}")])
@pytest.mark.parametrize("depth", [streams.MAX_NESTING, streams.MAX_NESTING + 1])
def test_nesting_is_bounded_before_decoding(opener, closer, depth):
    # the frame object is the first level, the extra field holds the rest
    inner = depth - 1
    extra = opener * inner + "1" + closer * inner
    line = _one_person_line().replace('"frame_index": 0', '"frame_index": 0, "extra": ' + extra)
    if depth <= streams.MAX_NESTING:
        assert streams.line_to_frame(line).persons[0][0] == 1
    else:
        with pytest.raises(MalformedRecord, match="invalid JSON line: nested deeper"):
            streams.line_to_frame(line)


def test_brackets_inside_strings_do_not_count_as_nesting():
    many = streams.MAX_NESTING * 2
    # opening brackets in a string (an escaped quote does not end it) are text
    text = json.dumps('\\"' + "[{" * many)
    line = _one_person_line().replace('"frame_index": 0', '"frame_index": 0, "extra": ' + text)
    assert streams.line_to_frame(line).persons[0][0] == 1
    # nor can closing brackets in strings hide real nesting
    deep = "[" + '"]}",' * many + "[" * streams.MAX_NESTING + "]" * (streams.MAX_NESTING + 1)
    line = _one_person_line().replace('"frame_index": 0', '"frame_index": 0, "extra": ' + deep)
    assert orjson.loads(line)["extra"]  # valid JSON, too deep only
    with pytest.raises(MalformedRecord, match="nested deeper"):
        streams.line_to_frame(line)


def _nesting(value) -> int:
    if isinstance(value, list):
        return 1 + max(map(_nesting, value), default=0)
    if isinstance(value, dict):
        return 1 + max(map(_nesting, value.values()), default=0)
    return 0


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(alphabet='[]{}"\\,:a\u00e9\n'),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(alphabet='[]{}"\\a', max_size=3), children, max_size=3),
    max_leaves=20,
)


@settings(max_examples=300, deadline=None)
@given(json_values, st.integers(0, 6), st.integers(0, 6), st.booleans())
def test_nesting_scan_matches_the_decoded_depth(value, bound, wrap, ensure_ascii):
    """With the bound lowered, the scan agrees with the depth of what json.loads reads."""
    line = "[" * wrap + json.dumps(value, ensure_ascii=ensure_ascii) + "]" * wrap
    with mock.patch.object(streams, "MAX_NESTING", bound):
        deep = streams._too_deeply_nested(line)
    assert deep == (_nesting(json.loads(line)) > bound)


def _loop_depth(line: str) -> int:
    """The deepest bracket nesting outside strings, one character at a time.

    A string opens at a quote and closes at the next quote that no
    backslash escapes, or runs to the end of the line.
    """
    depth = deepest = 0
    in_string = escaped = False
    for ch in line:
        if in_string:
            if escaped:
                escaped = False
            elif ch == "\\":
                escaped = True
            elif ch == '"':
                in_string = False
        elif ch == '"':
            in_string = True
        elif ch in "[{":
            depth += 1
            deepest = max(deepest, depth)
        elif ch in "]}":
            depth -= 1
    return deepest


# runs of one character: quotes open and close strings, backslashes escape
# inside them, and brackets fall inside and outside strings
_RUNS = st.lists(
    st.tuples(st.sampled_from('[]{}"\\a,\u00e9'), st.integers(min_value=1, max_value=700)),
    min_size=1, max_size=12,
)


@settings(max_examples=200, deadline=None)
@given(_RUNS, st.integers(min_value=0, max_value=12), st.sampled_from("[{"))
def test_exact_nesting_scan_matches_a_character_loop(runs, at, opener):
    """Lines with more than MAX_NESTING opening brackets take the exact scan;
    its verdict is the one a plain character loop gives. One run of
    MAX_NESTING + 1 openers, inside or outside a string, makes sure of the
    count; closers before it can keep the depth within the bound."""
    runs.insert(at, (opener, streams.MAX_NESTING + 1))
    line = "".join(ch * n for ch, n in runs)
    assert streams._too_deeply_nested(line) == (_loop_depth(line) > streams.MAX_NESTING)


# ---------------------------------------------------------------------------
# the engine's ingest, from decoded object to smoothed skeleton, against the oracles

_BEYOND = math.nextafter(1e9, math.inf)
# each replaces one value of a valid person: integers, booleans, the
# coordinate bound and just past it, confidences within 1e-9 outside [0, 1]
wire_odd_value = st.one_of(
    st.integers(-1000, 1000),
    st.booleans(),
    st.sampled_from([1e9, -1e9, _BEYOND, -_BEYOND, math.nan, math.inf, -0.0, "1.5", None]),
)
wire_conf_edge = st.sampled_from(_CONF_EDGE + [0, 1])


@st.composite
def wire_person(draw, tid):
    """A person object: valid floats with a few values replaced by edge cases."""
    n = draw(st.sampled_from([17] * 8 + [16, 18]))
    kps = [[draw(coordinate), draw(coordinate), draw(confidence)] for _ in range(n)]
    x1, x2 = sorted((draw(coordinate), draw(coordinate)))
    y1, y2 = sorted((draw(coordinate), draw(coordinate)))
    bbox = [x1, y1, x2, y2]
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 1, 2, 3]))):
        where = draw(st.sampled_from(("xy", "conf", "conf_edge", "bbox", "bbox_swap")))
        if where == "xy":
            kps[draw(st.integers(0, n - 1))][draw(st.integers(0, 1))] = draw(wire_odd_value)
        elif where == "conf":
            kps[draw(st.integers(0, n - 1))][2] = draw(wire_odd_value)
        elif where == "conf_edge":
            kps[draw(st.integers(0, n - 1))][2] = draw(wire_conf_edge)
        elif where == "bbox":
            bbox[draw(st.integers(0, 3))] = draw(wire_odd_value)
        else:
            bbox[1], bbox[3] = bbox[3], bbox[1]
    return {"track_id": tid, "keypoints": kps, "bbox": bbox}


@st.composite
def wire_frames_of_people(draw):
    """A short stream of frame objects; ids repeat across frames and sometimes within one."""
    frames, t = [], 0.0
    for i in range(draw(st.integers(min_value=1, max_value=5))):
        if draw(st.integers(0, 9)) == 9:
            frames.append(draw(frame_object))  # mostly not a frame at all
            continue
        t += draw(st.sampled_from([1 / 30] * 8 + [0.0]))  # 0.0: not increasing
        tids = draw(st.lists(st.integers(1, 2), min_size=1, max_size=3))
        frames.append({
            "frame_index": draw(st.sampled_from([i] * 8 + [True, -1])),
            "timestamp_s": draw(st.sampled_from([t] * 6 + [int(t), None])),
            "persons": [draw(wire_person(tid)) for tid in tids],
        })
    return frames


def _store_state(engine: StreamEngine) -> str:
    """Everything the window store holds, smoother state included, as text."""
    windows = engine._windows
    tracks = {key: (tr.timestamps, tr.skeletons) for key, tr in windows.window.items()}
    active = {
        tid: (key, pos, splits, sm._xy, sm._seen, sm._bbox)
        for tid, (key, pos, splits, sm) in windows._active.items()
    }
    return repr((tracks, list(windows.frames), active, windows.pos, engine._prev_t))


@pytest.fixture(scope="module")
def tiny_model():
    data = Dataset(("distance_mean", "A_velocity_mean"), [[0.0, 1.0], [1.0, 0.0]], [0, 1])
    return train(data, ForestConfig(n_trees=3))


@settings(max_examples=300, deadline=None)
@given(objs=wire_frames_of_people())
def test_engine_ingest_matches_the_oracles(tiny_model, objs):
    # the tiny model reads the distance and the center speed: the torso joints
    cfg = PipelineConfig()
    engine = StreamEngine(tiny_model, cfg)
    smoothers: dict = {}
    prev = None
    for obj in objs:
        obj_copy = copy.deepcopy(obj)
        before = _store_state(engine)
        try:
            want = ref.validate_frame(ref.obj_to_frame(obj_copy, cfg.fps), prev)
        except MalformedRecord as exc:
            want = str(exc)
        try:
            engine.process(streams.obj_to_frame(obj, cfg.fps))
        except MalformedRecord as exc:
            assert str(exc) == want
            assert _store_state(engine) == before
            continue
        assert not isinstance(want, str), want
        prev = want.timestamp
        smoothed = [
            (str(tid), smoothers.setdefault(
                tid, ref.SkeletonSmoother(cfg.alpha, ref.TORSO_JOINTS)).step(skel))
            for tid, skel in want.persons
        ]
        _, keys = engine._windows.frames[-1]
        got = [(key, engine._windows.window[key].skeletons[-1]) for key in keys]
        assert repr(got) == repr(smoothed)  # repr tells -0.0 from 0.0


@settings(max_examples=150, deadline=None)
@given(person=wire_person(1), index=st.integers(0, 50), value=wire_odd_value)
def test_a_skeleton_built_otherwise_has_no_verdict(person, index, value):
    """A verdict stored by the reader does not pass to a skeleton built from it."""
    try:
        frame = streams.obj_to_frame({"frame_index": 0, "persons": [person]})
    except MalformedRecord:
        return
    skel = frame.persons[0][1]
    assert "passes_whole" in vars(skel)
    xy, conf = list(skel.xy), list(skel.conf)
    if index < 34:
        xy[index] = value
    else:
        conf[index - 34] = value
    for other in (
        Skeleton(tuple(xy), tuple(conf), skel.bbox),
        replace(skel, xy=tuple(xy)),
        replace(skel, conf=tuple(conf)),
    ):
        assert "passes_whole" not in vars(other)
        record = frame_of(0, 0.0, [(1, other)])
        # repr: a NaN is not equal to itself
        assert repr(_outcome(validate_frame, record)) == repr(_outcome(ref.validate_frame, record))


# ---------------------------------------------------------------------------
# the line decoder against the standard library's json.loads


def _double(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


finite_double = st.one_of(
    st.integers(0, 2**64 - 1).map(_double).filter(math.isfinite),  # any bit pattern
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1.7976931348623157e308]),
    st.integers(-(2**63), 2**64).map(float),  # integral values
)


@st.composite
def wire_frames(draw):
    persons = []
    for tid in draw(st.lists(st.integers(-(2**63), 2**64 - 1), max_size=2, unique=True)):
        xy = tuple(draw(st.lists(finite_double, min_size=34, max_size=34)))
        conf = tuple(draw(st.lists(finite_double, min_size=17, max_size=17)))
        bbox = tuple(draw(st.lists(finite_double, min_size=4, max_size=4)))
        persons.append((tid, Skeleton(xy, conf, bbox)))
    return frame_of(draw(st.integers(0, 2**64 - 1)), draw(finite_double), persons)


def _formatted_line(frame: FrameRecord, fmt: str) -> str:
    """The frame's line with every float written as ``fmt % value``."""

    def numbers(values) -> str:
        return ",".join(fmt % v for v in values)

    persons = ",".join(
        '{"track_id":%d,"keypoints":[%s],"bbox":[%s]}'
        % (tid, ",".join("[%s]" % numbers(kp) for kp in skel.keypoints), numbers(skel.bbox))
        for tid, skel in frame.persons
    )
    return '{"frame_index":%d,"timestamp_s":%s,"persons":[%s]}' % (
        frame.frame_index, fmt % frame.timestamp, persons,
    )


def _exact(frame: FrameRecord) -> tuple:
    """Every value of the frame with its type; floats by ``float.hex``."""

    def values(vs) -> list:
        return [(type(v), v.hex() if type(v) is float else v) for v in vs]

    return (
        values([frame.frame_index, frame.timestamp]),
        [(values([tid]), values(skel.xy + skel.conf + skel.bbox)) for tid, skel in frame.persons],
    )


@settings(max_examples=300, deadline=None)
@given(wire_frames(), st.sampled_from([None, "%.17g", "%.25e"]))
def test_line_decoder_reads_what_json_loads_reads(frame, fmt):
    line = streams.frame_to_line(frame) if fmt is None else _formatted_line(frame, fmt)
    want = streams.obj_to_frame(json.loads(line))
    assert _exact(streams.line_to_frame(line)) == _exact(want)


@pytest.mark.parametrize(
    "old, new, accepted",
    [
        ('"track_id": 1', '"track_id": 18446744073709551615', True),  # 2**64 - 1
        ('"track_id": 1', '"track_id": 18446744073709551616', False),  # 2**64 reads as a float
        ('"frame_index": 0', '"frame_index": 0, "extra": NaN', False),
        ('"frame_index": 0', '"frame_index": 0, "extra": "\\ud800"', False),  # unpaired surrogate
    ],
)
def test_decoder_boundary(old, new, accepted):
    line = _one_person_line()
    assert old in line
    line = line.replace(old, new)
    if accepted:
        frame = validate_frame(streams.line_to_frame(line))
        assert frame.persons[0][0] == 2**64 - 1 and type(frame.persons[0][0]) is int
    else:
        with pytest.raises(MalformedRecord):
            validate_frame(streams.line_to_frame(line))
