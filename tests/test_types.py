"""Data-model validation, track building and wire-format round trips."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import frame_of, skeleton_from_keypoints, static_skeleton
from snatchdet import streams
from snatchdet.config import PipelineConfig
from snatchdet.forest import Dataset, ForestConfig, train
from snatchdet.pipeline import StreamEngine, TrackWindows
from snatchdet.types import (
    FrameRecord,
    Keypoint,
    MalformedRecord,
    Skeleton,
    validate_frame,
    validate_stream,
)


def make_frame(index=0, t=0.0, ids=(1,)):
    return frame_of(index, t, [(tid, static_skeleton((100.0 + 60 * tid, 100.0))) for tid in ids])


class TestValidateFrame:
    def test_accepts_valid_record_unchanged(self):
        record = make_frame(ids=(1, 2))
        assert validate_frame(record) is record

    def test_rejects_wrong_keypoint_count(self):
        with pytest.raises(MalformedRecord):
            skeleton_from_keypoints(tuple(Keypoint(0.0, 0.0, 0.5) for _ in range(16)), (0, 0, 10, 20))

    def test_rejects_duplicate_track_id(self):
        skel = static_skeleton()
        record = frame_of(0, 0.0, [(3, skel), (3, skel)])
        with pytest.raises(MalformedRecord, match="duplicate"):
            validate_frame(record)

    def test_rejects_non_finite_coordinate(self):
        kps = list(static_skeleton().keypoints)
        kps[4] = Keypoint(math.nan, 0.0, 0.5)
        record = frame_of(0, 0.0, [(1, skeleton_from_keypoints(kps, (0, 0, 10, 20)))])
        with pytest.raises(MalformedRecord):
            validate_frame(record)

    @pytest.mark.parametrize("value, ok", [(1e9, True), (-1e9, True), (1e200, False), (-1e200, False)])
    def test_coordinate_magnitude_bound(self, value, ok):
        kps = list(static_skeleton().keypoints)
        kps[0] = Keypoint(value, 0.0, 0.9)
        records = [
            frame_of(0, 0.0, [(1, skeleton_from_keypoints(kps, (0, 0, 10, 20)))]),
            frame_of(0, 0.0, [(1, skeleton_from_keypoints(static_skeleton().keypoints, (0, 0, 10, abs(value))))]),
        ]
        for record, where in zip(records, ("keypoint 0 x", "bbox y2")):
            if ok:
                assert validate_frame(record) is record
            else:
                with pytest.raises(MalformedRecord, match=where):
                    validate_frame(record)

    def test_rejects_bad_bbox_order(self):
        skel = static_skeleton()
        record = frame_of(0, 0.0, [(1, skeleton_from_keypoints(skel.keypoints, (10.0, 0.0, 0.0, 20.0)))])
        with pytest.raises(MalformedRecord, match="bbox"):
            validate_frame(record)

    @pytest.mark.parametrize("n", [3, 5])
    def test_bbox_of_wrong_length_is_malformed(self, n):
        # the skeleton refuses it, so neither validation nor the engine sees a
        # bare unpacking error
        model = train(Dataset(("distance_mean",), [[0.0], [1.0]], [0, 1]), ForestConfig(n_trees=1))
        skel = static_skeleton()
        bbox = tuple(10.0 * i for i in range(n))
        for consume in (validate_frame, StreamEngine(model, PipelineConfig()).process):
            with pytest.raises(MalformedRecord, match=f"bbox must have 4 values, got {n}"):
                consume(frame_of(0, 0.0, [(1, Skeleton(skel.xy, skel.conf, bbox))]))

    def test_clamps_confidence_within_slack(self):
        kps = list(static_skeleton().keypoints)
        kps[0] = Keypoint(1.0, 1.0, 1.0 + 5e-10)
        kps[1] = Keypoint(1.0, 1.0, -5e-10)
        record = frame_of(0, 0.0, [(1, skeleton_from_keypoints(kps, (0, 0, 300, 300)))])
        out = validate_frame(record)
        assert out.persons[0][1].keypoints[0].confidence == 1.0
        assert out.persons[0][1].keypoints[1].confidence == 0.0

    def test_rejects_confidence_beyond_slack(self):
        kps = list(static_skeleton().keypoints)
        kps[0] = Keypoint(1.0, 1.0, 1.01)
        record = frame_of(0, 0.0, [(1, skeleton_from_keypoints(kps, (0, 0, 300, 300)))])
        with pytest.raises(MalformedRecord, match="confidence"):
            validate_frame(record)

    def test_rejects_non_monotone_timestamp(self):
        with pytest.raises(MalformedRecord, match="strictly increase"):
            validate_stream([make_frame(0, 0.5), make_frame(1, 0.5)])

    def test_rejects_negative_frame_index(self):
        with pytest.raises(MalformedRecord):
            validate_frame(make_frame(index=-1))


def build_tracks(frames, max_gap=15):
    """Every track the windowing core holds after taking the whole stream,
    through a window longer than the stream, so that no frame leaves it."""
    cfg = PipelineConfig(max_gap_frames=max_gap, window_s=(len(frames) + 5) / 30.0)
    windows = TrackWindows(cfg)
    for record in frames:
        windows.advance(record)
    return windows.tracks()


class TestBuildTracks:
    def test_two_ids_throughout(self):
        frames = [make_frame(i, i / 30.0, ids=(1, 2)) for i in range(10)]
        tracks = build_tracks(frames)
        assert sorted(t.track_id for t in tracks) == ["1", "2"]
        assert all(len(t) == 10 for t in tracks)

    def test_gap_splits_track(self):
        frames = [make_frame(i, i / 30.0, ids=(1,)) for i in range(5)]
        frames += [make_frame(i, i / 30.0, ids=()) for i in range(5, 20)]
        frames += [make_frame(i, i / 30.0, ids=(1,)) for i in range(20, 25)]
        tracks = build_tracks(frames, max_gap=5)
        assert [t.track_id for t in tracks] == ["1", "1.1"]
        assert [len(t) for t in tracks] == [5, 5]

    def test_gap_within_threshold_keeps_track(self):
        frames = [make_frame(i, i / 30.0, ids=(1,) if i not in (2, 3) else ()) for i in range(8)]
        tracks = build_tracks(frames, max_gap=5)
        assert [t.track_id for t in tracks] == ["1"]
        assert len(tracks[0]) == 6

    def test_empty_input(self):
        assert build_tracks([]) == []

    def test_sample_count_preserved(self, rng):
        frames = []
        total = 0
        for i in range(40):
            ids = tuple(int(j) for j in np.flatnonzero(rng.random(4) < 0.6))
            frames.append(make_frame(i, i / 30.0, ids=ids))
            total += len(ids)
        tracks = build_tracks(frames, max_gap=3)
        assert sum(len(t) for t in tracks) == total

    def test_positions_recorded(self):
        # the track holds the samples of frames 0, 2 and 4, at their timestamps
        frames = [make_frame(i, i / 30.0, ids=(1,) if i % 2 == 0 else ()) for i in range(6)]
        (track,) = build_tracks(frames)
        assert track.timestamps == [0.0, 2 / 30.0, 4 / 30.0]


finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)
confidence = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


@st.composite
def frame_records(draw):
    n_persons = draw(st.integers(min_value=0, max_value=3))
    persons = []
    for tid in range(1, n_persons + 1):
        kps = tuple(
            Keypoint(draw(finite), draw(finite), draw(confidence)) for _ in range(17)
        )
        x1, x2 = sorted((draw(finite), draw(finite)))
        y1, y2 = sorted((draw(finite), draw(finite)))
        persons.append((tid, skeleton_from_keypoints(kps, (x1, y1, x2, y2))))
    return FrameRecord(
        frame_index=draw(st.integers(min_value=0, max_value=10**6)),
        timestamp=draw(st.floats(min_value=0.0, max_value=1e6, allow_nan=False)),
        persons=tuple(persons),
    )


@settings(max_examples=60, deadline=None)
@given(frame_records())
def test_wire_format_round_trip(record):
    validated = validate_frame(record)
    line = streams.frame_to_line(validated)
    parsed = streams.line_to_frame(line)
    assert parsed == validated


def test_wire_format_rejects_wrong_keypoint_count():
    triples = [[float(i), float(i), 0.5] for i in range(16)]
    line = (
        '{"frame_index": 0, "timestamp_s": 0.0, "persons": '
        '[{"track_id": 1, "keypoints": ' + str(triples) + ', "bbox": [0, 0, 10, 20]}]}'
    )
    with pytest.raises(MalformedRecord):
        streams.line_to_frame(line)


def test_wire_format_synthesizes_timestamp():
    line = (
        '{"frame_index": 60, "persons": []}'
    )
    frame = streams.line_to_frame(line, fps=30.0)
    assert frame.timestamp == pytest.approx(2.0)
