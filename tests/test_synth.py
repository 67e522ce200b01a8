"""Synthetic scenario generator: determinism, validity, ground truth."""

import io
from unittest import mock

import pytest

from conftest import by_name
from snatchdet import pipeline, streams
from snatchdet.config import PipelineConfig
from snatchdet.features import full_schema, pair_segment
from snatchdet.pipeline import extract_windows, order_roles
from snatchdet.synth import ScenarioSpec, generate, generate_corpus, ratio_counts, window_labels
from snatchdet.types import MalformedRecord, validate_stream
from track_reference import smoothed_tracks


def window_features(clip, cfg=None):
    """(window label, aggressor id, features by name) of every window sliding
    extraction cuts from the clip."""
    cfg = cfg or PipelineConfig()
    labels = dict(window_labels(clip, cfg))
    aggressors = []
    extract = pipeline.extract_segment

    def recording_extract(segment, *args):
        aggressors.append(segment.aggressor.track_id)
        return extract(segment, *args)

    with mock.patch.object(pipeline, "extract_segment", recording_extract):
        rows = extract_windows(clip.frames, cfg, stream_id=clip.clip_id)
    schema = full_schema()
    return [(labels[sid], agg, by_name(schema, row)) for (sid, row), agg in zip(rows, aggressors)]


def stream_bytes(frames):
    buf = io.StringIO()
    streams.write_stream(buf, frames)
    return buf.getvalue()


class TestGenerate:
    def test_deterministic(self):
        spec = ScenarioSpec(kind="snatch", seed=123, noise_sigma=1.5)
        a = generate(spec)
        b = generate(spec)
        assert stream_bytes(a.frames) == stream_bytes(b.frames)

    def test_all_frames_validate(self):
        for kind in ("snatch", "walk_by", "handshake", "standing"):
            clip = generate(ScenarioSpec(kind=kind, seed=5, noise_sigma=2.0, duration=3.0))
            validate_stream(clip.frames)

    def test_invalid_spec(self):
        with pytest.raises(MalformedRecord):
            ScenarioSpec(kind="dance")
        with pytest.raises(MalformedRecord):
            ScenarioSpec(kind="snatch", duration=-1.0)
        with pytest.raises(MalformedRecord):
            ScenarioSpec(kind="snatch", noise_sigma=-0.1)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize("field", ["duration", "fps", "noise_sigma", "scale"])
    def test_non_finite_value_rejected(self, field, value):
        # a NaN noise_sigma would pass "nonnegative" and give noiseless clips
        with pytest.raises(MalformedRecord, match=f"^{field} must be finite, got {value}$"):
            ScenarioSpec(kind="snatch", **{field: value})

    def test_frame_count_that_overflows_rejected(self):
        with pytest.raises(MalformedRecord, match=r"^duration \* fps must be finite$"):
            ScenarioSpec(kind="snatch", duration=1e308, fps=30.0)

    def test_snatch_construction_guarantees(self):
        clip = generate(ScenarioSpec(kind="snatch", seed=21, noise_sigma=0.0))
        # the windows that contain the event
        windows = [(agg, values) for label, agg, values in window_features(clip) if label]
        assert windows
        for aggressor, values in windows:
            assert aggressor == "1"  # mover is picked as the aggressor
            assert values["handToTorso_min"] < 0.3
            assert values["A_fastHandPct"] > 0.0
        assert clip.label == 1
        assert 0.0 < clip.event_time < clip.spec.duration

    def test_snatch_contact_time_near_ground_truth(self):
        cfg = PipelineConfig()
        for seed in (1, 22, 333):
            clip = generate(ScenarioSpec(kind="snatch", seed=seed, noise_sigma=0.0))
            tracks = smoothed_tracks(clip.frames, cfg)
            agg, vic = order_roles(tracks[0], tracks[1], clip.spec.duration)
            pair = pair_segment(agg, vic, fps=clip.spec.fps)
            from snatchdet.features import (
                hand_motion,
                interaction_distance,
                reaching,
                wrist_velocities,
            )

            hands = hand_motion(pair.aggressor, wrist_velocities(pair.aggressor))
            distance = interaction_distance(pair)["distance"]
            values = reaching(pair, hands["handVelocity"], distance)["handToTorso"]
            present = [v for v in values if v is not None]
            best = min(i for i, v in enumerate(values) if v is not None and v == min(present))
            t_min = pair.aggressor.timestamps[best]
            assert abs(t_min - clip.event_time) <= 0.3

    def test_standing_zero_noise_has_zero_velocity(self):
        clip = generate(ScenarioSpec(kind="standing", seed=3, noise_sigma=0.0))
        windows = window_features(clip)
        assert windows
        for label, _, values in windows:
            assert label == 0
            assert values["A_velocity_max"] == 0.0
            assert values["B_velocity_max"] == 0.0
            assert values["A_handVelocity_max"] == 0.0
        assert clip.label == 0

    def test_benign_scenarios_stay_out_of_reach(self):
        for kind in ("walk_by", "handshake", "standing"):
            clip = generate(ScenarioSpec(kind=kind, seed=8, noise_sigma=0.0))
            windows = window_features(clip)
            assert windows, kind
            for label, _, values in windows:
                assert label == 0, kind
                assert values["handToTorso_min"] > 0.4, kind
                assert values["fastAndClosePct"] == 0.0, kind


class TestCorpus:
    def test_balanced_counts(self):
        clips = generate_corpus(n_per_class=5, seed=2, duration=2.0)
        assert len(clips) == 10
        assert sum(c.label for c in clips) == 5
        kinds = {c.spec.kind for c in clips if c.label == 0}
        assert kinds == {"walk_by", "handshake", "standing"}

    def test_ratio_mode_matches_class_counts(self):
        assert ratio_counts(90) == (29, 61)
        clips = generate_corpus(total=90, seed=2, duration=0.2, fps=30.0)
        assert len(clips) == 90
        assert sum(c.label for c in clips) == 29

    def test_corpus_deterministic(self):
        a = generate_corpus(n_per_class=2, seed=7, duration=1.0)
        b = generate_corpus(n_per_class=2, seed=7, duration=1.0)
        assert [c.clip_id for c in a] == [c.clip_id for c in b]
        for ca, cb in zip(a, b):
            assert stream_bytes(ca.frames) == stream_bytes(cb.frames)

    def test_per_clip_seeds_differ(self):
        clips = generate_corpus(n_per_class=2, seed=7, duration=1.0)
        assert len({c.spec.seed for c in clips}) == len(clips)

    def test_arg_validation(self):
        with pytest.raises(MalformedRecord):
            generate_corpus()
        with pytest.raises(MalformedRecord):
            generate_corpus(n_per_class=2, total=10)
        with pytest.raises(MalformedRecord, match="seed must be nonnegative, got -1"):
            generate_corpus(n_per_class=2, seed=-1)


class TestWindowLabels:
    def test_one_label_per_stride_point_by_the_event_time(self):
        cfg = PipelineConfig()
        clip = generate(ScenarioSpec(kind="snatch", seed=21, noise_sigma=1.0, duration=6.0))
        clip.clip_id = "c"
        labels = window_labels(clip, cfg)
        # 180 frames: windows of 60 end at 59, 74, ..., 179
        assert [sid for sid, _ in labels] == [f"c#1|2#{end}" for end in range(59, 180, 15)]
        for sid, label in labels:
            end = int(sid.rsplit("#", 1)[1])
            assert label == int((end - 59) / 30.0 <= clip.event_time <= end / 30.0), sid
        assert 0 < sum(label for _, label in labels) < len(labels)

    def test_ids_are_the_rows_extraction_writes(self):
        cfg = PipelineConfig(fps=25.0)
        clip = generate(ScenarioSpec(kind="walk_by", seed=4, noise_sigma=1.0, duration=5.0, fps=25.0))
        clip.clip_id = "w"
        rows = extract_windows(clip.frames, cfg, stream_id="w")
        assert [sid for sid, _ in window_labels(clip, cfg)] == [sid for sid, _ in rows]
        assert {label for _, label in window_labels(clip, cfg)} == {0}
