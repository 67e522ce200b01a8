"""Synthetic scenario generator: determinism, validity, ground truth."""

import io

import pytest

from snatchdet import streams
from snatchdet.config import PipelineConfig
from snatchdet.features import pair_segment
from snatchdet.pipeline import extract_clip_row, order_roles
from snatchdet.synth import InvalidSpec, ScenarioSpec, generate, generate_corpus, ratio_counts
from snatchdet.types import validate_stream
from track_reference import smoothed_tracks


def clip_features(clip, cfg=None):
    return extract_clip_row(clip.frames, cfg or PipelineConfig())


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
        with pytest.raises(InvalidSpec):
            ScenarioSpec(kind="dance")
        with pytest.raises(InvalidSpec):
            ScenarioSpec(kind="snatch", duration=-1.0)
        with pytest.raises(InvalidSpec):
            ScenarioSpec(kind="snatch", noise_sigma=-0.1)

    def test_snatch_construction_guarantees(self):
        clip = generate(ScenarioSpec(kind="snatch", seed=21, noise_sigma=0.0))
        vector = clip_features(clip)
        assert vector.roles[0] == "1"  # mover is picked as the aggressor
        assert vector["handToTorso_min"] < 0.3
        assert vector["A_fastHandPct"] > 0.0
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
        vector = clip_features(clip)
        assert vector["A_velocity_max"] == 0.0
        assert vector["B_velocity_max"] == 0.0
        assert vector["A_handVelocity_max"] == 0.0
        assert clip.label == 0

    def test_benign_scenarios_stay_out_of_reach(self):
        for kind in ("walk_by", "handshake", "standing"):
            clip = generate(ScenarioSpec(kind=kind, seed=8, noise_sigma=0.0))
            vector = clip_features(clip)
            assert vector["handToTorso_min"] > 0.4, kind
            assert vector["fastAndClosePct"] == 0.0, kind


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
        with pytest.raises(InvalidSpec):
            generate_corpus()
        with pytest.raises(InvalidSpec):
            generate_corpus(n_per_class=2, total=10)
