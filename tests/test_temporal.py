"""Hysteresis alarm state machine, and the evidence window of an activation's alert record."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import run_alarm
from snatchdet.config import PipelineConfig
from snatchdet.pipeline import AlertRecord
from snatchdet.temporal import HysteresisConfig


def brute_force(seq, cfg):
    """Recompute the window sum from scratch at every frame."""
    state = 0
    states, events = [], []
    for t in range(len(seq)):
        window = seq[max(0, t - cfg.window + 1) : t + 1]
        count = sum(window)
        if state == 0 and count >= cfg.n_on:
            state = 1
            events.append(("activated", t, count))
        elif state == 1 and count <= cfg.n_off:
            state = 0
            events.append(("deactivated", t, count))
        states.append(state)
    return states, events


def all_configs(max_w):
    for w in range(1, max_w + 1):
        for n_on in range(2, w + 1):
            for n_off in range(1, n_on):
                yield HysteresisConfig(window=w, n_on=n_on, n_off=n_off)


class TestConfig:
    def test_invariant_enforced(self):
        with pytest.raises(ValueError):
            HysteresisConfig(window=5, n_on=3, n_off=3)
        with pytest.raises(ValueError):
            HysteresisConfig(window=5, n_on=6, n_off=1)
        with pytest.raises(ValueError):
            HysteresisConfig(window=5, n_on=2, n_off=0)

    def test_fps_defaults(self):
        cfg = HysteresisConfig.for_fps(30.0)
        assert cfg.window == 12
        assert cfg.n_on == 8
        assert cfg.n_off == 2
        low = HysteresisConfig.for_fps(5.0)
        assert 1 <= low.n_off < low.n_on <= low.window


class TestStep:
    def test_all_ones_activates_at_third_frame(self):
        cfg = HysteresisConfig(window=5, n_on=3, n_off=1)
        states, events = run_alarm([1] * 8, cfg)
        assert [kind for kind, _, _ in events] == ["activated"]
        assert events[0][1] == 2.0  # zero-based frame of the third 1
        assert states[:3] == [0, 0, 1]

    def test_deactivates_when_count_drops(self):
        cfg = HysteresisConfig(window=5, n_on=3, n_off=1)
        seq = [1, 1, 1] + [0] * 8
        states, events = run_alarm(seq, cfg)
        ref_states, ref_events = brute_force(seq, cfg)
        assert states == ref_states
        assert [kind for kind, _, _ in events] == ["activated", "deactivated"]
        assert events[1][2] <= cfg.n_off

    def test_all_zeros_never_activates(self):
        cfg = HysteresisConfig(window=5, n_on=3, n_off=1)
        states, events = run_alarm([0] * 20, cfg)
        assert states == [0] * 20
        assert events == []

    def test_warmup_counts_seen_samples(self):
        cfg = HysteresisConfig(window=10, n_on=2, n_off=1)
        _, events = run_alarm([1, 1], cfg)
        assert [kind for kind, _, _ in events] == ["activated"]
        assert events[0][1] == 1.0


class TestExhaustive:
    def test_small_exhaustive_matches_brute_force(self):
        for cfg in all_configs(4):
            for length in range(1, 9):
                for bits in range(2**length):
                    seq = [(bits >> i) & 1 for i in range(length)]
                    states, events = run_alarm(seq, cfg)
                    ref_states, ref_events = brute_force(seq, cfg)
                    assert states == ref_states, (cfg, seq)
                    want = [(k, float(t), c) for k, t, c in ref_events]
                    assert events == want, (cfg, seq)

    def test_events_alternate(self):
        cfg = HysteresisConfig(window=4, n_on=3, n_off=1)
        rngseq = [1, 1, 1, 0, 0, 0, 0, 1, 1, 1, 1, 0, 0, 0, 0, 1]
        _, events = run_alarm(rngseq, cfg)
        kinds = [kind for kind, _, _ in events]
        for a, b in zip(kinds, kinds[1:]):
            assert a != b
        if kinds:
            assert kinds[0] == "activated"

    def test_mutual_exclusion_of_transition_conditions(self):
        # N_off < N_on means count >= N_on and count <= N_off cannot hold at once
        for cfg in all_configs(6):
            for count in range(cfg.window + 1):
                assert not (count >= cfg.n_on and count <= cfg.n_off)


@settings(max_examples=120, deadline=None)
@given(
    st.lists(st.integers(min_value=0, max_value=1), min_size=1, max_size=40),
    st.integers(min_value=2, max_value=8),
    st.data(),
)
def test_streaming_matches_brute_force(seq, w, data):
    n_on = data.draw(st.integers(min_value=2, max_value=w))
    n_off = data.draw(st.integers(min_value=1, max_value=n_on - 1))
    cfg = HysteresisConfig(window=w, n_on=n_on, n_off=n_off)
    states, events = run_alarm(seq, cfg)
    ref_states, ref_events = brute_force(seq, cfg)
    assert states == ref_states
    assert [(k, t) for k, t, _ in events] == [(k, float(t)) for k, t, _ in ref_events]


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_debounce_short_bursts_never_activate(data):
    w = data.draw(st.integers(min_value=2, max_value=8))
    n_on = data.draw(st.integers(min_value=2, max_value=w))
    n_off = data.draw(st.integers(min_value=1, max_value=n_on - 1))
    cfg = HysteresisConfig(window=w, n_on=n_on, n_off=n_off)
    # bursts strictly shorter than N_on separated by >= W zeros
    n_bursts = data.draw(st.integers(min_value=1, max_value=4))
    seq = []
    for _ in range(n_bursts):
        seq += [1] * data.draw(st.integers(min_value=0, max_value=n_on - 1))
        seq += [0] * w
    states, events = run_alarm(seq, cfg)
    assert events == []
    assert all(s == 0 for s in states)


def test_raising_n_on_never_activates_earlier():
    seq = [1, 0, 1, 1, 0, 1, 1, 1, 0, 0, 1, 1, 1, 1]
    for w in range(3, 7):
        previous = None
        for n_on in range(2, w + 1):
            cfg = HysteresisConfig(window=w, n_on=n_on, n_off=1)
            _, events = run_alarm(seq, cfg)
            first = next((t for kind, t, _ in events if kind == "activated"), None)
            if previous is not None and first is not None:
                assert first >= previous
            if first is not None:
                previous = first


class TestEvidenceWindow:
    CFG = PipelineConfig(evidence_pre_s=2.0, evidence_post_s=4.0, fps=30.0)

    def test_basic_span(self):
        ev = AlertRecord.of("1|2", "activated", 10.0, 4, self.CFG, stream_start=0.0).evidence
        assert (ev["start_s"], ev["end_s"]) == (8.0, 14.0)
        assert (ev["start_frame"], ev["end_frame"]) == (240, 420)

    def test_clamped_at_stream_start(self):
        ev = AlertRecord.of("1|2", "activated", 1.0, 4, self.CFG, stream_start=0.0).evidence
        assert (ev["start_s"], ev["end_s"]) == (0.0, 5.0)

    def test_rejects_deactivation(self):
        assert AlertRecord.of("1|2", "deactivated", 3.0, 0, self.CFG, stream_start=0.0).evidence is None
