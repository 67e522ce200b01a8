"""Pipeline configuration bounds."""

import pytest

from snatchdet.config import BadConfig, PipelineConfig
from snatchdet.features import MIN_SEGMENT_FRAMES
from snatchdet.temporal import HysteresisConfig


@pytest.mark.parametrize("top_k", [0, -1])
def test_top_k_below_one_rejected(top_k):
    with pytest.raises(BadConfig, match="top_k"):
        PipelineConfig(top_k=top_k)


@pytest.mark.parametrize("key", ["hysteresis_window", "hysteresis_n_on", "hysteresis_n_off"])
def test_explicit_zero_hysteresis_value_is_not_replaced_by_the_default(key):
    # 0 is a value, not "unset": it breaks 1 <= N_off < N_on <= W
    with pytest.raises(BadConfig, match="hysteresis"):
        PipelineConfig(**{key: 0})


def test_inconsistent_hysteresis_rejected_at_load():
    # W derives from fps (12 at 30 fps); N_on may not exceed it
    with pytest.raises(BadConfig, match="N_on=20"):
        PipelineConfig(hysteresis_n_on=20)


def test_explicit_hysteresis_values_are_used():
    hcfg = PipelineConfig(hysteresis_window=5, hysteresis_n_on=3, hysteresis_n_off=1).hysteresis()
    assert (hcfg.window, hcfg.n_on, hcfg.n_off) == (5, 3, 1)
    assert PipelineConfig().hysteresis() == HysteresisConfig.for_fps(30.0)


@pytest.mark.parametrize("key, value", [("evidence_pre_s", 0.0), ("evidence_pre_s", -0.5),
                                        ("evidence_post_s", -1.0), ("evidence_post_s", -1e-9)])
def test_evidence_span_that_cannot_bracket_the_trigger_rejected(key, value):
    # start < trigger <= end needs a positive pre-span and a nonnegative post-span
    with pytest.raises(BadConfig, match=key):
        PipelineConfig(**{key: value})


@pytest.mark.parametrize("max_gap_frames", [0, -1])
def test_max_gap_below_one_frame_rejected(max_gap_frames):
    # every id would come back under a new key on every frame
    with pytest.raises(BadConfig, match="max_gap_frames"):
        PipelineConfig(max_gap_frames=max_gap_frames)


def test_window_shorter_than_the_shortest_segment_rejected():
    # 0.15 s at 30 fps rounds to 4 frames: no pair in it could be classified
    with pytest.raises(BadConfig, match="got 4"):
        PipelineConfig(window_s=0.15)
    with pytest.raises(BadConfig, match="window_s"):
        PipelineConfig(fps=10.0, window_s=0.4)


def test_values_at_the_bounds_accepted():
    cfg = PipelineConfig(
        window_s=MIN_SEGMENT_FRAMES / 30.0, max_gap_frames=1, evidence_pre_s=1e-3, evidence_post_s=0.0
    )
    assert cfg.window_frames == MIN_SEGMENT_FRAMES
