"""Pipeline configuration bounds."""

import pytest

from snatchdet.config import BadConfig, PipelineConfig
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
