"""Pipeline configuration bounds."""

import math

import pytest

from conftest import random_segment
from snatchdet.config import BadConfig, PipelineConfig
from snatchdet.features import extract_segment, full_schema


def test_min_segment_frames_below_three_rejected():
    with pytest.raises(BadConfig, match="min_segment_frames"):
        PipelineConfig(min_segment_frames=2)


def test_three_frame_segment_extracts_under_full_schema(rng):
    params = PipelineConfig(min_segment_frames=3).feature_params()
    schema = full_schema()
    vector = extract_segment(random_segment(rng, 3), schema, params)
    assert list(vector.values) == list(schema.names)
    assert all(math.isfinite(v) for v in vector.values.values())
