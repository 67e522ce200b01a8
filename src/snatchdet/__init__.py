"""Snatch-and-run robbery detection from pose keypoint streams."""

from .config import PipelineConfig, load_config
from .features import (
    FeatureSchema,
    FeatureVector,
    extract_segment,
    full_schema,
    pair_segment,
)
from .forest import Dataset, ForestConfig, ForestModel, predict, train
from .pipeline import StreamEngine, extract_clip_row, extract_windows
from .preprocess import aggressor_probabilities
from .selection import pca_project, select_top_k
from .synth import Clip, ScenarioSpec, generate, generate_corpus
from .temporal import AlarmState, HysteresisConfig, step
from .types import FrameRecord, Keypoint, PairSegment, Skeleton, Track, torso_height, validate_frame

__version__ = "0.1.0"

__all__ = [
    "AlarmState",
    "Clip",
    "Dataset",
    "FeatureSchema",
    "FeatureVector",
    "ForestConfig",
    "ForestModel",
    "FrameRecord",
    "HysteresisConfig",
    "Keypoint",
    "PairSegment",
    "PipelineConfig",
    "ScenarioSpec",
    "Skeleton",
    "StreamEngine",
    "Track",
    "aggressor_probabilities",
    "extract_clip_row",
    "extract_segment",
    "extract_windows",
    "full_schema",
    "generate",
    "generate_corpus",
    "load_config",
    "pair_segment",
    "pca_project",
    "predict",
    "select_top_k",
    "step",
    "torso_height",
    "train",
    "validate_frame",
]
