"""Snatch-and-run robbery detection from pose keypoint streams."""

from .config import PipelineConfig, load_config
from .features import (
    FeatureSchema,
    extract_segment,
    full_schema,
    pair_segment,
)
from .forest import Dataset, ForestConfig, ForestModel, predict, train
from .pipeline import StreamEngine, extract_windows
from .temporal import AlarmState, HysteresisConfig, step
from .types import FrameRecord, Keypoint, PairSegment, Skeleton, Track, torso_height, validate_frame

__version__ = "0.1.0"

# exports of the modules only simulation and training use, imported on first
# use (PEP 562) so that importing the package, as every stream process does,
# loads neither them nor numpy
_LAZY = {
    "Clip": "synth",
    "ScenarioSpec": "synth",
    "generate": "synth",
    "generate_corpus": "synth",
    "pca_project": "selection",
    "select_top_k": "selection",
}


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    return getattr(import_module(f".{_LAZY[name]}", __name__), name)


__all__ = [
    "AlarmState",
    "Clip",
    "Dataset",
    "FeatureSchema",
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
