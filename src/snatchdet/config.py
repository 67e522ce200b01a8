"""Pipeline configuration: one flat record of every tunable default."""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from typing import Optional

from .features import FeatureParams
from .forest import ForestConfig
from .temporal import HysteresisConfig


class BadConfig(ValueError):
    """Config file rejected (unknown key or out-of-range value)."""


@dataclass
class PipelineConfig:
    fps: float = 30.0
    alpha: float = 0.6
    max_gap_frames: int = 15

    window_s: float = 2.0
    stride_s: float = 0.5
    min_segment_frames: int = 5

    fast_hand_threshold: float = 1.5
    elbow_flex_threshold: float = 120.0
    close_hand_threshold: float = 0.4
    hand_toward_threshold: float = 0.7

    n_trees: int = 500
    seed: int = 42
    n_jobs: int = 1

    top_k: int = 10

    hysteresis_window: Optional[int] = None  # None derives W from fps
    hysteresis_n_on: Optional[int] = None
    hysteresis_n_off: Optional[int] = None
    prob_threshold: float = 0.5
    evidence_pre_s: float = 2.0
    evidence_post_s: float = 4.0

    sink_url: Optional[str] = None

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha < 1.0:
            raise BadConfig(f"alpha must be in (0, 1), got {self.alpha}")
        if self.fps <= 0:
            raise BadConfig("fps must be positive")
        if self.window_s <= 0 or self.stride_s <= 0:
            raise BadConfig("window_s and stride_s must be positive")
        # hand motion (speed, acceleration, jerk) needs three frames
        if self.min_segment_frames < 3:
            raise BadConfig("min_segment_frames must be >= 3")
        if self.top_k < 1:
            raise BadConfig(f"top_k must be at least 1, got {self.top_k}")
        if not 0.0 <= self.prob_threshold <= 1.0:
            raise BadConfig("prob_threshold must be in [0, 1]")
        try:
            self.hysteresis()
        except ValueError as exc:
            raise BadConfig(f"hysteresis: {exc}") from exc

    @property
    def window_frames(self) -> int:
        return max(2, round(self.window_s * self.fps))

    @property
    def stride_frames(self) -> int:
        return max(1, round(self.stride_s * self.fps))

    def feature_params(self) -> FeatureParams:
        return FeatureParams(
            fast_hand_threshold=self.fast_hand_threshold,
            elbow_flex_threshold=self.elbow_flex_threshold,
            close_hand_threshold=self.close_hand_threshold,
            hand_toward_threshold=self.hand_toward_threshold,
            min_segment_frames=self.min_segment_frames,
        )

    def forest(self) -> ForestConfig:
        return ForestConfig(n_trees=self.n_trees, seed=self.seed, n_jobs=self.n_jobs)

    def hysteresis(self) -> HysteresisConfig:
        """W, N_on and N_off as set, each unset one from ``HysteresisConfig.for_fps``."""
        base = HysteresisConfig.for_fps(self.fps)
        return HysteresisConfig(
            window=base.window if self.hysteresis_window is None else self.hysteresis_window,
            n_on=base.n_on if self.hysteresis_n_on is None else self.hysteresis_n_on,
            n_off=base.n_off if self.hysteresis_n_off is None else self.hysteresis_n_off,
        )


def load_config(path: Optional[str] = None, overrides: Optional[dict] = None) -> PipelineConfig:
    """Build the config from a JSON file plus explicit overrides.

    Unknown keys are rejected so typos fail loudly.
    """
    known = {f.name for f in dataclasses.fields(PipelineConfig)}
    values: dict = {}
    if path is not None:
        with open(path, "r", encoding="utf-8") as fh:
            try:
                doc = json.load(fh)
            except json.JSONDecodeError as exc:
                raise BadConfig(f"config file is not valid JSON: {exc}") from exc
        if not isinstance(doc, dict):
            raise BadConfig("config file must hold a JSON object")
        unknown = set(doc) - known
        if unknown:
            raise BadConfig(f"unknown config keys: {sorted(unknown)}")
        values.update(doc)
    if overrides:
        unknown = set(overrides) - known
        if unknown:
            raise BadConfig(f"unknown config keys: {sorted(unknown)}")
        values.update({k: v for k, v in overrides.items() if v is not None})
    try:
        return PipelineConfig(**values)
    except TypeError as exc:
        raise BadConfig(str(exc)) from exc
