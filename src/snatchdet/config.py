"""Pipeline configuration: one flat record of every run setting.

The feature thresholds and the shortest segment are not here: they are
constants of ``features``, since a model only knows its feature names. A
window must still hold that shortest segment (``window_frames`` at least
``MIN_SEGMENT_FRAMES``), or no window could ever be classified.
"""

from __future__ import annotations

import dataclasses
import json
import math
import typing
from dataclasses import dataclass
from typing import Optional

from .features import MIN_SEGMENT_FRAMES
from .forest import ForestConfig
from .temporal import HysteresisConfig


class BadConfig(ValueError):
    """Config file rejected (unknown key, value of the wrong type or out of range)."""


@dataclass
class PipelineConfig:
    fps: float = 30.0
    alpha: float = 0.6
    max_gap_frames: int = 15

    window_s: float = 2.0
    stride_s: float = 0.5

    n_trees: int = 500
    seed: int = 42

    top_k: int = 10

    hysteresis_window: Optional[int] = None  # None derives W from fps
    hysteresis_n_on: Optional[int] = None
    hysteresis_n_off: Optional[int] = None
    prob_threshold: float = 0.5
    evidence_pre_s: float = 2.0
    evidence_post_s: float = 4.0

    sink_url: Optional[str] = None

    def __post_init__(self) -> None:
        hints = typing.get_type_hints(PipelineConfig)
        for field in dataclasses.fields(self):
            value = getattr(self, field.name)
            kinds = typing.get_args(hints[field.name]) or (hints[field.name],)
            if value is None and type(None) in kinds:
                continue
            accepted = (int, float) if float in kinds else kinds
            if isinstance(value, bool) or not isinstance(value, accepted):
                name = next(k.__name__ for k in kinds if k is not type(None))
                raise BadConfig(f"{field.name} must be of type {name}, got {value!r}")
            if float in kinds and not math.isfinite(value):
                raise BadConfig(f"{field.name} must be finite, got {value!r}")
        if not 0.0 < self.alpha < 1.0:
            raise BadConfig(f"alpha must be in (0, 1), got {self.alpha}")
        if self.fps <= 0:
            raise BadConfig("fps must be positive")
        if self.window_s <= 0 or self.stride_s <= 0:
            raise BadConfig("window_s and stride_s must be positive")
        if self.window_frames < MIN_SEGMENT_FRAMES:
            raise BadConfig(
                f"window_s * fps must round to at least {MIN_SEGMENT_FRAMES} frames"
                f" (the shortest segment), got {self.window_frames}"
            )
        if self.max_gap_frames < 1:
            raise BadConfig(f"max_gap_frames must be at least 1, got {self.max_gap_frames}")
        if self.top_k < 1:
            raise BadConfig(f"top_k must be at least 1, got {self.top_k}")
        if not 0.0 <= self.prob_threshold <= 1.0:
            raise BadConfig("prob_threshold must be in [0, 1]")
        # an evidence window starts before its trigger and ends at it or later
        if self.evidence_pre_s <= 0:
            raise BadConfig(f"evidence_pre_s must be positive, got {self.evidence_pre_s}")
        if self.evidence_post_s < 0:
            raise BadConfig(f"evidence_post_s must not be negative, got {self.evidence_post_s}")
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

    def forest(self) -> ForestConfig:
        return ForestConfig(n_trees=self.n_trees, seed=self.seed)

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
    return PipelineConfig(**values)
