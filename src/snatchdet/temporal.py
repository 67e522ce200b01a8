"""Hysteresis alarm filter over frame-level robbery predictions.

The raw per-frame prediction stream is noisy; the alarm turns on only when
at least N_on positive predictions fall inside the last W frames, and once
on it turns off only when positives drop to at most N_off in the window
(N_off < N_on). The two-threshold rule prevents alarm chatter from short
bursts of false positives or negatives.

This module is that state machine and nothing else: ``step`` reports a
transition's kind, and ``pipeline`` writes the alert and evidence lines.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Optional


@dataclass(frozen=True)
class HysteresisConfig:
    window: int  # W, frames
    n_on: int
    n_off: int

    def __post_init__(self) -> None:
        if not (1 <= self.n_off < self.n_on <= self.window):
            raise ValueError(
                f"need 1 <= N_off < N_on <= W, got W={self.window}, "
                f"N_on={self.n_on}, N_off={self.n_off}"
            )

    @classmethod
    def for_fps(cls, fps: float) -> "HysteresisConfig":
        """Defaults: W covers about 0.4 s of video, N_on=ceil(0.6 W), N_off=floor(0.2 W)."""
        w = max(2, round(0.4 * fps))
        n_on = max(2, math.ceil(0.6 * w))
        n_off = max(1, math.floor(0.2 * w))
        if n_off >= n_on:
            n_off = n_on - 1
        return cls(window=w, n_on=n_on, n_off=n_off)


@dataclass
class AlarmState:
    """Sliding prediction window plus the binary alarm state."""

    window: deque = field(default_factory=deque)
    state: int = 0
    positives: int = 0


def step(state: AlarmState, y_hat: int, cfg: HysteresisConfig) -> Optional[str]:
    """Push one prediction into ``state``, then evaluate the transition rules.

    During warm-up (fewer than W samples seen) the count runs over the
    samples seen so far. Returns the transition's kind, ``"activated"`` or
    ``"deactivated"``, or None; the count at the transition is
    ``state.positives``.
    """
    y = 1 if y_hat else 0
    state.window.append(y)
    state.positives += y
    if len(state.window) > cfg.window:
        state.positives -= state.window.popleft()

    if state.state == 0 and state.positives >= cfg.n_on:
        state.state = 1
        return "activated"
    if state.state == 1 and state.positives <= cfg.n_off:
        state.state = 0
        return "deactivated"
    return None
