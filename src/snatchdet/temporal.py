"""Hysteresis alarm filter over frame-level robbery predictions.

The raw per-frame prediction stream is noisy; the alarm turns on only when
at least N_on positive predictions fall inside the last W frames, and once
on it turns off only when positives drop to at most N_off in the window
(N_off < N_on). The two-threshold rule prevents alarm chatter from short
bursts of false positives or negatives.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Optional


class NotActivationEvent(ValueError):
    """Evidence windows are only defined for activation events."""


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


@dataclass(frozen=True)
class AlarmEvent:
    kind: str  # "activated" | "deactivated"
    timestamp: float
    window_count: int  # positives in the window at the transition


@dataclass
class AlarmState:
    """Sliding prediction window plus the binary alarm state."""

    window: deque = field(default_factory=deque)
    state: int = 0
    positives: int = 0


def step(
    state: AlarmState, y_hat: int, cfg: HysteresisConfig, timestamp: float
) -> tuple[AlarmState, Optional[AlarmEvent]]:
    """Push one prediction, then evaluate the transition rules.

    During warm-up (fewer than W samples seen) the count runs over the
    samples seen so far. Returns the mutated state and the transition
    event, if one fired.
    """
    y = 1 if y_hat else 0
    state.window.append(y)
    state.positives += y
    if len(state.window) > cfg.window:
        state.positives -= state.window.popleft()

    count = state.positives
    event: Optional[AlarmEvent] = None
    if state.state == 0 and count >= cfg.n_on:
        state.state = 1
        event = AlarmEvent(kind="activated", timestamp=timestamp, window_count=count)
    elif state.state == 1 and count <= cfg.n_off:
        state.state = 0
        event = AlarmEvent(kind="deactivated", timestamp=timestamp, window_count=count)
    return state, event


@dataclass(frozen=True)
class EvidenceWindow:
    start: float
    end: float
    event: AlarmEvent
    start_frame: int
    end_frame: int

    def __post_init__(self) -> None:
        if not self.start < self.event.timestamp <= self.end:
            raise ValueError("evidence window must bracket the trigger time")


def evidence_window(
    event: AlarmEvent,
    pre_span: float = 2.0,
    post_span: float = 4.0,
    fps: float = 30.0,
    stream_start: float = 0.0,
) -> EvidenceWindow:
    """Span of footage to store around an activation, clamped at stream start."""
    if event.kind != "activated":
        raise NotActivationEvent(f"cannot build evidence for a {event.kind!r} event")
    start = max(stream_start, event.timestamp - pre_span)
    end = event.timestamp + post_span
    return EvidenceWindow(
        start=start,
        end=end,
        event=event,
        start_frame=round(start * fps),
        end_frame=round(end * fps),
    )
