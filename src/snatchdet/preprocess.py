"""Trajectory smoothing, scale normalization and aggressor/victim roles.

Joint trajectories are denoised with an exponential moving average
(x_smooth = alpha * x + (1 - alpha) * x_prev, initialized at the first
sample). All distances downstream are expressed in torso heights, the
shoulder-midpoint to hip-midpoint distance, so features are insensitive to
subject-camera distance. The aggressor role probability of each track comes
from its mean body-center translation, softmax-normalized over the tracks
in view: the person who moves more abruptly is the more likely aggressor.
The smoother checks no input rule: it is handed skeletons that
``types.validate_frame`` has passed, and builds its output unchecked.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Optional, Sequence

from .types import (
    NUM_KEYPOINTS,
    VALID_CONFIDENCE,
    Skeleton,
    Track,
    center_speed,
    ordered_sum,
    track_order,
    track_steps,
    trusted_skeleton,
)

DEFAULT_ALPHA = 0.6


class InvalidAlpha(ValueError):
    """EMA coefficient outside the open interval (0, 1)."""


class InsufficientHistory(ValueError):
    """No track has the two samples needed to estimate translation."""


@dataclass(frozen=True)
class RoleAssignment:
    track_id: str
    p_aggressor: float


class SkeletonSmoother:
    """Streaming EMA over every joint coordinate and the bbox corners.

    Invalid keypoints (confidence below the validity threshold) do not
    update the filter state: the last smoothed position is carried forward
    and the output keypoint keeps its low confidence, so it stays flagged
    invalid. Until a joint has seen one valid sample its raw position is
    passed through unchanged. The state is one flat list of 34 coordinates
    in the ``Skeleton.xy`` layout plus one "seen" flag per joint; an unseen
    joint's slots hold its latest raw position.
    """

    def __init__(self, alpha: float = DEFAULT_ALPHA):
        if not 0.0 < alpha < 1.0:
            raise InvalidAlpha(f"alpha must be in (0, 1), got {alpha}")
        self.alpha = alpha
        self._xy: list[float] = [0.0] * (2 * NUM_KEYPOINTS)
        self._seen = [False] * NUM_KEYPOINTS
        self._bbox: Optional[tuple[float, float, float, float]] = None

    def step(self, skel: Skeleton) -> Skeleton:
        a = self.alpha
        b = 1.0 - a
        state, seen = self._xy, self._seen
        raw, conf = skel.xy, skel.conf
        for j in range(NUM_KEYPOINTS):
            ix, iy = 2 * j, 2 * j + 1
            if seen[j]:
                if conf[j] >= VALID_CONFIDENCE:
                    # An unchanged sample keeps the state: that is the exact
                    # fixed point of the recursion, which plain float
                    # arithmetic would miss by an ulp.
                    x, y = raw[ix], raw[iy]
                    px, py = state[ix], state[iy]
                    if x != px:
                        state[ix] = a * x + b * px
                    if y != py:
                        state[iy] = a * y + b * py
            else:
                state[ix], state[iy] = raw[ix], raw[iy]
                seen[j] = conf[j] >= VALID_CONFIDENCE
        box = skel.bbox
        if self._bbox is not None:
            # the same EMA, corner by corner
            x1, y1, x2, y2 = box
            p1, q1, p2, q2 = self._bbox
            box = (
                p1 if x1 == p1 else a * x1 + b * p1,
                q1 if y1 == q1 else a * y1 + b * q1,
                p2 if x2 == p2 else a * x2 + b * p2,
                q2 if y2 == q2 else a * y2 + b * q2,
            )
        self._bbox = box
        # the input's shape was checked when it was built
        return trusted_skeleton(tuple(state), conf, box)


def body_center(skel: Skeleton) -> Optional[tuple[float, float]]:
    """Mean of the valid shoulder and hip midpoints.

    Computed once per skeleton and stored on it.
    """
    return skel.center


def _span(track: Track, start: float, end: float) -> Track:
    """The samples of a time-ordered track inside [start, end]."""
    times = track.timestamps
    lo, hi = bisect_left(times, start), bisect_right(times, end)
    if lo == 0 and hi == len(times):
        return track
    return Track(track.track_id, times[lo:hi], track.skeletons[lo:hi])


def softmax(scores: Sequence[float]) -> list[float]:
    """Temperature-1 softmax, stabilized by subtracting the max score."""
    m = max(scores)
    exps = [math.exp(s - m) for s in scores]
    total = ordered_sum(exps)
    return [e / total for e in exps]


def aggressor_probabilities(tracks: Sequence[Track], window: float) -> list[RoleAssignment]:
    """Softmax role scores over the candidate tracks (temperature 1).

    ``window`` is the span of history (seconds) considered, ending at the
    latest timestamp across the tracks. A track's score is its mean body
    center speed (torso-heights/second) over that span: ``center_speed``
    between consecutive samples, stored on the track when the span is the
    whole track, skipping pairs where it is unobservable; 0.0 when nothing
    is measurable.
    """
    if not tracks:
        raise InsufficientHistory("no tracks given")
    end = max(t.timestamps[-1] for t in tracks if len(t) > 0)
    spans = [_span(track, end - window, end) for track in tracks]
    if all(len(span) < 2 for span in spans):
        raise InsufficientHistory("no track has two samples inside the window")

    scores = []
    for span in spans:
        speeds = [v for v in track_steps(span, center_speed) if v is not None]
        scores.append(ordered_sum(speeds) / len(speeds) if speeds else 0.0)
    probs = softmax(scores)
    return [RoleAssignment(track_id=track.track_id, p_aggressor=p) for track, p in zip(tracks, probs)]


def choose_aggressor(assignments: Sequence[RoleAssignment]) -> str:
    """Track id with the highest aggressor probability; ties go to the lower id."""
    return min(assignments, key=lambda a: (-a.p_aggressor, track_order(a.track_id))).track_id
