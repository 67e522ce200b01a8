"""Trajectory smoothing and the body center.

Joint trajectories are denoised with an exponential moving average
(x_smooth = alpha * x + (1 - alpha) * x_prev, initialized at the first
sample). All distances downstream are expressed in torso heights, the
shoulder-midpoint to hip-midpoint distance, so features are insensitive to
subject-camera distance. The smoother checks no input rule: it is handed
skeletons that ``types.validate_frame`` has passed and an alpha that
``PipelineConfig`` has checked, and builds its output unchecked.
"""

from __future__ import annotations

from typing import Optional

from .types import NUM_KEYPOINTS, VALID_CONFIDENCE, Skeleton, trusted_skeleton


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

    def __init__(self, alpha: float):
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
