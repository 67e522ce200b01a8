"""Deterministic synthetic two-person keypoint streams for tests and demos.

Figures are 2D stick models with fixed limb proportions (torso height is
1.0 world unit, multiplied by ``scale`` pixels). Four scenarios:

* ``snatch``    - aggressor approaches, rapid arm extension to the victim's
                  hip/waist region, immediate retreat at running speed.
* ``walk_by``   - two pedestrians cross paths, no reach.
* ``handshake`` - mutual approach, slow symmetric arm extension, sustained
                  proximity.
* ``standing``  - both static apart from sensor noise.

Generation is pure given (spec, seed). Ground truth (label, event time,
aggressor id) rides along on the returned clip.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .types import FrameRecord, Skeleton

SCENARIO_KINDS = ("snatch", "walk_by", "handshake", "standing")

# Class balance of a typical surveillance corpus, used by ratio-mode corpora
# (positive:negative).
CLASS_RATIO = (29, 61)

_LIMB = {
    "half_shoulder": 0.20,
    "half_hip": 0.13,
    "head_rise": 0.25,  # shoulder mid to head center
    "nose_fwd": 0.12,
    "ear_back": 0.06,
    "ear_side": 0.08,
    "eye_fwd": 0.09,
    "eye_side": 0.035,
    "upper_arm": 0.26,
    "forearm": 0.26,
    "thigh": 0.45,
    "shin": 0.45,
    "bbox_margin": 0.08,
}


class InvalidSpec(ValueError):
    """Scenario parameters violate their invariants."""


@dataclass(frozen=True)
class ScenarioSpec:
    kind: str
    duration: float = 6.0  # seconds
    fps: float = 30.0
    seed: int = 0
    noise_sigma: float = 0.0  # pixels; 0 disables dropout too
    scale: float = 100.0  # pixels per torso height

    def __post_init__(self) -> None:
        if self.kind not in SCENARIO_KINDS:
            raise InvalidSpec(f"unknown scenario kind {self.kind!r}")
        if self.duration <= 0:
            raise InvalidSpec("duration must be positive")
        if self.fps <= 0:
            raise InvalidSpec("fps must be positive")
        if self.noise_sigma < 0:
            raise InvalidSpec("noise_sigma must be nonnegative")
        if self.scale <= 0:
            raise InvalidSpec("scale must be positive")


@dataclass
class Clip:
    """A generated stream plus its ground truth."""

    spec: ScenarioSpec
    frames: list[FrameRecord]
    label: int  # robbery = 1
    aggressor_id: int
    event_time: Optional[float] = None  # grab apex for snatch clips
    clip_id: str = ""


@dataclass
class _Pose:
    """World-space figure state for one frame (units: torso heights)."""

    center: tuple[float, float]
    facing: tuple[float, float]  # unit vector in the image plane
    # per arm: None = hanging, else (target point, reach fraction 0..1)
    reach_left: Optional[tuple[tuple[float, float], float]] = None
    reach_right: Optional[tuple[tuple[float, float], float]] = None
    leg_phase: float = 0.0  # walking gait phase, radians
    leg_swing: float = 0.0  # swing amplitude


def _unit(vx: float, vy: float) -> tuple[float, float]:
    n = math.hypot(vx, vy)
    return (1.0, 0.0) if n == 0 else (vx / n, vy / n)


def _arm_points(
    shoulder: tuple[float, float],
    reach: Optional[tuple[tuple[float, float], float]],
    hang_sway: float,
) -> tuple[tuple[float, float], tuple[float, float]]:
    """(elbow, wrist) for a hanging or reaching arm."""
    upper, fore = _LIMB["upper_arm"], _LIMB["forearm"]
    if reach is None:
        elbow = (shoulder[0] + hang_sway * 0.5, shoulder[1] + upper)
        wrist = (elbow[0] + hang_sway * 0.5, elbow[1] + fore)
        return elbow, wrist
    (tx, ty), frac = reach
    hang_wrist = (shoulder[0], shoulder[1] + upper + fore)
    wx = hang_wrist[0] + frac * (tx - hang_wrist[0])
    wy = hang_wrist[1] + frac * (ty - hang_wrist[1])
    # Elbow near the shoulder-wrist midpoint, slightly off-line for a
    # plausible interior angle.
    mx, my = (shoulder[0] + wx) / 2.0, (shoulder[1] + wy) / 2.0
    ux, uy = _unit(wx - shoulder[0], wy - shoulder[1])
    elbow = (mx - uy * 0.04, my + ux * 0.04)
    return elbow, (wx, wy)


def _figure(pose: _Pose) -> list[tuple[float, float]]:
    """17 COCO keypoints (world units) for a stick figure in ``pose``."""
    cx, cy = pose.center
    fx, fy = pose.facing
    px, py = -fy, fx  # perpendicular, for head lateral offsets

    shoulder_mid = (cx, cy - 0.5)
    hip_mid = (cx, cy + 0.5)
    head = (shoulder_mid[0], shoulder_mid[1] - _LIMB["head_rise"])

    nose = (head[0] + fx * _LIMB["nose_fwd"], head[1] + fy * _LIMB["nose_fwd"] - 0.05)
    ear_base = (head[0] - fx * _LIMB["ear_back"], head[1] - fy * _LIMB["ear_back"] - 0.05)
    ear_l = (ear_base[0] + px * _LIMB["ear_side"], ear_base[1] + py * _LIMB["ear_side"])
    ear_r = (ear_base[0] - px * _LIMB["ear_side"], ear_base[1] - py * _LIMB["ear_side"])
    eye_base = (head[0] + fx * _LIMB["eye_fwd"], head[1] + fy * _LIMB["eye_fwd"] - 0.08)
    eye_l = (eye_base[0] + px * _LIMB["eye_side"], eye_base[1] + py * _LIMB["eye_side"])
    eye_r = (eye_base[0] - px * _LIMB["eye_side"], eye_base[1] - py * _LIMB["eye_side"])

    sh_l = (shoulder_mid[0] - _LIMB["half_shoulder"], shoulder_mid[1])
    sh_r = (shoulder_mid[0] + _LIMB["half_shoulder"], shoulder_mid[1])
    hip_l = (hip_mid[0] - _LIMB["half_hip"], hip_mid[1])
    hip_r = (hip_mid[0] + _LIMB["half_hip"], hip_mid[1])

    sway = pose.leg_swing * math.sin(pose.leg_phase)
    elbow_l, wrist_l = _arm_points(sh_l, pose.reach_left, -sway * 0.6)
    elbow_r, wrist_r = _arm_points(sh_r, pose.reach_right, sway * 0.6)

    knee_l = (hip_l[0] + sway, hip_l[1] + _LIMB["thigh"])
    knee_r = (hip_r[0] - sway, hip_r[1] + _LIMB["thigh"])
    ankle_l = (knee_l[0] - sway * 0.5, knee_l[1] + _LIMB["shin"])
    ankle_r = (knee_r[0] + sway * 0.5, knee_r[1] + _LIMB["shin"])

    return [
        nose, eye_l, eye_r, ear_l, ear_r,
        sh_l, sh_r, elbow_l, elbow_r, wrist_l, wrist_r,
        hip_l, hip_r, knee_l, knee_r, ankle_l, ankle_r,
    ]


def _skeleton(
    pose: _Pose, spec: ScenarioSpec, rng: Optional[np.random.Generator]
) -> Skeleton:
    pts = _figure(pose)
    scale = spec.scale
    xy: list[float] = []
    confs: list[float] = []
    noisy = spec.noise_sigma > 0 and rng is not None
    for x, y in pts:
        px_x, px_y = x * scale, y * scale
        if noisy:
            px_x += float(rng.normal(0.0, spec.noise_sigma))
            px_y += float(rng.normal(0.0, spec.noise_sigma))
            if rng.random() < 0.05:  # confidence dropout exercises missing-data paths
                conf = float(rng.uniform(0.05, 0.25))
            else:
                conf = float(rng.uniform(0.55, 0.95))
        else:
            conf = 0.9
        xy += (px_x, px_y)
        confs.append(conf)
    xs, ys = xy[0::2], xy[1::2]
    margin = _LIMB["bbox_margin"] * scale
    bbox = (min(xs) - margin, min(ys) - margin, max(xs) + margin, max(ys) + margin)
    return Skeleton(tuple(xy), tuple(confs), bbox)


def _ramp(t: float, t0: float, t1: float) -> float:
    """0 before t0, 1 after t1, linear in between."""
    if t <= t0:
        return 0.0
    if t >= t1:
        return 1.0
    return (t - t0) / (t1 - t0)


@dataclass
class _SnatchScript:
    x_agg0: float
    x_vic: float
    y_agg: float
    y_vic: float
    approach_end: float
    grab_out: float = 0.2
    grab_hold: float = 0.1
    grab_back: float = 0.2
    run_speed: float = 3.2
    direction: int = 1  # +1 approaches from the left

    @property
    def grab_start(self) -> float:
        return self.approach_end

    @property
    def grab_end(self) -> float:
        return self.approach_end + self.grab_out + self.grab_hold + self.grab_back

    @property
    def event_time(self) -> float:
        return self.approach_end + self.grab_out + self.grab_hold / 2.0


def _snatch_poses(spec: ScenarioSpec, rng: np.random.Generator, t: float, script: _SnatchScript):
    d = script.direction
    gap = 0.75
    walk = abs(script.x_vic - script.x_agg0) - gap
    v_walk = walk / script.approach_end

    if t < script.approach_end:
        ax = script.x_agg0 + d * v_walk * t
        facing = (float(d), 0.0)
    elif t < script.grab_end:
        ax = script.x_agg0 + d * walk
        facing = (float(d), 0.0)
    else:
        ax = script.x_agg0 + d * walk - d * script.run_speed * (t - script.grab_end)
        facing = (float(-d), 0.0)

    victim_center = (script.x_vic, script.y_vic)
    # Waist-level grab target keeps the wrist well inside the victim's torso
    # radius at the apex.
    target = (script.x_vic - d * 0.05, script.y_vic + 0.15)
    reach = None
    if script.grab_start <= t < script.grab_end:
        u = t - script.grab_start
        if u < script.grab_out:
            frac = u / script.grab_out
        elif u < script.grab_out + script.grab_hold:
            frac = 1.0
        else:
            frac = 1.0 - (u - script.grab_out - script.grab_hold) / script.grab_back
        reach = (target, frac)

    walking = t < script.approach_end or t >= script.grab_end
    agg = _Pose(
        center=(ax, script.y_agg),
        facing=facing,
        reach_right=reach if d > 0 else None,
        reach_left=reach if d < 0 else None,
        leg_phase=2.0 * math.pi * 1.6 * t,
        leg_swing=0.08 if walking else 0.0,
    )

    recoil = 0.12 * _ramp(t, script.event_time, script.event_time + 0.4)
    vic = _Pose(
        center=(victim_center[0] + d * recoil, victim_center[1]),
        facing=(float(-d), 0.0),
        leg_phase=0.0,
        leg_swing=0.0,
    )
    return agg, vic


def _walk_by_poses(spec: ScenarioSpec, rng, t: float, params: dict):
    speed = params["speed"]
    p1 = _Pose(
        center=(params["x1"] + speed * t, params["y1"]),
        facing=(1.0, 0.0),
        leg_phase=2.0 * math.pi * 1.6 * t,
        leg_swing=0.08,
    )
    p2 = _Pose(
        center=(params["x2"] - speed * t, params["y2"]),
        facing=(-1.0, 0.0),
        leg_phase=2.0 * math.pi * 1.6 * t + 1.1,
        leg_swing=0.08,
    )
    return p1, p2


def _handshake_poses(spec: ScenarioSpec, rng, t: float, params: dict):
    gap_target = 1.15
    x1, x2 = params["x1"], params["x2"]
    y = params["y"]
    approach = (abs(x2 - x1) - gap_target) / 2.0
    t_meet = approach / params["speed"]

    d1 = params["speed"] * min(t, t_meet)
    c1 = (x1 + d1, y)
    c2 = (x2 - d1, y)
    mid = ((c1[0] + c2[0]) / 2.0, y - 0.1)
    frac = _ramp(t, t_meet + 0.2, t_meet + 1.0)
    walking = t < t_meet
    p1 = _Pose(
        center=c1,
        facing=(1.0, 0.0),
        reach_right=(mid, frac) if frac > 0 else None,
        leg_phase=2.0 * math.pi * 1.6 * t,
        leg_swing=0.08 if walking else 0.0,
    )
    p2 = _Pose(
        center=c2,
        facing=(-1.0, 0.0),
        reach_left=(mid, frac) if frac > 0 else None,
        leg_phase=2.0 * math.pi * 1.6 * t + 0.9,
        leg_swing=0.08 if walking else 0.0,
    )
    return p1, p2


def _standing_poses(spec: ScenarioSpec, rng, t: float, params: dict):
    p1 = _Pose(center=(params["x1"], params["y"]), facing=(1.0, 0.0))
    p2 = _Pose(center=(params["x2"], params["y"]), facing=(-1.0, 0.0))
    return p1, p2


def generate(spec: ScenarioSpec) -> Clip:
    """Generate one clip; identical specs produce identical streams."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=(spec.seed, 0)))
    noise_rng = np.random.default_rng(np.random.SeedSequence(entropy=(spec.seed, 1)))

    n_frames = int(round(spec.duration * spec.fps))
    if n_frames < 2:
        raise InvalidSpec("duration too short for the frame rate")

    event_time: Optional[float] = None
    if spec.kind == "snatch":
        direction = 1 if rng.random() < 0.5 else -1
        x_vic = float(rng.uniform(5.2, 6.2))
        span = float(rng.uniform(3.6, 4.4))
        x_agg0 = x_vic - direction * span
        approach_end = min(0.45 * spec.duration, 2.8) * float(rng.uniform(0.9, 1.1))
        script = _SnatchScript(
            x_agg0=x_agg0,
            x_vic=x_vic,
            y_agg=float(rng.uniform(1.9, 2.1)),
            y_vic=2.0,
            approach_end=approach_end,
            run_speed=float(rng.uniform(2.8, 3.6)),
            direction=direction,
        )
        event_time = script.event_time
        pose_fn = lambda t: _snatch_poses(spec, rng, t, script)
    elif spec.kind == "walk_by":
        params = {
            "x1": float(rng.uniform(0.5, 1.5)),
            "x2": float(rng.uniform(8.0, 9.0)),
            "y1": 2.0,
            "y2": 2.0 + float(rng.uniform(1.1, 1.4)),
            "speed": float(rng.uniform(1.5, 2.1)),
        }
        pose_fn = lambda t: _walk_by_poses(spec, rng, t, params)
    elif spec.kind == "handshake":
        params = {
            "x1": float(rng.uniform(2.0, 2.6)),
            "x2": float(rng.uniform(6.2, 6.8)),
            "y": 2.0,
            "speed": float(rng.uniform(0.8, 1.2)),
        }
        pose_fn = lambda t: _handshake_poses(spec, rng, t, params)
    else:  # standing
        params = {
            "x1": float(rng.uniform(2.5, 3.2)),
            "x2": float(rng.uniform(5.6, 6.3)),
            "y": 2.0,
        }
        pose_fn = lambda t: _standing_poses(spec, rng, t, params)

    frames: list[FrameRecord] = []
    for i in range(n_frames):
        t = i / spec.fps
        pose1, pose2 = pose_fn(t)
        persons = (
            (1, _skeleton(pose1, spec, noise_rng)),
            (2, _skeleton(pose2, spec, noise_rng)),
        )
        frames.append(FrameRecord(frame_index=i, timestamp=t, persons=persons))

    return Clip(
        spec=spec,
        frames=frames,
        label=1 if spec.kind == "snatch" else 0,
        aggressor_id=1,
        event_time=event_time,
    )


_BENIGN_CYCLE = ("walk_by", "handshake", "standing")


def corpus_specs(
    n_positive: int,
    n_negative: int,
    seed: int = 0,
    duration: float = 6.0,
    fps: float = 30.0,
    noise_sigma: float = 1.5,
    scale: float = 100.0,
) -> list[ScenarioSpec]:
    """Per-clip specs with seeds derived from the root seed."""
    specs = []
    for i in range(n_positive):
        specs.append(
            ScenarioSpec(
                kind="snatch",
                duration=duration,
                fps=fps,
                seed=seed * 1_000_003 + i,
                noise_sigma=noise_sigma,
                scale=scale,
            )
        )
    for i in range(n_negative):
        specs.append(
            ScenarioSpec(
                kind=_BENIGN_CYCLE[i % len(_BENIGN_CYCLE)],
                duration=duration,
                fps=fps,
                seed=seed * 1_000_003 + n_positive + i,
                noise_sigma=noise_sigma,
                scale=scale,
            )
        )
    return specs


def ratio_counts(total: int, ratio: tuple[int, int] = CLASS_RATIO) -> tuple[int, int]:
    """Split ``total`` clips by the configured positive:negative ratio."""
    pos = round(total * ratio[0] / (ratio[0] + ratio[1]))
    return int(pos), total - int(pos)


def generate_corpus(
    n_per_class: Optional[int] = None,
    total: Optional[int] = None,
    seed: int = 0,
    duration: float = 6.0,
    fps: float = 30.0,
    noise_sigma: float = 1.5,
    scale: float = 100.0,
) -> list[Clip]:
    """Balanced (``n_per_class``) or ratio-mode (``total``) labeled corpus."""
    if (n_per_class is None) == (total is None):
        raise InvalidSpec("give exactly one of n_per_class or total")
    if n_per_class is not None:
        if n_per_class < 1:
            raise InvalidSpec("n_per_class must be >= 1")
        n_pos, n_neg = n_per_class, n_per_class
    else:
        if total < 2:
            raise InvalidSpec("total must be >= 2")
        n_pos, n_neg = ratio_counts(total)
    clips = []
    specs = corpus_specs(n_pos, n_neg, seed, duration, fps, noise_sigma, scale)
    for i, spec in enumerate(specs):
        clip = generate(spec)
        clip.clip_id = f"clip{i:04d}_{spec.kind}"
        clips.append(clip)
    return clips
