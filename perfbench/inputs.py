"""Benchmark inputs, generated from a seed with ``snatchdet.synth``.

Everything here runs in the benchmark's own process, before any timing
starts; the program only ever sees the files written here.

Two kinds of input:

* a labelled corpus of whole clips (29:61 snatch:benign, 8 s each) that the
  offline steps extract and train on, with one ground-truth label per
  sliding window, taken from the clip's event time;
* an encounter stream: staged two-person encounters cycling
  snatch / walk_by / handshake / standing, each with fresh track ids and
  followed by empty frames, optionally with lone bystanders far from the
  focal pair whose tracker ids are replaced every few seconds.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Optional

from snatchdet.synth import ScenarioSpec, generate, generate_corpus

FPS = 30.0
NOISE_SIGMA = 1.5
WINDOW_FRAMES = 60  # 2 s windows, the default config
STRIDE_FRAMES = 15  # 0.5 s stride
MIN_SEGMENT_FRAMES = 5

CYCLE = ("snatch", "walk_by", "handshake", "standing")
ENCOUNTER_S = 6.0
GAP_FRAMES = 60  # empty frames after each encounter: longer than a window
AGGRESSOR_EXIT_S = 1.5  # the "run" of snatch-and-run: out of view after the grab

# The model the stream passes deploy is trained on this corpus, which does
# not depend on --seed, and the snatch encounters use these fixed specs, so
# the one failure the benchmark keeps (a snatch alarm left open) is the same
# operation on every seed.
TRAIN_CORPUS_SEED = 20260417
TRAIN_CORPUS_CLIPS = 36
CLIP_S = 8.0
SNATCH_SEEDS = (3_000_000_011, 3_000_000_023, 3_000_000_037, 3_000_000_041)

# Bystanders: lone people spread along a line far below the scene, spaced
# wider than any focal pair ever stands apart, so the focal pair is always
# the closest pair while it is in view. Ids change every CHURN_FRAMES.
BYSTANDER_X_PX = (-6000.0, -3800.0, -1500.0, 900.0, 3400.0, 6000.0)
BYSTANDER_Y_PX = 3000.0
CHURN_FRAMES = 90
CHURN_PHASES = (0, 37, 11, 64, 23, 50)
BYSTANDER_LOOP_S = 20.0
BYSTANDER_ID_BASE = 100_000


def _mix(seed: int, *parts: int) -> int:
    """A spec seed derived from the benchmark seed; below 2**31."""
    h = seed & 0xFFFFFFFF
    for p in parts:
        h = (h * 1_000_003 + p + 0x9E3779B9) & 0x7FFFFFFF
    return h


def window_ends(n_frames: int) -> list[int]:
    """Frame positions where a window of WINDOW_FRAMES closes, every stride."""
    return list(range(WINDOW_FRAMES - 1, n_frames, STRIDE_FRAMES))


def window_label(end: int, event_time: Optional[float]) -> int:
    """1 when the clip's event time falls inside the window ending at ``end``."""
    if event_time is None:
        return 0
    return int((end - WINDOW_FRAMES + 1) / FPS <= event_time <= end / FPS)


def _person_obj(tid: int, skel, dx: float = 0.0, dy: float = 0.0) -> dict:
    return {
        "track_id": tid,
        "keypoints": [[kp.x + dx, kp.y + dy, kp.confidence] for kp in skel.keypoints],
        "bbox": [skel.bbox[0] + dx, skel.bbox[1] + dy, skel.bbox[2] + dx, skel.bbox[3] + dy],
    }


def _write_lines(path: str, frames: list[list[dict]]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for i, persons in enumerate(frames):
            obj = {"frame_index": i, "timestamp_s": i / FPS, "persons": persons}
            fh.write(json.dumps(obj, separators=(",", ":")))
            fh.write("\n")


# ---------------------------------------------------------------------------
# labelled corpus


@dataclass
class CorpusClip:
    stem: str
    path: str
    n_frames: int
    event_time: Optional[float]

    def labels(self) -> list[tuple[str, int]]:
        """Ground truth per window, keyed the way sliding extraction names rows."""
        return [
            (f"{self.stem}#1|2#{end}", window_label(end, self.event_time))
            for end in window_ends(self.n_frames)
        ]


def write_corpus(out_dir: str, total: int, seed: int, prefix: str) -> list[CorpusClip]:
    """A 29:61 corpus of CLIP_S clips written as one JSONL file each."""
    os.makedirs(out_dir, exist_ok=True)
    clips = []
    for clip in generate_corpus(total=total, seed=seed, duration=CLIP_S, noise_sigma=NOISE_SIGMA):
        stem = f"{prefix}_{clip.clip_id}"
        path = os.path.join(out_dir, stem + ".jsonl")
        _write_lines(path, [[_person_obj(t, s) for t, s in f.persons] for f in clip.frames])
        clips.append(CorpusClip(stem, path, len(clip.frames), clip.event_time))
    return clips


def write_labels(path: str, clips: list[CorpusClip]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("id,label\n")
        for clip in clips:
            for sid, label in clip.labels():
                fh.write(f"{sid},{label}\n")


# ---------------------------------------------------------------------------
# encounter stream


@dataclass
class Encounter:
    kind: str
    ids: tuple[int, int]
    first: int  # first frame position of the encounter
    last: int  # last frame position where both people are in view
    event_time: Optional[float]  # stream time of the grab apex, snatch only

    @property
    def pair(self) -> str:
        a, b = sorted(self.ids)
        return f"{a}|{b}"


@dataclass
class StreamInput:
    path: str
    n_frames: int
    encounters: list[Encounter]
    presence: dict[int, tuple[int, int]]  # raw track id -> (first, last) position
    timestamps: list[float] = field(default_factory=list)

    def decision_frames(self) -> list[int]:
        """Stride positions whose window holds two tracks sharing enough frames.

        Every such window classifies a pair (the engine classifies the
        closest eligible pair at each stride); counted from the input alone.
        """
        runs = sorted(self.presence.values())
        out = []
        for end in window_ends(self.n_frames):
            lo = end - WINDOW_FRAMES + 1
            live = [
                (max(a, lo), min(b, end))
                for a, b in runs
                if min(b, end) - max(a, lo) + 1 >= MIN_SEGMENT_FRAMES
            ]
            if any(
                min(live[i][1], live[j][1]) - max(live[i][0], live[j][0]) + 1 >= MIN_SEGMENT_FRAMES
                for i in range(len(live))
                for j in range(i + 1, len(live))
            ):
                out.append(end)
        return out


def _encounter_clip(kind: str, seed: int, index: int):
    if kind == "snatch":
        spec_seed = SNATCH_SEEDS[(index // len(CYCLE)) % len(SNATCH_SEEDS)]
    else:
        spec_seed = _mix(seed, index, CYCLE.index(kind))
    return generate(
        ScenarioSpec(kind=kind, duration=ENCOUNTER_S, fps=FPS, seed=spec_seed, noise_sigma=NOISE_SIGMA)
    )


def write_encounter_stream(path: str, seed: int, rounds: int, bystanders: int = 0) -> StreamInput:
    """``rounds`` x CYCLE encounters, each followed by GAP_FRAMES empty frames."""
    frames: list[list[dict]] = []
    encounters: list[Encounter] = []
    presence: dict[int, tuple[int, int]] = {}
    for index in range(rounds * len(CYCLE)):
        kind = CYCLE[index % len(CYCLE)]
        clip = _encounter_clip(kind, seed, index)
        ids = (2 * index + 1, 2 * index + 2)
        first = len(frames)
        # The snatch aggressor (person 1) runs out of view AGGRESSOR_EXIT_S
        # after the grab; everyone else stays until the clip ends.
        exit_pos = len(clip.frames)
        if clip.event_time is not None:
            exit_pos = int((clip.event_time + AGGRESSOR_EXIT_S) * FPS) + 1
        for pos, f in enumerate(clip.frames):
            frames.append(
                [_person_obj(ids[t - 1], s) for t, s in f.persons if t != 1 or pos < exit_pos]
            )
        end = len(frames) - 1
        frames.extend([] for _ in range(GAP_FRAMES))
        presence[ids[0]] = (first, first + min(exit_pos, len(clip.frames)) - 1)
        presence[ids[1]] = (first, end)
        event = None if clip.event_time is None else first / FPS + clip.event_time
        encounters.append(Encounter(kind, ids, first, presence[ids[0]][1], event))

    if bystanders:
        _add_bystanders(frames, presence, seed, bystanders)
    _write_lines(path, frames)
    return StreamInput(
        path=path,
        n_frames=len(frames),
        encounters=encounters,
        presence=presence,
        timestamps=[i / FPS for i in range(len(frames))],
    )


def _add_bystanders(frames: list[list[dict]], presence: dict, seed: int, count: int) -> None:
    # Lone standing figures, each one person of a standing clip moved far
    # away. A standing pose only jitters, so a short clip is looped.
    n = len(frames)
    loop = int(BYSTANDER_LOOP_S * FPS)
    clips = [
        generate(
            ScenarioSpec(
                kind="standing", duration=BYSTANDER_LOOP_S, fps=FPS,
                seed=_mix(seed, 7_000 + k), noise_sigma=NOISE_SIGMA,
            )
        )
        for k in range((count + 1) // 2)
    ]
    for b in range(count):
        clip, person = clips[b // 2], 1 + b % 2
        x1, y1, x2, y2 = clip.frames[0].persons[person - 1][1].bbox
        dx = BYSTANDER_X_PX[b] - (x1 + x2) / 2.0
        dy = BYSTANDER_Y_PX - (y1 + y2) / 2.0
        for pos in range(n):
            tid = BYSTANDER_ID_BASE + 10_000 * b + (pos + CHURN_PHASES[b]) // CHURN_FRAMES
            skel = clip.frames[pos % loop].persons[person - 1][1]
            frames[pos].append(_person_obj(tid, skel, dx, dy))
            first, _ = presence.get(tid, (pos, pos))
            presence[tid] = (first, pos)


def write_minimal_stream(path: str) -> None:
    """One frame with two people: the smallest input ``stream`` accepts."""
    clip = generate(ScenarioSpec(kind="standing", duration=0.1, fps=FPS, seed=1))
    _write_lines(path, [[_person_obj(t, s) for t, s in clip.frames[0].persons]])
