"""Host-speed probe: scales measured times to a fixed reference host speed.

On a shared host the speed of the same code drifts: a fixed extraction
loop was measured to vary 1.85x in 110 s on a 2-core VM, in phases lasting
seconds to minutes, so two sets of runs of unchanged code disagree by more
than any useful bound. A probe, decoding a fixed pose-frame JSON line, does
the same kind of interpreter work as the program (small objects, floats,
dicts) and slows with it. Sampled side by side over the same 110 s, the
ratio of the loop's time to the probe's spread by 3.6% (distance between
the quartiles over the median), against 34% for the loop's time alone.

Every timing is therefore taken next to probes and reported as
``measured * REFERENCE_S / probe``: the time the work would take on a host
where the probe takes REFERENCE_S. The probe code never changes with the
program, so a change to the program still moves the scaled times by its
full effect.
"""

from __future__ import annotations

import json
import statistics
import time

# roughly one probe's time on the machine of the README's figures
REFERENCE_S = 0.0006
PROBE_REPS = 24
PROBE_EVERY = 32  # frames between probes in a stream run

_FRAME = {
    "frame_index": 123,
    "timestamp_s": 4.1,
    "persons": [
        {
            "track_id": tid,
            "keypoints": [[100.0 + 3.7 * j + 0.013 * tid, 200.0 + 5.1 * j, 0.9] for j in range(17)],
            "bbox": [90.0, 180.0, 180.0 + tid, 300.0],
        }
        for tid in (1, 2)
    ],
}
_LINE = json.dumps(_FRAME)


def probe() -> float:
    """Seconds to decode the fixed line PROBE_REPS times."""
    started = time.perf_counter()
    for _ in range(PROBE_REPS):
        json.loads(_LINE)
    return time.perf_counter() - started


def probes(n: int) -> list[float]:
    return [probe() for _ in range(n)]


def scale(samples: list[float]) -> float:
    """Factor that turns a time measured next to ``samples`` into reference time."""
    return REFERENCE_S / statistics.median(samples)


def frame_scales(samples: list[float], n_frames: int, width: int = 2) -> list[float]:
    """Per-frame factors from probes taken every PROBE_EVERY frames.

    Frame i uses the median of the probes within ``width`` probes of its own,
    so each factor follows the host over a fraction of a second.
    """
    factors = [
        scale(samples[max(0, j - width): j + width + 1])
        for j in range(len(samples))
    ]
    return [factors[min(i // PROBE_EVERY, len(factors) - 1)] for i in range(n_frames)]


def scaled_interval(started: int, ended: int, marks: list[tuple[int, int]], width: int = 2) -> float:
    """Scaled seconds of the interval [started, ended] (ns), probes taken out.

    ``marks`` are the (start, end) ns of the probes taken before, inside and
    after the interval, in order. The stretches between probes inside it are
    each scaled by the median of the probes nearest to them.
    """
    seconds = [(b - a) / 1e9 for a, b in marks]
    inside = [i for i, (a, _) in enumerate(marks) if started <= a < ended]
    edges = [started] + [t for i in inside for t in marks[i]] + [ended]
    first = inside[0] if inside else next(
        (i for i, (a, _) in enumerate(marks) if a >= ended), len(marks))
    total = 0.0
    for k in range(len(edges) // 2):
        near = seconds[max(0, first + k - width): first + k + width]
        total += (edges[2 * k + 1] - edges[2 * k]) / 1e9 * REFERENCE_S / statistics.median(near)
    return total
