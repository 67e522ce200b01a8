"""The program's process: runs ``snatchdet.cli.main`` on prepared inputs.

    python3 perfbench/child.py cli    PLAN.json OUT.json
    python3 perfbench/child.py stream PLAN.json OUT.json

The plan (written by run.py) names the files and whether to trace. ``cli``
runs a list of subcommands and times each; ``stream`` runs one ``stream``
command. Untraced, the only addition to ``stream`` is a wrapper on its
input that stamps the time when frame i is asked for and when frame i+1 is:
frame i's latency, from reading its line to writing its alerts. Host-speed
probes (hostspeed.py) run between frames and around and inside each
subcommand, outside the timed intervals. Traced, tracer.install wraps every
layer boundary; the span summary goes to OUT.json and the spans to the
plan's ``spans_out``.
"""

from __future__ import annotations

import json
import os
import sys
import time
from array import array

_started = time.perf_counter()
_HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(_HERE), "src"))
sys.path.insert(1, _HERE)

from snatchdet import cli, streams  # noqa: E402

IMPORT_S = time.perf_counter() - _started

import hostspeed  # noqa: E402

STEP_PROBES = 3  # probes before and after each offline step
TREES_PER_PROBE = 25


def run_stream(plan: dict, tracer) -> dict:
    """One ``stream`` run; frame i takes from starts[i] to ends[i].

    Every hostspeed.PROBE_EVERY frames a probe runs between two frames,
    outside any frame's interval.
    """
    starts, ends, probes = array("q"), array("q"), array("d")
    clock = time.perf_counter_ns
    inner = streams.iter_stream

    def stamped(source, fps=30.0):
        if isinstance(source, str):  # iter_stream reopens itself on the file
            with open(source, encoding="utf-8") as fh:
                yield from stamped(fh, fps=fps)
            return
        frames = inner(source, fps=fps)
        while True:
            if len(starts) % hostspeed.PROBE_EVERY == 0:
                probes.append(hostspeed.probe())
            starts.append(clock())
            try:
                record = next(frames)
            except StopIteration:
                starts.pop()
                return
            yield record
            ends.append(clock())

    streams.iter_stream = stamped
    rc = cli.main(
        ["stream", "--stream", plan["stream"], "--model", plan["model"],
         "--alerts-out", plan["alerts"]]
    )
    with open(plan["stamps"], "wb") as fh:
        starts.tofile(fh)
        ends.tofile(fh)
    out = {"rc": rc, "frames": len(ends), "probes": probes.tolist()}
    if tracer is not None:
        out["spans"] = tracer.summary()
        out["counts"] = dict(tracer.counts)
        out["track_buffers"] = [len(e._buffers) for e in tracer.engines]
        # a window is classified when the forest ran under its process() call
        out["windows_classified"] = len(
            {parent for name, _, _, parent in tracer.spans if name == "forest.predict_probability"}
        )
    return out


def run_cli(plan: dict, tracer) -> dict:
    """Run each (name, argv) step through cli.main and time it.

    Host-speed probes run before and after each step and inside it, before
    each input file is read and every TREES_PER_PROBE trees. Their time is
    taken out of the step's wall time, and each stretch between them is
    scaled by the probes nearest to it.
    """
    from snatchdet import forest

    clock = time.perf_counter_ns
    marks: list[tuple[int, int]] = []

    def mark() -> None:
        started = clock()
        hostspeed.probe()
        marks.append((started, clock()))

    def probing(fn, every: int):
        calls = 0

        def wrapper(*args, **kwargs):
            nonlocal calls
            if calls % every == 0:
                mark()
            calls += 1
            return fn(*args, **kwargs)

        return wrapper

    streams.read_stream = probing(streams.read_stream, 1)
    if hasattr(forest, "_grow_tree"):
        forest._grow_tree = probing(forest._grow_tree, TREES_PER_PROBE)

    out: dict = {"rc": [], "phases": {}, "scaled": {}, "spans": {}, "probes": {}}
    for name, argv in plan["steps"]:
        lo = len(tracer.spans) if tracer else 0
        marks.clear()
        for _ in range(STEP_PROBES):
            mark()
        started = clock()
        out["rc"].append(cli.main(argv))
        ended = clock()
        for _ in range(STEP_PROBES):
            mark()
        inside = sum(b - a for a, b in marks if started <= a < ended)
        out["phases"][name] = (ended - started - inside) / 1e9
        out["scaled"][name] = hostspeed.scaled_interval(started, ended, marks)
        out["probes"][name] = [(b - a) / 1e9 for a, b in marks]
        if tracer is not None:
            out["spans"][name] = tracer.summary(lo)
    return out


def peak_rss_mb() -> float:
    """This process's own peak resident set (VmHWM, not counting the parent)."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main() -> int:
    mode, plan_path, out_path = sys.argv[1:4]
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    tracer = None
    if plan.get("trace"):
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    out = run_stream(plan, tracer) if mode == "stream" else run_cli(plan, tracer)
    out["import_s"] = IMPORT_S
    out["peak_rss_mb"] = peak_rss_mb()
    if tracer is not None:
        tracer.write(plan["spans_out"])
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
