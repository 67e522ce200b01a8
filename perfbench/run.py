#!/usr/bin/env python3
"""The snatchdet benchmark: one workload, one seed, one JSON line of results.

    python3 perfbench/run.py --workload pair_stream --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout (it imports ``src/snatchdet``).
Inputs are generated from the seed and written under ``perfbench/_work``
before any timing starts. The program then runs in its own processes
(child.py calling ``snatchdet.cli.main``): one caller, frames fed as fast as
it takes them, single-threaded.

A run interleaves three kinds of program process, so that each metric is
sampled across the whole run rather than in one stretch of it:

* stream passes: ``stream`` over a file of whole rounds of staged
  encounters, repeated until --seconds have passed and at least
  MIN_DECISIONS window decisions were timed;
* offline steps: ``extract --mode sliding`` over the training corpus in
  three parts, ``train`` (500 trees) three times on the rows, ``extract``
  over a held-out corpus;
* set-up runs: fresh ``stream`` processes on a one-frame input.

Every time is scaled to a reference host speed with probes taken next to
it (hostspeed.py). With --trace 0 the end-to-end metrics are printed; with
--trace 1 the same processes run with spans around each layer (tracer.py)
and the per-layer metrics are printed. README.md says what each metric
means.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from array import array
from dataclasses import dataclass

import hostspeed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, "_work")

WORKLOADS = {
    "pair_stream": {"bystanders": 0, "model": "top_model"},
    "crowd_churn": {"bystanders": 6, "model": "full_model"},
}
ROUNDS_PER_PASS = 4  # 16 encounters, 3,840 frames per stream process
MIN_DECISIONS = 1000  # so that ten decision frames lie beyond the p99
EXTRACT_PARTS = 3
TRAIN_RUNS = 3
SETUP_PROCESSES = 7
SETUP_PER_PASS = 2
SETUP_HOST_PROBES = 9  # host-speed probes before and after each set-up process
HOLDOUT_CLIPS = 15
TOP_K = 10
F1_FLOOR = 0.90
RUN_DEADLINE_S = 170
TRAIN = ["train", "--n-trees", "500", "--seed", "42"]


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


class Runner:
    """Starts the program's processes one at a time."""

    def __init__(self, work: str):
        self.work = work
        self.env = child_env()
        self.log = os.path.join(work, "children.log")
        self.peak_rss_mb = 0.0
        self.current: subprocess.Popen | None = None
        self.count = 0

    def run(self, argv: list[str]) -> tuple[int, float]:
        """(exit code, wall seconds) of one child process."""
        with open(self.log, "ab") as log:
            started = time.perf_counter()
            self.current = subprocess.Popen(
                [sys.executable, *argv], stdout=log, stderr=log, env=self.env, cwd=ROOT
            )
            rc = self.current.wait()
            wall = time.perf_counter() - started
        self.current = None
        return rc, wall

    def child(self, mode: str, plan: dict) -> dict:
        tag = f"{self.count:02d}-{mode}"
        self.count += 1
        plan = {**plan, "spans_out": os.path.join(self.work, f"{tag}.spans.csv")}
        plan_path = os.path.join(self.work, f"{tag}.plan.json")
        out_path = os.path.join(self.work, f"{tag}.out.json")
        with open(plan_path, "w", encoding="utf-8") as fh:
            json.dump(plan, fh)
        rc, _ = self.run([os.path.join(HERE, "child.py"), mode, plan_path, out_path])
        if rc != 0:
            raise RuntimeError(f"{mode} child exited with {rc}; see {self.log}")
        with open(out_path, encoding="utf-8") as fh:
            out = json.load(fh)
        self.peak_rss_mb = max(self.peak_rss_mb, out["peak_rss_mb"])
        return out

    def kill(self) -> None:
        if self.current is not None and self.current.poll() is None:
            self.current.kill()
            self.current.wait()


# ---------------------------------------------------------------------------
# the deployed models, built once per checkout


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "snatchdet", "*.py"))) + [
        os.path.join(HERE, "inputs.py")
    ]:
        with open(path, "rb") as fh:
            digest.update(fh.read())
    return digest.hexdigest()[:16]


def deployed(inputs, work: str) -> dict:
    """Training corpus, its rows and both deployed models.

    They do not depend on --seed, so they are built once per checkout (keyed
    by the program's and the generator's source) through the same CLI the
    runs time, and every run checks that its own extraction and training
    reproduce them byte for byte.
    """
    cache = os.path.join(WORK, "cache", source_digest())
    index = os.path.join(cache, "index.json")
    if not os.path.exists(index):
        tmp = f"{cache}.tmp{os.getpid()}"
        shutil.rmtree(tmp, ignore_errors=True)
        clips = inputs.write_corpus(
            os.path.join(tmp, "clips"), inputs.TRAIN_CORPUS_CLIPS, inputs.TRAIN_CORPUS_SEED, "train"
        )
        inputs.write_labels(os.path.join(tmp, "labels.csv"), clips)
        p = lambda name: os.path.join(tmp, name)  # noqa: E731
        builder = Runner(work)
        rc = builder.child("cli", {"steps": [
            ("extract", ["extract", "--mode", "sliding", "--out", p("train.csv"),
                         "--streams", *(c.path for c in clips)]),
            ("train", [*TRAIN, "--features", p("train.csv"), "--labels", p("labels.csv"),
                       "--model-out", p("full_model.json"), "--report", p("report.txt")]),
            ("rank", ["rank", "--model", p("full_model.json"), "--k", str(TOP_K),
                      "--out", p("rank.csv")]),
        ]})["rc"]
        if not any(rc):
            reduce_csv(p("train.csv"), p("rank.csv"), p("top.csv"))
            rc += builder.child("cli", {"steps": [
                ("train_top", [*TRAIN, "--features", p("top.csv"), "--labels", p("labels.csv"),
                               "--model-out", p("top_model.json"), "--report", p("report.txt")]),
            ]})["rc"]
        if any(rc):
            raise RuntimeError(f"building the deployed models failed: exit codes {rc}")
        with open(p("index.json"), "w", encoding="utf-8") as fh:
            json.dump([[c.stem, c.n_frames, c.event_time] for c in clips], fh)
        shutil.rmtree(cache, ignore_errors=True)
        os.rename(tmp, cache)
    with open(index, encoding="utf-8") as fh:
        clips = [
            inputs.CorpusClip(stem, os.path.join(cache, "clips", stem + ".jsonl"), n, event)
            for stem, n, event in json.load(fh)
        ]
    dep = {"clips": clips, "labels": os.path.join(cache, "labels.csv"),
           "train": os.path.join(cache, "train.csv")}
    for name in ("full_model", "top_model"):
        dep[name] = os.path.join(cache, name + ".json")
    return dep


def reduce_csv(src: str, rank_csv: str, dest: str) -> None:
    """Keep the segment id and the ranked features, in rank order."""
    import csv

    with open(rank_csv, encoding="utf-8", newline="") as fh:
        keep = [row["feature"] for row in csv.DictReader(fh)]
    with open(src, encoding="utf-8", newline="") as fh, \
            open(dest, "w", encoding="utf-8", newline="") as out:
        writer = csv.writer(out)
        writer.writerow(["segment_id", *keep])
        for row in csv.DictReader(fh):
            writer.writerow([row["segment_id"], *(row[k] for k in keep)])


# ---------------------------------------------------------------------------
# offline steps


class Offline:
    """The timed offline steps of one run, one child process each."""

    def __init__(self, runner: Runner, inputs, checks, dep: dict, seed: int, trace: bool):
        self.runner, self.checks, self.dep, self.trace = runner, checks, dep, trace
        work = runner.work
        self.holdout = inputs.write_corpus(
            os.path.join(work, "holdout"), HOLDOUT_CLIPS, 1_000_000_000 + seed % 1_000_000_000, "hold"
        )
        clips = dep["clips"]
        size = math.ceil(len(clips) / EXTRACT_PARTS)
        self.parts = [clips[i:i + size] for i in range(0, len(clips), size)]
        self.part_csv = [os.path.join(work, f"train_part{i}.csv") for i in range(len(self.parts))]
        self.csv = os.path.join(work, "train.csv")
        self.models = [os.path.join(work, f"full_model_{i}.json") for i in range(TRAIN_RUNS)]
        self.holdout_csv = os.path.join(work, "holdout.csv")
        self.steps = [self._extract_part(i) for i in range(len(self.parts))]
        self.steps += [self._train(i) for i in range(TRAIN_RUNS)] + [self._extract_holdout]
        # (scaled to the reference host speed, as measured)
        self.walls: dict[str, list[tuple[float, float]]] = {"extract": [], "train": []}
        self.spans: dict[str, list[dict]] = {"extract": [], "train": []}
        self.problems: list[str] = []

    def _cli(self, kind: str, argv: list[str]) -> None:
        out = self.runner.child("cli", {"trace": self.trace, "steps": [(kind, argv)]})
        if out["rc"][0]:
            self.problems.append(f"{argv[0]} exited with {out['rc'][0]}")
        if kind in self.walls:
            wall, scale = out["phases"][kind], hostspeed.scale(out["probes"][kind])
            self.walls[kind].append((out["scaled"][kind], wall))
            if self.trace:
                self.spans[kind].append((out["spans"][kind], scale))

    def _extract_part(self, i: int):
        def step() -> None:
            self._cli("extract", ["extract", "--mode", "sliding", "--out", self.part_csv[i],
                                  "--streams", *(c.path for c in self.parts[i])])
        return step

    def _train(self, i: int):
        def step() -> None:
            if i == 0:
                concat_csv(self.part_csv, self.csv)
            self._cli("train", [*TRAIN, "--features", self.csv, "--labels", self.dep["labels"],
                                "--model-out", self.models[i],
                                "--report", os.path.join(self.runner.work, "report.txt")])
        return step

    def _extract_holdout(self) -> None:
        self._cli("holdout", ["extract", "--mode", "sliding", "--out", self.holdout_csv,
                              "--streams", *(c.path for c in self.holdout)])

    def check(self, model: str) -> float:
        """Run the output checks; returns the held-out window F1."""
        checks, p = self.checks, self.problems
        for part, csv_path in zip(self.parts, self.part_csv):
            p += checks.check_feature_csv(csv_path, part)
        p += checks.check_feature_csv(self.holdout_csv, self.holdout)
        if not checks.same_bytes(self.csv, self.dep["train"]):
            p.append("extracting the corpus in parts gave other rows than in one call")
        if not all(checks.same_bytes(self.models[0], m) for m in self.models[1:]):
            p.append("training again on the same CSV gave a different model file")
        if not checks.same_bytes(self.models[0], self.dep["full_model"]):
            p.append("training in this run gave another model than the deployed one")
        f1 = holdout_f1(model, self.holdout_csv, self.holdout, checks)
        if not f1 >= F1_FLOOR:
            p.append(f"window F1 {f1:.3f} on the held-out corpus is below {F1_FLOOR}")
        return f1


def concat_csv(parts: list[str], dest: str) -> None:
    with open(dest, "w", encoding="utf-8", newline="") as out:
        for i, path in enumerate(parts):
            with open(path, encoding="utf-8", newline="") as fh:
                lines = fh.readlines()
            out.writelines(lines if i == 0 else lines[1:])


def holdout_f1(model_path: str, csv_path: str, clips: list, checks) -> float:
    from snatchdet import forest

    model = forest.load_model(model_path)
    header, rows = checks.read_csv(csv_path)
    cols = [header.index(name) for name in model.feature_names]
    predicted = {r[0]: forest.predict(model, [float(r[c]) for c in cols])[0] for r in rows}
    labels = {sid: y for clip in clips for sid, y in clip.labels()}
    return checks.window_f1(labels, predicted)


# ---------------------------------------------------------------------------
# stream passes and set-up runs


@dataclass
class Pass:
    """One stream process. Latencies (us) and fps are scaled to the reference host."""

    out: dict
    verdict: object
    latencies: list[float]
    raw_latencies: list[float]
    fps: float
    raw_fps: float


def stream_pass(runner: Runner, checks, stream, model: str, trace: bool) -> Pass:
    work, tag = runner.work, f"pass{runner.count:02d}"
    plan = {
        "trace": trace,
        "stream": stream.path,
        "model": model,
        "alerts": os.path.join(work, f"{tag}.alerts.jsonl"),
        "stamps": os.path.join(work, f"{tag}.stamps.bin"),
    }
    out = runner.child("stream", plan)
    if out["rc"] != 0:
        raise RuntimeError(f"stream exited with {out['rc']}; see {runner.log}")
    stamps = array("q")
    with open(plan["stamps"], "rb") as fh:
        stamps.frombytes(fh.read())
    n = out["frames"]
    raw = [(end - start) / 1000.0 for start, end in zip(stamps[:n], stamps[n:])]  # us
    factors = hostspeed.frame_scales(out["probes"], n)
    latencies = [us * f for us, f in zip(raw, factors)]
    out["scale"] = hostspeed.scale(out["probes"])
    verdict = checks.check_stream(stream, checks.read_alerts(plan["alerts"]), n)
    return Pass(out, verdict, latencies, raw, 1e6 * n / sum(latencies), 1e6 * n / sum(raw))


def setup_run(runner: Runner, minimal: str, model: str) -> tuple[float, float]:
    """(scaled, raw) wall time of a fresh ``stream`` process on a one-frame input."""
    before = hostspeed.probes(SETUP_HOST_PROBES)
    rc, wall = runner.run([
        "-m", "snatchdet.cli", "stream", "--stream", minimal, "--model", model,
        "--alerts-out", os.path.join(runner.work, "setup.alerts.jsonl"),
    ])
    if rc != 0:
        raise RuntimeError(f"set-up run exited with {rc}; see {runner.log}")
    return wall * hostspeed.scale(before + hostspeed.probes(SETUP_HOST_PROBES)), wall


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


# ---------------------------------------------------------------------------
# metrics


def end_to_end(offline: Offline, passes: list[Pass], decisions: list[int],
               setups: list[tuple[float, float]], rss: float, raw: bool = False) -> dict:
    """The end-to-end metrics; ``raw`` gives them unscaled, for the report."""
    i = 1 if raw else 0
    latency = [p.raw_latencies if raw else p.latencies for p in passes]
    frame_lat = [x for lat in latency for x in lat]
    decision_lat = [lat[d] for lat in latency for d in decisions]
    return {
        "frames_per_s": (statistics.median(p.raw_fps if raw else p.fps for p in passes), "1/s"),
        "frame_latency_p50_us": (statistics.median(frame_lat), "us"),
        "decision_latency_p50_us": (statistics.median(decision_lat), "us"),
        "decision_latency_p99_us": (percentile(decision_lat, 0.99), "us"),
        "extract_s": (sum(w[i] for w in offline.walls["extract"]), "s"),
        "train_s": (statistics.median(w[i] for w in offline.walls["train"]), "s"),
        "setup_s": (statistics.median(w[i] for w in setups), "s"),
        "peak_rss_mb": (rss, "MB"),
    }


def per_layer(offline: Offline, traced: list[Pass], untraced: list[Pass], checks) -> dict:
    """Per-layer metrics; times are scaled to the reference host speed too."""
    first = traced[0].out
    spans, counts, frames = first["spans"], first["counts"], first["frames"]

    def incl_us(name: str) -> float:
        return spans.get(name, {}).get("incl_ns", 0) / 1000.0 * first["scale"]

    def calls(name: str) -> int:
        return spans.get(name, {}).get("calls", 0)

    def offline_s(kind: str, name: str) -> float:
        summaries = offline.spans[kind][:1] if kind == "train" else offline.spans[kind]
        return sum(s.get(name, {}).get("incl_ns", 0) * k for s, k in summaries) / 1e9

    def median_s(name: str) -> float:
        return statistics.median(p.out["spans"][name]["incl_ns"] / 1e9 * p.out["scale"] for p in traced)

    attempted = calls("pipeline.select_pair")
    classified = first["windows_classified"]
    per_window = max(classified, 1)
    overhead = statistics.median(p.fps for p in untraced) / statistics.median(p.fps for p in traced)
    _, rows = checks.read_csv(offline.csv)
    with open(offline.models[0], encoding="utf-8") as fh:
        nodes = sum(len(tree["feature"]) for tree in json.load(fh)["trees"])
    return {
        "streams.parse_us_per_frame": (incl_us("streams.line_to_frame") / frames, "us"),
        "types.validate_us_per_frame": (incl_us("types.validate_frame") / frames, "us"),
        "preprocess.smooth_us_per_frame": (incl_us("preprocess.SkeletonSmoother.step") / frames, "us"),
        "pipeline.select_pair_us_per_window": (incl_us("pipeline.select_pair") / max(attempted, 1), "us"),
        "pipeline.order_roles_us_per_window": (incl_us("pipeline.order_roles") / per_window, "us"),
        "features.pair_segment_us_per_window": (incl_us("features.pair_segment") / per_window, "us"),
        "features.extract_us_per_window": (incl_us("features.extract_segment") / per_window, "us"),
        "features.extract_calls": (calls("features.extract_segment"), "count"),
        "forest.predict_us_per_window": (incl_us("forest.predict_probability") / per_window, "us"),
        "forest.predict_calls": (calls("forest.predict_probability"), "count"),
        "temporal.step_us_per_frame": (incl_us("temporal.step") / frames, "us"),
        "temporal.step_calls": (calls("temporal.step"), "count"),
        "pipeline.engine_self_us_per_frame": (
            spans["pipeline.StreamEngine.process"]["self_ns"] / 1000.0 * first["scale"] / frames, "us"),
        "pipeline.windows_attempted": (attempted, "count"),
        "pipeline.windows_classified": (classified, "count"),
        "pipeline.windows_classified_pct": (100.0 * classified / max(attempted, 1), "%"),
        "pipeline.body_center_calls_per_window": (
            counts.get("pipeline.body_center", 0) / max(attempted, 1), "calls/window"),
        "pipeline.track_buffers_end": (first["track_buffers"][-1], "count"),
        "setup.import_s": (statistics.median(p.out["import_s"] * p.out["scale"] for p in traced), "s"),
        "forest.load_model_s": (median_s("forest.load_model"), "s"),
        "pipeline.engine_init_s": (median_s("pipeline.StreamEngine.__init__"), "s"),
        "trace.overhead_pct": (100.0 * (overhead - 1.0), "%"),
        "streams.read_stream_s": (offline_s("extract", "streams.read_stream"), "s"),
        "pipeline.extract_windows_s": (offline_s("extract", "pipeline.extract_windows"), "s"),
        "features.write_csv_s": (offline_s("extract", "features.write_feature_csv"), "s"),
        "features.read_csv_s": (offline_s("train", "features.read_feature_csv"), "s"),
        "forest.train_s": (offline_s("train", "forest.train"), "s"),
        "forest.training_accuracy_s": (offline_s("train", "forest.training_accuracy"), "s"),
        "forest.save_model_s": (offline_s("train", "forest.save_model"), "s"),
        "features.rows_extracted": (len(rows), "count"),
        "forest.nodes_total": (nodes, "count"),
    }


# ---------------------------------------------------------------------------


def run(args: argparse.Namespace) -> dict:
    sys.path.insert(0, SRC)
    import checks
    import inputs

    cfg = WORKLOADS[args.workload]
    # one directory per workload and mode, replaced by the next such run
    work = os.path.join(WORK, f"{args.workload}-trace{args.trace}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    runner = Runner(work)
    signal.signal(signal.SIGALRM, _deadline)
    signal.signal(signal.SIGTERM, _deadline)
    signal.alarm(RUN_DEADLINE_S)
    try:
        dep = deployed(inputs, work)
        model = dep[cfg["model"]]
        stream = inputs.write_encounter_stream(
            os.path.join(work, "stream.jsonl"), args.seed, ROUNDS_PER_PASS, cfg["bystanders"]
        )
        minimal = os.path.join(work, "minimal.jsonl")
        inputs.write_minimal_stream(minimal)
        decisions = stream.decision_frames()
        offline = Offline(runner, inputs, checks, dep, args.seed, bool(args.trace))

        passes, traced, setups, problems = [], [], [], []
        attempted = failed = 0
        steps = list(offline.steps)
        started = time.perf_counter()
        while True:
            trace = bool(args.trace) and (len(passes) + len(traced)) % 2 == 0
            result = stream_pass(runner, checks, stream, model, trace)
            (traced if trace else passes).append(result)
            attempted += result.verdict.attempted
            failed += len(result.verdict.failed)
            problems += result.verdict.problems
            if steps:
                steps.pop(0)()
            if not args.trace:
                for _ in range(min(SETUP_PER_PASS, SETUP_PROCESSES - len(setups))):
                    setups.append(setup_run(runner, minimal, model))
            enough = args.trace or len(passes) * len(decisions) >= MIN_DECISIONS
            if passes and enough and time.perf_counter() - started >= args.seconds:
                break
        for step in steps:
            step()
        while not args.trace and len(setups) < SETUP_PROCESSES:
            setups.append(setup_run(runner, minimal, model))
        f1 = offline.check(model)
        problems += offline.problems

        raw = None
        if args.trace:
            metrics = per_layer(offline, traced, passes, checks)
        else:
            metrics = end_to_end(offline, passes, decisions, setups, runner.peak_rss_mb)
            raw = end_to_end(offline, passes, decisions, setups, runner.peak_rss_mb, raw=True)
    except BaseException:
        runner.kill()
        raise
    finally:
        signal.alarm(0)

    report(args, stream, passes + traced, metrics, raw, problems, f1, decisions)
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def report(args, stream, passes, metrics, raw, problems, f1, decisions) -> None:
    """Human-readable lines ahead of the JSON result."""
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print(f"stream: {stream.n_frames} frames, {len(stream.encounters)} encounters, "
          f"{len(decisions)} decision frames per pass; {len(passes)} passes")
    reasons: dict[str, int] = {}
    for p in passes:
        for why in p.verdict.failed.values():
            for r in why:
                reasons[r] = reasons.get(r, 0) + 1
    for r, n in sorted(reasons.items()):
        print(f"failed encounters: {n} x {r}")
    print(f"held-out window F1: {f1:.4f}")
    print("host slowness (probe time / reference), per pass: "
          + " ".join(f"{1.0 / p.out['scale']:.3f}" for p in passes))
    for p in problems:
        print(f"PROBLEM: {p}")
    print(f"  {'metric':40s} {'scaled':>14s} {'as measured':>14s}")
    for name, (value, unit) in metrics.items():
        measured = f"{raw[name][0]:14.6f}" if raw else ""
        print(f"  {name:40s} {value:14.6f} {measured} {unit}")


def _deadline(signum, frame):
    """Stop the run, and with it the current child (see Runner.kill)."""
    if signum == signal.SIGTERM:
        raise SystemExit("terminated")
    raise TimeoutError(f"run exceeded {RUN_DEADLINE_S} s")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not os.path.isfile(os.path.join(SRC, "snatchdet", "cli.py")):
        print(f"error: no snatchdet sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    result = run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
