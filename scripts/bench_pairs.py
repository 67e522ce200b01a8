"""Compare two git revisions with perfbench and write a ``BENCH_<n>_<slug>.json``.

    python3 scripts/bench_pairs.py --parent HEAD~1 --change HEAD \\
        --out BENCH_22_one_pass_ingest.json --first-seed 2201 --pairs 10 \\
        --work DIR [--seconds 20] [--claim crowd_churn:frame_latency_p50_us]

Each side runs from its own ``git archive`` copy of its revision under
``--work``, and builds its own perfbench cache there with one warm-up run
(pair_stream, seed 1, 5 s) that is not counted. Then, per workload in
``BENCHMARK.json`` order, pair i (seed ``first_seed + i``) runs
``perfbench/run.py --trace 0`` on both sides, the parent first when i is
even and the change first when it is odd (``--workloads`` sets the order). One traced run (seed 1) per side
and workload follows.

The file records every run with its host-slowness factors, the median and
quartiles of each end-to-end metric, the pairs each side won, whether a
metric is worse than its ``BENCHMARK.json`` bound, and, with ``--claim``,
whether the claimed metric is better in at least nine of ten pairs and by
more than the parent's interquartile range. ``claim_note``,
``traced_note``, ``notes`` and the change's ``summary`` are left empty for
the author. Nothing under ``perfbench/`` is changed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from typing import Optional

import numpy as np
import orjson

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SLOWNESS = "host slowness (probe time / reference), per pass:"
RUN_FIELDS = ("seed", "correct", "attempted", "failed", "host_slowness_per_pass")


def export(rev: str, dest: str) -> str:
    """Unpack ``git archive`` of ``rev`` into ``dest``; returns the commit sha."""
    sha = subprocess.run(
        ["git", "-C", ROOT, "rev-parse", "--verify", f"{rev}^{{commit}}"],
        check=True, capture_output=True, text=True,
    ).stdout.strip()
    os.makedirs(dest)
    archive = subprocess.Popen(["git", "-C", ROOT, "archive", "--format=tar", sha],
                               stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", dest], stdin=archive.stdout, check=True)
    if archive.wait() != 0:
        raise RuntimeError(f"git archive {sha} failed")
    return sha


def bench_run(tree: str, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One ``perfbench/run.py`` process in ``tree``: its result line and slowness factors."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=tree, check=True, capture_output=True, text=True,
    )
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1])
    slowness = [float(v) for line in lines if line.startswith(SLOWNESS)
                for v in line[len(SLOWNESS):].split()]
    return {
        "seed": seed,
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "host_slowness_per_pass": slowness,
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
    }


def _quartiles(values: list[float]) -> dict:
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"median": float(median), "q1": float(q1), "q3": float(q3)}


def _failed_share(runs: list[dict]) -> float:
    attempted = sum(r["attempted"] for r in runs)
    return sum(r["failed"] for r in runs) / attempted if attempted else 0.0


def summarise(end_to_end: list[dict], runs: dict, claim: Optional[tuple[str, str]] = None) -> dict:
    """The ``workloads``, ``no_regression`` and ``claim`` fields of a BENCH file.

    ``end_to_end`` is ``BENCHMARK.json``'s list of metrics; ``runs`` maps a
    workload to ``{"parent": [run, ...], "change": [run, ...]}``, pair i
    being the i-th run of each side, each run as ``bench_run`` gives it.
    Each side's ``failed_share`` is its failed encounters over its attempted
    ones, summed over its runs. Beside one flag per metric, ``no_regression``
    holds ``failed_share_not_higher`` (the change's share is at most the
    parent's) and ``every_run_correct`` (every run of the change is correct).
    """
    workloads, no_regression = {}, {}
    for workload, sides in runs.items():
        metrics = {}
        for spec in end_to_end:
            name, lower = spec["name"], spec["better"] == "lower"
            parent = [r["metrics"][name] for r in sides["parent"]]
            change = [r["metrics"][name] for r in sides["change"]]
            p, c = _quartiles(parent), _quartiles(change)
            limit = p["median"] * (1 + spec["bound"] if lower else 1 - spec["bound"])
            metrics[name] = {
                "unit": spec["unit"],
                "better": spec["better"],
                "bound": spec["bound"],
                "parent": p,
                "change": c,
                "median_change_pct": round((c["median"] / p["median"] - 1) * 100, 2),
                "worse_beyond_bound": c["median"] > limit if lower else c["median"] < limit,
                "pairs_change_better": sum(
                    (b < a) if lower else (b > a) for a, b in zip(parent, change)
                ),
                "pairs_change_worse": sum(
                    (b > a) if lower else (b < a) for a, b in zip(parent, change)
                ),
                "parent_values": parent,
                "change_values": change,
            }
        shares = {side: _failed_share(rs) for side, rs in sides.items()}
        workloads[workload] = {
            "runs": {side: [{k: r[k] for k in RUN_FIELDS} for r in rs] for side, rs in sides.items()},
            "failed_share": shares,
            "metrics": metrics,
        }
        no_regression[workload] = {name: not m["worse_beyond_bound"] for name, m in metrics.items()}
        no_regression[workload]["failed_share_not_higher"] = shares["change"] <= shares["parent"]
        no_regression[workload]["every_run_correct"] = all(r["correct"] for r in sides["change"])
    out = {"workloads": workloads, "no_regression": no_regression, "claim": None}
    if claim is not None:
        workload, name = claim
        m = workloads[workload]["metrics"][name]
        pairs = len(m["parent_values"])
        gain = m["parent"]["median"] - m["change"]["median"]
        if m["better"] == "higher":
            gain = -gain
        iqr = m["parent"]["q3"] - m["parent"]["q1"]
        out["claim"] = {
            "workload": workload,
            "metric": name,
            "better": m["better"],
            "pairs_change_better": m["pairs_change_better"],
            "pairs": pairs,
            "median_difference": gain,
            "parent_iqr": iqr,
            "median_change_pct": m["median_change_pct"],
            "met": m["pairs_change_better"] >= 0.9 * pairs and gain > iqr,
        }
    return out


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git revision of the parent side")
    parser.add_argument("--change", required=True, help="git revision of the change side")
    parser.add_argument("--out", required=True, help="BENCH_<n>_<slug>.json to write")
    parser.add_argument("--first-seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--claim", help="WORKLOAD:METRIC the change claims to improve")
    parser.add_argument("--workloads", nargs="+", help="in this order (default: BENCHMARK.json's)")
    parser.add_argument("--work", required=True,
                        help="directory for the two source copies; must not exist yet")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        benchmark = json.load(fh)
    claim = tuple(args.claim.split(":", 1)) if args.claim else None

    trees, shas = {}, {}
    for side in ("parent", "change"):
        trees[side] = os.path.join(args.work, side)
        shas[side] = export(getattr(args, side), trees[side])
        bench_run(trees[side], "pair_stream", 1, 5, 0)  # builds the side's cache

    seeds = [args.first_seed + i for i in range(args.pairs)]
    runs, traced = {}, {}
    for workload in args.workloads or [w["name"] for w in benchmark["workloads"]]:
        runs[workload] = {"parent": [], "change": []}
        for i, seed in enumerate(seeds):
            for side in (("parent", "change") if i % 2 == 0 else ("change", "parent")):
                runs[workload][side].append(
                    bench_run(trees[side], workload, seed, args.seconds, 0))
                print(f"{workload} seed {seed} {side} done", file=sys.stderr)
        traced[workload] = {}
        for side in ("parent", "change"):
            run = bench_run(trees[side], workload, 1, args.seconds, 1)
            traced[workload][side] = {k: run[k] for k in RUN_FIELDS[:4]}
            traced[workload][side]["per_layer"] = run["metrics"]

    summary = summarise(benchmark["end_to_end"], runs, claim)
    doc = {
        "what": (
            f"{args.pairs} alternating parent/change pairs per workload of `python3"
            f" perfbench/run.py --workload <w> --seed <i> --seconds {args.seconds:g} --trace 0`,"
            " made by `scripts/bench_pairs.py`; pair i (i = 0 at the first seed) runs the parent"
            " first when i is even and the change first when it is odd; workloads in the order"
            f" {', '.join(runs)}; each side runs from its own `git archive` copy of its commit,"
            " with its own perfbench cache built by one warm-up run (pair_stream, seed 1,"
            " --seconds 5, not counted); then one traced run (`--trace 1`, seed 1) per side and"
            " workload. Quartiles are numpy linear-interpolation percentiles 25 and 75."
        ),
        "host": (
            f"{os.cpu_count()}-core {platform.system()}, Python {platform.python_version()},"
            f" numpy {np.__version__}, orjson {orjson.__version__}, single-threaded runs"
        ),
        "parent": {"git_sha": shas["parent"]},
        "change": {"git_sha": shas["change"], "summary": ""},
        "seeds": seeds,
        "claim": summary["claim"],
        "workloads": summary["workloads"],
        "no_regression": summary["no_regression"],
        "traced": traced,
        "claim_note": "",
        "traced_note": "",
        "notes": [],
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
