"""``scripts/bench_pairs.py`` summarises paired benchmark runs as the BENCH files record them."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"

END_TO_END = [
    {"name": "frames_per_s", "unit": "1/s", "better": "higher", "bound": 0.15},
    {"name": "frame_latency_p50_us", "unit": "us", "better": "lower", "bound": 0.25},
]


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _runs(fps, p50, failed=2, correct=True):
    return [
        {"seed": 7 + i, "correct": correct, "attempted": 8, "failed": failed,
         "host_slowness_per_pass": [0.6, 0.61],
         "metrics": {"frames_per_s": f, "frame_latency_p50_us": p}}
        for i, (f, p) in enumerate(zip(fps, p50))
    ]


def test_summary_of_fabricated_runs(bench_pairs):
    parent = _runs([100, 110, 120, 130, 140], [200, 210, 220, 230, 240])
    # latency 10% lower in four of five pairs, tied in one; fps 20% lower
    change = _runs([80, 88, 96, 104, 112], [180, 189, 198, 207, 240])
    out = bench_pairs.summarise(END_TO_END, {"w": {"parent": parent, "change": change}},
                                claim=("w", "frame_latency_p50_us"))

    p50 = out["workloads"]["w"]["metrics"]["frame_latency_p50_us"]
    assert p50["parent"] == {"median": 220.0, "q1": 210.0, "q3": 230.0}
    assert p50["change"] == {"median": 198.0, "q1": 189.0, "q3": 207.0}
    assert p50["median_change_pct"] == -10.0
    assert (p50["pairs_change_better"], p50["pairs_change_worse"]) == (4, 0)
    assert p50["parent_values"] == [200, 210, 220, 230, 240]
    assert not p50["worse_beyond_bound"]

    fps = out["workloads"]["w"]["metrics"]["frames_per_s"]
    assert fps["median_change_pct"] == -20.0
    assert (fps["pairs_change_better"], fps["pairs_change_worse"]) == (0, 5)
    assert fps["worse_beyond_bound"]  # 20% lower, bound 15%
    assert out["no_regression"] == {"w": {
        "frames_per_s": False, "frame_latency_p50_us": True,
        "failed_share_not_higher": True, "every_run_correct": True,
    }}
    assert out["workloads"]["w"]["failed_share"] == {"parent": 0.25, "change": 0.25}

    # better in 4 of 5 pairs is below nine in ten, though the gap is wide
    claim = out["claim"]
    assert claim["median_difference"] == 22.0 and claim["parent_iqr"] == 20.0
    assert (claim["pairs_change_better"], claim["pairs"]) == (4, 5)
    assert claim["met"] is False

    runs = out["workloads"]["w"]["runs"]
    assert runs["parent"][0] == {"seed": 7, "correct": True, "attempted": 8, "failed": 2,
                                 "host_slowness_per_pass": [0.6, 0.61]}


def test_claim_needs_nine_in_ten_and_more_than_the_parent_iqr(bench_pairs):
    parent = _runs([100 + i for i in range(10)], [200 + 10 * i for i in range(10)])
    narrow = _runs([101 + i for i in range(10)], [199 + 10 * i for i in range(10)])
    wide = _runs([130 + i for i in range(10)], [150 + 10 * i for i in range(10)])
    for change, met in ((narrow, False), (wide, True)):
        runs = {"w": {"parent": parent, "change": change}}
        for metric in ("frame_latency_p50_us", "frames_per_s"):
            claim = bench_pairs.summarise(END_TO_END, runs, claim=("w", metric))["claim"]
            assert claim["pairs_change_better"] == 10
            assert claim["met"] is met
    assert bench_pairs.summarise(END_TO_END, runs)["claim"] is None


def test_failed_share_and_correctness_flags(bench_pairs):
    fps, p50 = [100, 110, 120, 130], [200, 210, 220, 230]
    parent = _runs(fps, p50)
    cases = [
        # (change runs, failed share not higher, every run correct)
        (_runs(fps, p50, failed=1), True, True),
        (_runs(fps, p50, failed=3), False, True),
        (_runs(fps, p50, correct=False), True, False),
    ]
    for change, not_higher, correct in cases:
        out = bench_pairs.summarise(END_TO_END, {"w": {"parent": parent, "change": change}})
        flags = out["no_regression"]["w"]
        assert (flags["failed_share_not_higher"], flags["every_run_correct"]) == (not_higher, correct)
        share = out["workloads"]["w"]["failed_share"]
        assert share["parent"] == 8 / 32
        assert share["change"] == sum(r["failed"] for r in change) / 32
    # one incorrect run among correct ones is enough; a parent's does not count
    mixed = _runs(fps, p50)
    mixed[2]["correct"] = False
    out = bench_pairs.summarise(END_TO_END, {"w": {"parent": parent, "change": mixed}})
    assert out["no_regression"]["w"]["every_run_correct"] is False
    out = bench_pairs.summarise(END_TO_END, {"w": {"parent": mixed, "change": parent}})
    assert out["no_regression"]["w"]["every_run_correct"] is True
