"""``scripts/output_digest.py`` prints the same, pinned digests for the same inputs.

The pins hold on every Python version: from 3.12, ``sum()`` over floats is
compensated (Neumaier), and ``neumaier_sum`` below emulates that sum so that
a 3.11 interpreter can check the outputs do not depend on it.
"""

import builtins
import importlib.util
import math
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "output_digest.py"

# The digests of the small input below. A change that alters outputs on
# purpose updates them and says so in CHANGES.md; any other change must
# leave them as they are.
PINNED = {
    "clip.csv": "0a0618460b96b9ef54164f5bb2d54333493641c8b9f84beb1c60f1023ec0268a",
    "sliding.csv": "d811f04a36de9f342201c615f19e4173bcf7834910f79024869c715a90619239",
    "full_model.json": "001e19e8416e2169168f4f5808c9115ac78f7f9e7fc992e284a68eef77417f96",
    "top_model.json": "30253d729b8c87f5e4196b618b096e67213248fb431e5c845b6f5df2aa8500d7",
    "pair_stream.alerts": "2b63e38fc0eb48249c270c73f11cee71b2ab6826f631ae5edfc36b29fa22dd39",
    "pair_stream.evidence": "149b0a76fbba489fc049ac31e82193370413b739bf8378bf0eef09ddf1daef8c",
    "pair_stream.windows": "ca66f406604a83530be1e8b6081aab95b70315b9160e5d86b3d6e47772b460a5",
    "crowd_stream.alerts": "f77411bd768b39a84df34c0802aae8bd27167f121c3ee1ef66d1d2409a56ed7b",
    "crowd_stream.evidence": "20b888a96fa9ee362c328ebcb86c003eec6daff4fd7defd1aee7d4c4f9f6ca7e",
    "crowd_stream.windows": "d56397a636916f9a6406edd2a6104fb68d56ccdc703b7997ad5f7e625a800377",
}


def load_script():
    spec = importlib.util.spec_from_file_location("output_digest", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_builtin_sum = builtins.sum


def neumaier_sum(iterable, start=0):
    """``sum()`` as Python 3.12 computes it over ints and floats.

    Exact ints are added exactly until the first float; from there ints are
    added plainly and floats with Neumaier's compensation, which is added
    back at the end. Any other item falls back to the plain ``sum``.
    """
    items = list(iterable)
    if type(start) is not int or not all(type(v) in (int, float, bool) for v in items):
        return _builtin_sum(items, start)
    exact, k = start, 0
    while k < len(items) and type(items[k]) is not float:
        exact += items[k]
        k += 1
    if k == len(items):
        return exact
    total, c = exact + items[k], 0.0
    for v in items[k + 1 :]:
        if type(v) is not float:
            total += float(v)
            continue
        t = total + v
        if abs(total) >= abs(v):
            c += (total - t) + v
        else:
            c += (v - t) + total
        total = t
    if c and math.isfinite(c):
        total += c
    return total


def test_neumaier_sum_emulates_the_compensated_sum():
    assert neumaier_sum([0.1] * 10) == 1.0  # 0.9999999999999999 left to right
    assert neumaier_sum([1.0, 1e100, 1.0, -1e100]) == 2.0
    assert neumaier_sum([1, 2, True]) == 4 and type(neumaier_sum([1, 2])) is int
    assert neumaier_sum([[1], [2]], []) == [1, 2]
    assert neumaier_sum([]) == 0


def test_digests_repeat_on_a_small_input(tmp_path):
    digest = load_script()
    runs = []
    for name in ("first", "second"):
        workdir = tmp_path / name
        workdir.mkdir()
        runs.append(digest.digests(str(workdir), n_per_class=2, n_trees=5, rounds=1))
    assert runs[0] == runs[1]
    streams = ("pair_stream", "crowd_stream")
    outputs = ("alerts", "evidence", "windows")
    assert set(runs[0]) == {
        "clip.csv", "sliding.csv", "full_model.json", "top_model.json",
        *(f"{s}.{o}" for s in streams for o in outputs),
    }
    assert all(len(v) == 64 for v in runs[0].values())
    assert runs[0] == PINNED


def test_digests_do_not_depend_on_a_compensated_sum(tmp_path, monkeypatch):
    """The small input's outputs under 3.12's float ``sum()`` equal the pins."""
    digest = load_script()
    monkeypatch.setattr(builtins, "sum", neumaier_sum)
    assert digest.digests(str(tmp_path), n_per_class=2, n_trees=5, rounds=1) == PINNED
