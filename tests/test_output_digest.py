"""``scripts/output_digest.py`` prints the same, pinned digests for the same inputs.

The pins hold on every Python version: from 3.12, ``sum()`` over floats is
compensated (Neumaier), and ``neumaier_sum`` below emulates that sum so that
a 3.11 interpreter can check the outputs do not depend on it.
"""

import builtins
import importlib.util
import math
from pathlib import Path

from snatchdet import forest
from snatchdet.features import full_schema

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "output_digest.py"

# The digests of the small input below. A change that alters outputs on
# purpose updates them and says so in CHANGES.md; any other change must
# leave them as they are.
PINNED = {
    "sliding.csv": "d811f04a36de9f342201c615f19e4173bcf7834910f79024869c715a90619239",
    "full_model.json": "0270635ae7a1d83ca702d5304048bf50aa63690b03d056826d7a10bbaefe7a5b",
    "top_model.json": "e997bf4e0daa7705847c7b1b974c4f6c27fda524d5ddced08226b556aefec125",
    "pair_stream.alerts": "846e66e53f26af6dac669af9c7511d04519a6d5da749944f65ec5381823266ad",
    "pair_stream.evidence": "de778f5da22c56947857fee917cd75950a7043eeaaf3f5a1b5de10fcd41bd415",
    "pair_stream.windows": "2c485cae4fb111da4a20f629733a1493751a03fb7df6d116f94674c3b6b2ef90",
    "crowd_stream.alerts": "846e66e53f26af6dac669af9c7511d04519a6d5da749944f65ec5381823266ad",
    "crowd_stream.evidence": "de778f5da22c56947857fee917cd75950a7043eeaaf3f5a1b5de10fcd41bd415",
    "crowd_stream.windows": "42723a2ff7e6856f1242285ae25fde1d25da1bddbd132014842e7b07b1278a66",
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
        "sliding.csv", "full_model.json", "top_model.json",
        *(f"{s}.{o}" for s in streams for o in outputs),
    }
    assert all(len(v) == 64 for v in runs[0].values())
    assert runs[0] == PINNED
    # the top-10 model's stream smooths the shoulders, wrists and hips only
    top = forest.load_model(str(tmp_path / "first" / "top_model.json"))
    assert full_schema().select(top.feature_names).joints == {5, 6, 9, 10, 11, 12}


def test_digests_do_not_depend_on_a_compensated_sum(tmp_path, monkeypatch):
    """The small input's outputs under 3.12's float ``sum()`` equal the pins."""
    digest = load_script()
    monkeypatch.setattr(builtins, "sum", neumaier_sum)
    assert digest.digests(str(tmp_path), n_per_class=2, n_trees=5, rounds=1) == PINNED
