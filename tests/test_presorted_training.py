"""``forest.train`` grows bit for bit the trees of the per-node reference trainer.

``train`` sorts each column once and keeps each node as a count per row;
``forest_reference.reference_train`` gathers each node's sample indices and
sorts them again per candidate feature. Hypothesis draws datasets with
heavy ties, constant columns, duplicated rows with mixed labels and pairs
of adjacent floats, and every tree array and the importances must be equal.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from forest_reference import reference_train
from snatchdet.forest import (
    Dataset,
    ForestConfig,
    balanced_weights,
    predict,
    train,
    training_accuracy,
)
from test_forest import root_split

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


@st.composite
def datasets(draw):
    """(X, y): rows drawn from a few distinct rows, cells from a small pool of values."""
    n = draw(st.integers(2, 60))
    d = draw(st.integers(1, 8))
    base = draw(st.lists(finite, min_size=1, max_size=5))
    # each value with the next float above it, so adjacent floats are common
    pool = sorted({*base, *(float(np.nextafter(v, np.inf)) for v in base), -0.0, 0.0})
    n_distinct = draw(st.integers(1, n))
    size = n_distinct * d
    cells = draw(st.lists(st.integers(0, len(pool) - 1), min_size=size, max_size=size))
    distinct = np.array([pool[i] for i in cells], dtype=np.float64).reshape(n_distinct, d)
    constant = draw(st.lists(st.booleans(), min_size=d, max_size=d))
    distinct[:, constant] = distinct[0, constant]
    rows = draw(st.lists(st.integers(0, n_distinct - 1), min_size=n, max_size=n))
    y = np.array(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)), dtype=np.int64)
    y[:2] = (0, 1)
    return distinct[rows], y


def assert_same_forest(model, trees, importances):
    assert len(model.trees) == len(trees)
    for got, want in zip(model.trees, trees):
        assert got.feature == want["feature"]
        assert [repr(t) for t in got.threshold] == [repr(t) for t in want["threshold"]]
        assert got.left == want["left"]
        assert got.right == want["right"]
        assert [tuple(map(repr, w)) for w in got.leaf_weights] == [
            tuple(map(repr, w)) for w in want["leaf_weights"]
        ]
    assert np.array(model.importances, dtype=np.float64).tobytes() == importances.tobytes()


@settings(max_examples=150, deadline=None)
@given(datasets(), st.integers(1, 8), st.integers(0, 2**32 - 1))
def test_train_equals_the_per_node_reference(data, n_trees, seed):
    X, y = data
    names = tuple(f"f{i}" for i in range(X.shape[1]))
    model = train(Dataset(names, X, y), ForestConfig(n_trees=n_trees, seed=seed))
    assert_same_forest(model, *reference_train(X, y, n_trees, seed))


def _assert_splits_by_value(lo: float, hi: float) -> None:
    """Rows at ``lo`` (class 0) and ``hi`` (class 1) split apart at threshold ``lo``."""
    X = np.array([[lo]] * 5 + [[hi]] * 5)
    y = np.array([0] * 5 + [1] * 5)
    feature, threshold, _, left, right = root_split(X, y, np.arange(1), *balanced_weights(y))
    # the stored threshold is lo, and x <= threshold splits as training did
    assert (feature, threshold) == (0, lo)
    assert left.tolist() == [1] * 5 + [0] * 5
    assert right.tolist() == [0] * 5 + [1] * 5
    data = Dataset(("f0",), X, y)
    model = train(data, ForestConfig(n_trees=8, seed=3))
    assert_same_forest(model, *reference_train(X, y, 8, 3))
    split_trees = [tree for tree in model.trees if tree.feature[0] == 0]
    assert split_trees
    for tree in split_trees:
        assert tree.threshold[0] == lo
        assert tree.leaf_weights[tree.left[0]][1] == 0.0
        assert tree.leaf_weights[tree.right[0]][0] == 0.0
    assert training_accuracy(model, data) == 1.0
    assert predict(model, [hi])[0] == 1


def test_adjacent_floats_split_by_value_not_by_midpoint():
    lo = 1.0 + 2.0**-52
    hi = float(np.nextafter(lo, np.inf))
    assert (lo + hi) / 2.0 == hi  # the midpoint rounds to the higher value
    _assert_splits_by_value(lo, hi)


def test_overflowing_midpoint_splits_by_value():
    lo, hi = 1e308, 1.5e308
    assert (lo + hi) / 2.0 == math.inf  # two finite values, an infinite midpoint
    _assert_splits_by_value(lo, hi)
