"""The forest walks nested tuples built once per tree.

``forest_reference`` keeps the flat four-list walk the nested form
replaced; both must give the same probability, bit for bit, on any valid
model document. Shared children and deep chains must load in linear time
without recursion, and the leaves must be added left to right.
"""

import json
import math
import time

from hypothesis import given, settings
from hypothesis import strategies as st

from forest_reference import flat_predict_probability
from snatchdet.forest import (
    MODEL_FORMAT,
    MODEL_VERSION,
    ForestConfig,
    Tree,
    deserialize,
    predict_probability,
    serialize,
    train,
)
from test_forest import separable_dataset

N_FEATURES = 3
SPECIAL = [math.nan, math.inf, -math.inf, 0.0, -0.0, 1.0]


def document(trees, n_features=N_FEATURES):
    """A model document holding ``trees``: (feature, threshold, left, right, leaf) lists."""
    return json.dumps({
        "format": MODEL_FORMAT,
        "version": MODEL_VERSION,
        "schema": [f"f{i}" for i in range(n_features)],
        "config": {"n_trees": len(trees), "seed": 0, "class_weight_mode": "balanced",
                   "max_depth": None, "min_samples_leaf": 1, "features_per_split": "sqrt"},
        "class_weights": [1.0, 1.0],
        "importances": ["0.0"] * n_features,
        "trees": [
            {"feature": feature, "threshold": [repr(t) for t in threshold], "left": left,
             "right": right, "leaf": [[repr(w0), repr(w1)] for w0, w1 in leaf]}
            for feature, threshold, left, right, leaf in trees
        ],
    })


def chain(n, shared):
    """An n-node chain: node i splits to node i + 1 on both sides (``shared``)
    or on the left, with the last node as its right child; the last node is a leaf."""
    feature = [i % N_FEATURES for i in range(n - 1)] + [-1]
    threshold = [float(i) for i in range(n - 1)] + [0.0]
    left = [i + 1 for i in range(n - 1)] + [-1]
    right = [i + 1 if shared else n - 1 for i in range(n - 1)] + [-1]
    leaf = [(0.0, 0.0)] * (n - 1) + [(1.0, 3.0)]
    return feature, threshold, left, right, leaf


weights = st.floats(0.0, 1e6)
thresholds = st.one_of(st.sampled_from(SPECIAL), st.floats(-4.0, 4.0), st.floats())


@st.composite
def valid_trees(draw):
    """Flat arrays that ``_check_tree`` accepts: children after their parent
    (possibly shared, possibly leaving nodes unreachable), usable leaves."""
    n = draw(st.integers(1, 25))
    feature, threshold, left, right, leaf = [], [], [], [], []
    for i in range(n):
        if i < n - 1 and draw(st.booleans()):
            feature.append(draw(st.integers(0, N_FEATURES - 1)))
            left.append(draw(st.integers(i + 1, n - 1)))
            right.append(draw(st.integers(i + 1, n - 1)))
            leaf.append((0.0, 0.0))
        else:
            feature.append(-1)
            left.append(-1)
            right.append(-1)
            w0, w1 = draw(weights), draw(weights)
            leaf.append((w0, w1) if w0 + w1 > 0 else (w0, 1.0))
        threshold.append(draw(thresholds))
    return feature, threshold, left, right, leaf


@settings(max_examples=150, deadline=None)
@given(
    st.lists(valid_trees(), min_size=1, max_size=6),
    st.lists(
        st.lists(st.one_of(st.sampled_from(SPECIAL), st.floats(-4.0, 4.0), st.floats()),
                 min_size=N_FEATURES, max_size=N_FEATURES),
        min_size=1, max_size=5,
    ),
)
def test_nested_walk_matches_the_flat_walk(trees, rows):
    model = deserialize(document(trees))
    for x in rows:
        assert repr(predict_probability(model, x)) == repr(flat_predict_probability(model, x))


def test_trained_model_matches_the_flat_walk():
    data = separable_dataset()
    model = train(data, ForestConfig(n_trees=25, seed=3))
    loaded = deserialize(serialize(model))
    for row in data.X:
        expected = repr(flat_predict_probability(model, row))
        assert repr(predict_probability(model, row)) == expected
        assert repr(predict_probability(loaded, row)) == expected


def test_shared_children_load_in_linear_time():
    # 200 nodes, each splitting to node i + 1 on both sides: 2**199 root-to-leaf
    # paths, so a top-down build that copies each child per parent never ends.
    start = time.perf_counter()
    model = deserialize(document([chain(200, shared=True)]))
    assert time.perf_counter() - start < 1.0
    assert predict_probability(model, [0.0, 1.0, 2.0]) == 0.75


def test_deep_chain_loads_without_recursion():
    model = deserialize(document([chain(10_000, shared=False)]))
    assert predict_probability(model, [-1.0, -1.0, -1.0]) == 0.75
    assert predict_probability(model, [1e9, 1e9, 1e9]) == 0.75


def test_leaves_are_added_left_to_right():
    def stub(w0, w1):
        tree = Tree(feature=[-1], threshold=[0.0], left=[-1], right=[-1], leaf_weights=[(w0, w1)])
        tree.set_probabilities()
        return tree

    model = deserialize(serialize(train(separable_dataset(), ForestConfig(n_trees=2, seed=1))))
    # 1.0 then 100 leaves of 1e-17: each 1e-17 is lost against 1.0 when added
    # in order, but a compensated sum keeps their total, 1e-15.
    model.trees[:] = [stub(0.0, 1.0)] + [stub(1.0, 1e-17) for _ in range(100)]
    leaves = [1.0] + [1e-17] * 100
    in_order = 0.0
    for leaf in leaves:
        in_order += leaf
    assert in_order / 101 != math.fsum(leaves) / 101
    assert predict_probability(model, [0.0, 0.0]) == in_order / 101
