"""The forest compiles its trees a chunk at a time, or walks their arrays.

``forest_reference`` keeps a flat four-list walk of its own, and a bound
walk beside it; compiled and walked trees must give their probability and
bound (for every set of unknown columns), bit for bit, on any valid model
document and any finite row, and refuse a row with a non-finite cell.
Shared children and deep chains must load and predict in linear time
without recursion, and the leaves must be added left to right. A trained
model compiles every tree; a tree with a non-finite threshold, a deep chain
or an exponential expansion of shared children is walked. The stream engine
compiles the exact form one chunk per frame and the bound form alongside it
from the second frame, so its first decision finds both compiled; a
prediction or a bound compiles whatever is left of its form.
"""

import json
import math
import os
import tempfile
import time
import tracemalloc

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import run_engine
from forest_reference import flat_bound_probability, flat_predict_probability, serialize
from snatchdet import pipeline
from snatchdet.config import PipelineConfig
from snatchdet.forest import (
    MODEL_FORMAT,
    MODEL_VERSION,
    Dataset,
    ForestConfig,
    SchemaMismatch,
    Tree,
    bound_probability,
    compile_chunk,
    deserialize,
    predict_probability,
    save_model,
    train,
)
from snatchdet.synth import ScenarioSpec, generate
from test_forest import separable_dataset

N_FEATURES = 3
SPECIAL = [math.nan, math.inf, -math.inf, 0.0, -0.0, 1.0]


def column_sets(n):
    """Every set of the first three of ``n`` column indices."""
    return [frozenset(i for i in range(min(n, 3)) if mask >> i & 1) for mask in range(2 ** min(n, 3))]


def assert_as_the_flat_walks(model, x):
    """``predict_probability`` and ``bound_probability``, with each set of
    ``column_sets`` unknown, are the flat walks' bit for bit on a finite row
    ``x``; a row with a non-finite cell is refused."""
    unknowns = column_sets(len(model.feature_names))
    if not all(map(math.isfinite, x)):
        with pytest.raises(SchemaMismatch):
            predict_probability(model, x)
        for unknown in unknowns:
            with pytest.raises(SchemaMismatch):
                bound_probability(model, x, unknown)
        return
    assert repr(predict_probability(model, x)) == repr(flat_predict_probability(model, x))
    for unknown in unknowns:
        got = bound_probability(model, x, unknown)
        assert repr(got) == repr(flat_bound_probability(model, x, unknown))


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
        assert_as_the_flat_walks(model, x)


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
        return Tree(feature=[-1], threshold=[0.0], left=[-1], right=[-1], leaf_weights=[(w0, w1)])

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


def stump(threshold, feature=0):
    """One split on ``feature`` at ``threshold`` with leaves 0.25 and 0.75."""
    leaf = [(0.0, 0.0), (3.0, 1.0), (1.0, 3.0)]
    return [feature, -1, -1], [threshold, 0.0, 0.0], [1, -1, -1], [2, -1, -1], leaf


WALKED = {
    "nan_threshold": stump(math.nan),
    "inf_threshold": stump(math.inf),
    "minus_inf_threshold": stump(-math.inf),
    # deeper than the generated source may indent
    "deep_chain": chain(10_000, shared=False),
    # 2**199 paths, deeper than the generated source may indent
    "shared_chain": chain(200, shared=True),
    # 2**29 paths within the depth limit: too many lines
    "shallow_shared_chain": chain(30, shared=True),
}


@pytest.mark.parametrize("name", sorted(WALKED))
def test_unusual_trees_are_walked_in_linear_time(name):
    start = time.perf_counter()
    model = deserialize(document([WALKED[name]]))
    for x in ([0.0, 1.0, 2.0], [-1.0, -1.0, -1.0], [1e9, 1e9, 1e9]):
        assert repr(predict_probability(model, x)) == repr(flat_predict_probability(model, x))
    assert time.perf_counter() - start < 1.0
    assert (model.compiled.n_compiled, model.compiled.n_walked) == (0, 1)


@pytest.mark.parametrize("name", sorted(WALKED))
def test_unusual_trees_bound_as_the_flat_walk_in_linear_time(name):
    start = time.perf_counter()
    model = deserialize(document([WALKED[name]]))
    for x in ([0.0, 1.0, 2.0], [-1.0, -1.0, -1.0], [1e9, 1e9, 1e9]):
        assert_as_the_flat_walks(model, x)
    assert time.perf_counter() - start < 2.0
    # a merge drops the non-finite threshold of a stump's split on column 0;
    # a tree with shared children is walked
    walked = 0 if name.endswith("threshold") else 1
    assert model.bounds[frozenset({0})].n_walked == walked


@pytest.mark.parametrize("n, walked", [(64, 0), (65, 1)])
def test_a_chain_compiles_up_to_63_splits_deep(n, walked):
    model = deserialize(document([chain(n, shared=False)]))
    for x in ([-1.0, -1.0, -1.0], [1e9, 1e9, 1e9], [30.0, 31.0, 32.0]):
        assert repr(predict_probability(model, x)) == repr(flat_predict_probability(model, x))
    assert model.compiled.n_walked == walked


@pytest.mark.parametrize("where", ["start", "middle", "end", "everywhere"])
def test_compiled_and_walked_trees_mix_in_tree_order(where):
    # the walked trees sit between runs of compiled stumps and at the ends
    compiled = [stump(0.5 * (i % 7) - 1.5, feature=i % N_FEATURES) for i in range(60)]
    walked = [WALKED["nan_threshold"], WALKED["deep_chain"], WALKED["inf_threshold"]]
    if where == "start":
        trees = walked + compiled
    elif where == "middle":
        trees = compiled[:25] + walked + compiled[25:]
    elif where == "end":
        trees = compiled + walked
    else:
        trees = walked[:1] + compiled[:30] + walked[1:2] + compiled[30:] + walked[2:]
    model = deserialize(document(trees))
    for x in [[v] * N_FEATURES for v in SPECIAL] + [[-1.0, 0.2, 1.0], [0.7, -3.0, 2.5]]:
        assert_as_the_flat_walks(model, x)
    assert (model.compiled.n_compiled, model.compiled.n_walked) == (60, 3)
    # merged, the stumps and the non-finite thresholds on column 0 compile;
    # the deep chain has shared children, so it is walked
    assert (model.bounds[frozenset({0})].n_compiled, model.bounds[frozenset({0})].n_walked) == (62, 1)


@pytest.fixture(scope="module")
def trained_500():
    """500 trees on overlapping classes: about 7 nodes a tree, as deployed models have."""
    return train(separable_dataset(n=40, margin=0.5), ForestConfig(n_trees=500, seed=1))


def test_trained_model_compiles_every_tree(trained_500):
    loaded = deserialize(serialize(trained_500))
    for row in separable_dataset(n=40, seed=9, margin=0.5).X:
        expected = repr(flat_predict_probability(trained_500, row))
        assert repr(predict_probability(trained_500, row)) == expected
        assert repr(predict_probability(loaded, row)) == expected
    for model in (trained_500, loaded):
        assert (model.compiled.n_compiled, model.compiled.n_walked) == (500, 0)


def test_first_prediction_compiles_in_bounded_memory(trained_500):
    # one generated function for the whole forest peaks near 13 MB here
    model = deserialize(serialize(trained_500))
    tracemalloc.start()
    try:
        predict_probability(model, [0.0, 0.0])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert model.compiled.n_compiled == 500
    assert peak < 4_000_000


def test_compile_chunk_adds_one_function_a_call_and_a_prediction_ends_it(trained_500):
    model = deserialize(serialize(trained_500))
    for calls in range(1, 4):
        assert compile_chunk(model) is False
        assert len(model.compiled.steps) == calls
    assert 0 < model.compiled.n_compiled < 500
    for row in separable_dataset(n=40, seed=9, margin=0.5).X:
        expected = repr(flat_predict_probability(trained_500, row))
        assert repr(predict_probability(model, row)) == expected
    assert model.compiled.done
    assert (model.compiled.n_compiled, model.compiled.n_walked) == (500, 0)
    assert compile_chunk(model) is True
    # the same chunks as a model compiled all at once by its first prediction
    whole = deserialize(serialize(trained_500))
    predict_probability(whole, [0.0, 0.0])
    assert len(whole.compiled.steps) == len(model.compiled.steps)


def test_a_walked_tree_ends_a_chunk_and_follows_it():
    compiled = [stump(0.5 * (i % 7) - 1.5, feature=i % N_FEATURES) for i in range(60)]
    model = deserialize(document(compiled[:5] + [WALKED["nan_threshold"]] + compiled[5:]))
    assert compile_chunk(model) is False
    assert (model.compiled.n_compiled, model.compiled.n_walked) == (5, 1)
    assert len(model.compiled.steps) == 2
    for x in [[v] * N_FEATURES for v in SPECIAL] + [[-1.0, 0.2, 1.0]]:
        assert_as_the_flat_walks(model, x)


def test_stream_engine_compiles_both_forms_before_its_first_decision(monkeypatch):
    cfg = PipelineConfig()
    frames = generate(ScenarioSpec(kind="snatch", seed=11, duration=5.0, noise_sigma=1.0)).frames
    rows = [[0.0, 1.0, 0.0], [1.0, 0.0, 2.0], [0.5, 0.5, 1.0]]
    model = train(
        Dataset(("distance_mean", "A_velocity_mean", "relativeSpeed_mean"), rows, [0, 1, 1]),
        ForestConfig(n_trees=500, seed=3),
    )
    compiled_when_called = []
    predict, bound = pipeline.predict_probability, pipeline.bound_probability

    def recording_predict(m, x):
        compiled_when_called.append(("predict", m.compiled.done))
        return predict(m, x)

    def recording_bound(m, x, unknown):
        compiled_when_called.append(("bound", m.bounds[unknown].done and m.compiled.done))
        return bound(m, x, unknown)

    monkeypatch.setattr(pipeline, "predict_probability", recording_predict)
    monkeypatch.setattr(pipeline, "bound_probability", recording_bound)
    engine = pipeline.StreamEngine(model, cfg)
    unknown = engine.schema.directional
    assert unknown == frozenset({2})
    exact_steps, bound_trees = [], []
    for record in frames:
        engine.process(record)
        exact_steps.append(len(model.compiled.steps))
        form = model.bounds.get(unknown)
        bound_trees.append(0 if form is None else form.n_compiled + form.n_walked)
        if model.compiled.done and form is not None and form.done:
            break
    # the exact form one chunk a frame; the bound form from the second frame
    # on, at least its share of the trees each frame; both before the first
    # window is full
    n = len(exact_steps)
    exact_frames = exact_steps.index(len(model.compiled.steps)) + 1
    assert exact_steps[:exact_frames] == list(range(1, exact_frames + 1))
    assert bound_trees[0] == 0 and 0 < bound_trees[1] < 500
    for k, done in enumerate(bound_trees[1:], start=2):
        assert done >= min(500, 500 * (k - 1) / (cfg.window_frames - 2))
    assert 1 < exact_frames <= n < cfg.window_frames
    run_engine(engine, frames[n:])
    assert {kind for kind, _ in compiled_when_called} == {"predict", "bound"}
    assert all(done for _, done in compiled_when_called)


def assert_saved_as_serialized(model):
    """``save_model``, writing a tree at a time, writes ``serialize(model)`` byte for byte."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "model.json")
        save_model(model, path)
        with open(path, "rb") as fh:
            assert fh.read() == serialize(model).encode("utf-8")


@settings(max_examples=100, deadline=None)
@given(st.lists(valid_trees(), min_size=1, max_size=6))
def test_fuzzed_documents_save_as_serialized(trees):
    assert_saved_as_serialized(deserialize(document(trees)))


@pytest.mark.parametrize("name", sorted(WALKED))
def test_unusual_trees_save_as_serialized(name):
    assert_saved_as_serialized(deserialize(document([WALKED[name]])))


def test_trained_and_loaded_models_save_as_serialized(trained_500):
    small = train(separable_dataset(), ForestConfig(n_trees=3, seed=4))
    for model in (trained_500, small):
        assert_saved_as_serialized(model)
        assert_saved_as_serialized(deserialize(serialize(model)))
