"""Weighted-Gini forest: impurity, splits, training, serialization."""

import dataclasses
import json
import math

import numpy as np
import pytest

from forest_reference import serialize
from snatchdet.forest import (
    CorruptModel,
    Dataset,
    ForestConfig,
    MissingClass,
    SchemaMismatch,
    Tree,
    VersionMismatch,
    _best_split,
    _presort,
    _tree_rng,
    balanced_weights,
    bound_probability,
    deserialize,
    load_model,
    predict,
    predict_probability,
    save_model,
    train,
    training_accuracy,
)


def separable_dataset(n=40, seed=5, margin=2.0):
    rng = np.random.default_rng(seed)
    X0 = rng.normal(loc=(-margin, 0.0), scale=0.5, size=(n // 2, 2))
    X1 = rng.normal(loc=(margin, 0.0), scale=0.5, size=(n - n // 2, 2))
    X = np.vstack([X0, X1])
    y = np.array([0] * (n // 2) + [1] * (n - n // 2))
    ids = tuple(f"s{i:03d}" for i in range(n))
    return Dataset(feature_names=("f0", "f1"), X=X, y=y, ids=ids)


class TestBalancedWeights:
    def test_imbalanced_class_counts(self):
        labels = [1] * 29 + [0] * 61
        w0, w1 = balanced_weights(labels)
        assert w1 == pytest.approx(90 / (2 * 29), abs=1e-12)
        assert w0 == pytest.approx(90 / (2 * 61), abs=1e-12)
        assert (round(w1, 4), round(w0, 4)) == (1.5517, 0.7377)

    def test_equal_counts(self):
        assert balanced_weights([0] * 10 + [1] * 10) == (1.0, 1.0)

    def test_missing_class(self):
        with pytest.raises(MissingClass):
            balanced_weights([1] * 20)


def exhaustive_best_split(X, y, w0, w1, min_leaf=1):
    """Naive scan of every (feature, midpoint) pair with integer recounts."""
    n, d = X.shape
    n1_tot = int(np.sum(y == 1))
    n0_tot = n - n1_tot
    w_tot0 = n0_tot * w0
    w_tot1 = n1_tot * w1
    w_tot = w_tot0 + w_tot1
    parent = w_tot - (w_tot0 * w_tot0 + w_tot1 * w_tot1) / w_tot
    best = None  # (gain, feature, threshold)
    for f in range(d):
        values = sorted(set(X[:, f]))
        for lo, hi in zip(values[:-1], values[1:]):
            threshold = (lo + hi) / 2.0
            left = X[:, f] <= threshold
            nl = int(np.sum(left))
            if nl < min_leaf or n - nl < min_leaf:
                continue
            nl1 = int(np.sum(y[left] == 1))
            nl0 = nl - nl1
            l0, l1 = nl0 * w0, nl1 * w1
            wl = l0 + l1
            r0, r1 = w_tot0 - l0, w_tot1 - l1
            wr = r0 + r1
            children = (wl - (l0 * l0 + l1 * l1) / wl) + (wr - (r0 * r0 + r1 * r1) / wr)
            gain = parent - children
            if gain > 0 and (best is None or gain > best[0]):
                best = (gain, f, threshold)
    return best


def root_split(X, y, feats, w0, w1):
    """``_best_split`` at a node that holds every row of ``X`` once."""
    return _best_split(*_presort(X), y, np.ones(X.shape[0], dtype=np.int64), feats, w0, w1)


class TestBestSplit:
    def test_matches_exhaustive_oracle(self):
        rng = np.random.default_rng(303)
        for trial in range(200):
            n = int(rng.integers(2, 13))
            d = int(rng.integers(1, 4))
            X = rng.normal(size=(n, d))
            y = rng.integers(0, 2, size=n)
            if y.min() == y.max():
                y[0] = 1 - y[0]
            w0, w1 = balanced_weights(y)
            got = root_split(X, y, np.arange(d), w0, w1)
            want = exhaustive_best_split(X, y, w0, w1)
            if want is None:
                assert got is None
            else:
                assert got is not None, trial
                assert (got[0], got[1]) == (want[1], want[2]), trial
                assert got[2] == pytest.approx(want[0], rel=1e-12)

    def test_duplicated_rows_mixed_labels_unsplittable(self):
        X = np.ones((6, 2))
        y = np.array([0, 1, 0, 1, 1, 0])
        assert root_split(X, y, np.arange(2), 1.0, 1.0) is None


class TestTraining:
    def test_separable_reaches_perfect_training_accuracy(self):
        data = separable_dataset()
        model = train(data, ForestConfig(n_trees=50, seed=42))
        assert training_accuracy(model, data) == 1.0

    def test_training_accuracy_compiles_nothing_and_agrees_with_predict(self):
        rng = np.random.default_rng(12)
        X = rng.normal(size=(80, 3))
        y = rng.integers(0, 2, size=80)
        data = Dataset(("f0", "f1", "f2"), X, y)
        # an even tree count, so some rows sit at exactly 0.5
        model = train(data, ForestConfig(n_trees=16, seed=4))
        got = training_accuracy(model, data)
        assert model.compiled is None
        probabilities = [predict_probability(model, row) for row in X]
        assert 0.5 in probabilities
        assert got == sum((p >= 0.5) == label for p, label in zip(probabilities, y)) / len(y)

    def test_bit_reproducible(self):
        data = separable_dataset()
        cfg = ForestConfig(n_trees=25, seed=42)
        assert serialize(train(data, cfg)) == serialize(train(data, cfg))

    def test_row_permutation_with_ids_is_canonicalized(self):
        data = separable_dataset()
        rng = np.random.default_rng(8)
        perm = rng.permutation(len(data))
        shuffled = Dataset(
            feature_names=data.feature_names,
            X=data.X[perm],
            y=data.y[perm],
            ids=tuple(data.ids[i] for i in perm),
        )
        cfg = ForestConfig(n_trees=12, seed=42)
        assert serialize(train(data, cfg)) == serialize(train(shuffled, cfg))

    def test_signal_feature_dominates_importances(self):
        rng = np.random.default_rng(77)
        n = 200
        y = rng.integers(0, 2, size=n)
        X = rng.normal(size=(n, 3))
        X[:, 1] = y * 4.0 + rng.normal(scale=0.3, size=n)
        data = Dataset(feature_names=("a", "signal", "c"), X=X, y=y)
        model = train(data, ForestConfig(n_trees=40, seed=42))
        assert sum(model.importances) == pytest.approx(1.0, abs=1e-9)
        assert model.importances[1] > model.importances[0]
        assert model.importances[1] > model.importances[2]

    def test_importances_sum_to_one(self):
        model = train(separable_dataset(), ForestConfig(n_trees=10, seed=1))
        assert sum(model.importances) == pytest.approx(1.0, abs=1e-9)
        assert all(v >= 0 for v in model.importances)

    def test_missing_class_raises(self):
        data = separable_dataset()
        bad = Dataset(data.feature_names, data.X, np.zeros(len(data), dtype=int), data.ids)
        with pytest.raises(MissingClass):
            train(bad, ForestConfig(n_trees=2))

    def test_identical_rows_mixed_labels_yield_stumps(self):
        X = np.ones((8, 2))
        y = np.array([0, 1] * 4)
        model = train(
            Dataset(("a", "b"), X, y), ForestConfig(n_trees=5, seed=3)
        )
        assert all(t.feature[0] == -1 for t in model.trees)
        assert all(v == 0.0 for v in model.importances)

    def test_single_tree_fits_its_bootstrap_sample(self):
        rng = np.random.default_rng(11)
        X = rng.normal(size=(30, 3))  # continuous -> no duplicate rows
        y = rng.integers(0, 2, size=30)
        if y.min() == y.max():
            y[0] = 1 - y[0]
        data = Dataset(("a", "b", "c"), X, y)
        cfg = ForestConfig(n_trees=1, seed=9)
        model = train(data, cfg)
        boot = _tree_rng(cfg.seed, 0).integers(0, len(data), size=len(data))
        for i in set(boot.tolist()):
            assert predict(model, X[i])[0] == int(y[i])


class TestPredict:
    def test_pure_leaf_single_tree(self):
        X = np.array([[0.0], [1.0]])
        y = np.array([0, 1])
        model = train(Dataset(("f",), X, y), ForestConfig(n_trees=1, seed=2))
        label, prob = predict(model, np.array([1.0]))
        assert (label, prob) == (1, 1.0)

    def test_probability_tie_resolves_positive(self):
        data = separable_dataset()
        model = train(data, ForestConfig(n_trees=4, seed=42))
        tie_model = deserialize(serialize(model))

        def stub(w0, w1):
            return Tree(feature=[-1], threshold=[0.0], left=[-1], right=[-1], leaf_weights=[(w0, w1)])

        # force a tie by symmetric leaf weights on a stub pair of trees
        tie_model.trees[:] = [stub(1.0, 0.0), stub(1.0, 0.0), stub(0.0, 1.0), stub(0.0, 1.0)]
        label, prob = predict(tie_model, data.X[0])
        assert prob == 0.5
        assert label == 1

    def test_held_out_separable_point(self):
        model = train(separable_dataset(), ForestConfig(n_trees=30, seed=42))
        assert predict(model, np.array([3.0, 0.0]))[0] == 1
        assert predict(model, np.array([-3.0, 0.0]))[0] == 0

    def test_schema_mismatch(self):
        model = train(separable_dataset(), ForestConfig(n_trees=2, seed=1))
        with pytest.raises(SchemaMismatch):
            predict(model, np.array([1.0, 2.0, 3.0]))
        # a row is read by position only: a mapping, even one naming every column, is refused
        for bad in ({"f0": 1.0}, {"f0": 1.0, "f1": 2.0}, {0: 1.0, 1: 2.0}, [1.0, None], ["a", 2.0],
                    np.ones((1, 2)), 1.0, (1.0,)):
            with pytest.raises(SchemaMismatch):
                predict(model, bad)
        # a non-finite cell would fail or pass every split: NaN goes right at each one
        for bad in ([math.nan, 0.0], [math.inf, -math.inf], [0.0, -math.inf], ["nan", 1.0],
                    np.array([1.0, np.inf])):
            with pytest.raises(SchemaMismatch):
                predict(model, bad)
            with pytest.raises(SchemaMismatch):
                bound_probability(model, bad, frozenset({0}))
        # finite cells whose sum overflows are a row like any other
        assert 0.0 <= predict_probability(model, [1.5e308, 1.5e308]) <= 1.0
        assert predict(model, (1.0, 2.0)) == predict(model, [1.0, 2.0])

    def test_probability_stays_in_unit_interval(self):
        rng = np.random.default_rng(31)
        X = rng.normal(size=(60, 4))
        y = rng.integers(0, 2, size=60)
        y[:2] = [0, 1]
        model = train(Dataset(tuple("abcd"), X, y), ForestConfig(n_trees=15, seed=2))
        for _ in range(50):
            p = predict_probability(model, rng.normal(size=4) * 5)
            assert 0.0 <= p <= 1.0


class TestSerialization:
    def test_round_trip_predictions_identical(self):
        data = separable_dataset()
        model = train(data, ForestConfig(n_trees=20, seed=42))
        clone = deserialize(serialize(model))
        rng = np.random.default_rng(4)
        for _ in range(100):
            x = rng.normal(size=2) * 3
            assert predict_probability(model, x) == predict_probability(clone, x)

    def test_importances_are_python_floats(self):
        model = train(separable_dataset(), ForestConfig(n_trees=5, seed=42))
        for loaded in (model, deserialize(serialize(model))):
            assert type(loaded.importances) is tuple
            assert {type(v) for v in loaded.importances} == {float}

    def test_two_loads_of_one_file_compare_equal(self, tmp_path):
        path = str(tmp_path / "model.json")
        save_model(train(separable_dataset(), ForestConfig(n_trees=5, seed=42)), path)
        first, second = load_model(path), load_model(path)
        assert first == second
        changed = (first.importances[0] + 0.25, *first.importances[1:])
        assert dataclasses.replace(second, importances=changed) != first

    def test_round_trip_is_byte_stable(self):
        model = train(separable_dataset(), ForestConfig(n_trees=5, seed=42))
        doc = serialize(model)
        assert serialize(deserialize(doc)) == doc

    def test_truncated_document(self):
        doc = serialize(train(separable_dataset(), ForestConfig(n_trees=2, seed=1)))
        with pytest.raises(CorruptModel):
            deserialize(doc[: len(doc) // 2])

    def test_future_version(self):
        doc = serialize(train(separable_dataset(), ForestConfig(n_trees=2, seed=1)))
        bumped = doc.replace('"version":1', '"version":99')
        with pytest.raises(VersionMismatch):
            deserialize(bumped)

    def test_not_a_model(self):
        with pytest.raises(CorruptModel):
            deserialize('{"format":"something-else","version":1}')

    @pytest.mark.parametrize("version", [True, 1.0])
    def test_version_of_another_json_type(self, version):
        # equal to 1, but written back as 1
        doc = json.loads(serialize(train(separable_dataset(), ForestConfig(n_trees=2, seed=1))))
        doc["version"] = version
        with pytest.raises(VersionMismatch):
            deserialize(json.dumps(doc))

    @pytest.mark.parametrize("where", ["document", "config", "tree"])
    def test_unknown_key_rejected(self, where):
        doc = json.loads(serialize(train(separable_dataset(), ForestConfig(n_trees=2, seed=1))))
        {"document": doc, "config": doc["config"], "tree": doc["trees"][1]}[where]["comment"] = 0
        with pytest.raises(CorruptModel, match="'comment'"):
            deserialize(json.dumps(doc))

    @pytest.mark.parametrize("n_trees", [1, 9, 2.0])
    def test_n_trees_differs_from_tree_count(self, n_trees):
        doc = json.loads(serialize(train(separable_dataset(), ForestConfig(n_trees=2, seed=1))))
        doc["config"]["n_trees"] = n_trees
        with pytest.raises(CorruptModel, match="n_trees"):
            deserialize(json.dumps(doc))

    @pytest.mark.parametrize(
        "key, value",
        [("max_depth", 3), ("min_samples_leaf", 2), ("min_samples_leaf", 1.0), ("min_samples_leaf", True),
         ("features_per_split", "all"), ("class_weight_mode", "uniform")],
    )
    def test_other_recipe_rejected(self, key, value):
        doc = json.loads(serialize(train(separable_dataset(), ForestConfig(n_trees=2, seed=1))))
        doc["config"][key] = value
        with pytest.raises(CorruptModel, match=key):
            deserialize(json.dumps(doc))

    def test_schema_repeating_a_name_rejected(self):
        # a model that names a feature twice cannot be ranked or served by name
        doc = json.loads(serialize(train(separable_dataset(), ForestConfig(n_trees=2, seed=1))))
        doc["schema"][1] = doc["schema"][0]
        doc["importances"] = ["0.5", "0.5"]
        with pytest.raises(CorruptModel, match=f"{doc['schema'][0]!r} more than once"):
            deserialize(json.dumps(doc))

    @pytest.mark.parametrize("schema", ["f0f1", ["f0", 1], ["f0", ["f1"]]])
    def test_schema_not_a_list_of_strings_rejected(self, schema):
        doc = json.loads(serialize(train(separable_dataset(), ForestConfig(n_trees=2, seed=1))))
        doc["schema"] = schema
        with pytest.raises(CorruptModel, match="schema"):
            deserialize(json.dumps(doc))


def corrupted(edit):
    """A serialized two-tree model after ``edit(doc)`` changed its first tree."""
    doc = json.loads(serialize(train(separable_dataset(), ForestConfig(n_trees=2, seed=1))))
    tree = doc["trees"][0]
    assert tree["feature"][0] >= 0  # the root splits
    edit(doc, tree)
    return json.dumps(doc)


class TestCorruptTree:
    """Every tree must reach a usable leaf; predict never sees a broken one."""

    def test_feature_index_beyond_schema(self):
        def edit(doc, tree):
            tree["feature"][0] = len(doc["schema"])

        with pytest.raises(CorruptModel, match="feature"):
            deserialize(corrupted(edit))

    def test_child_index_out_of_range(self):
        def edit(doc, tree):
            tree["right"][0] = len(tree["feature"])

        with pytest.raises(CorruptModel, match="children"):
            deserialize(corrupted(edit))

    def test_root_pointing_at_itself(self):
        def edit(doc, tree):
            tree["left"][0] = tree["right"][0] = 0

        with pytest.raises(CorruptModel, match="children"):
            deserialize(corrupted(edit))

    def test_feature_array_shorter_than_its_siblings(self):
        def edit(doc, tree):
            tree["feature"].pop()

        with pytest.raises(CorruptModel, match="length"):
            deserialize(corrupted(edit))

    def test_leaf_without_weight(self):
        def edit(doc, tree):
            leaf = tree["feature"].index(-1)
            tree["leaf"][leaf] = ["0.0", "0.0"]

        with pytest.raises(CorruptModel, match="leaf"):
            deserialize(corrupted(edit))

    def test_unchanged_model_loads(self):
        deserialize(corrupted(lambda doc, tree: None))


# Edits that a looser load would accept and then write back as other bytes,
# with the key its error names.
NOT_WRITTEN_BACK = {
    "threshold_1": "threshold",
    "threshold_number": "threshold",
    "importance_number": "importances",
    "third_class_weight": "class_weights",
    "class_weight_integer": "class_weights",
    "leaf_weight_number": "leaf",
    "leaf_weight_trailing_zero": "leaf",
    "feature_bool": "feature",
    "feature_float": "feature",
    "left_bool": "left",
    "left_float": "left",
    "right_bool": "right",
    "right_float": "right",
}


def edit_not_written_back(doc, case):
    """Apply ``case`` of ``NOT_WRITTEN_BACK`` to a serialized model ``doc`` in place."""
    tree = doc["trees"][0]
    assert tree["feature"][0] >= 0 and tree["left"][0] == 1  # the root splits
    leaf = tree["feature"].index(-1)
    if case == "threshold_1":
        tree["threshold"][0] = "1"
    elif case == "threshold_number":
        tree["threshold"][0] = float(tree["threshold"][0])
    elif case == "importance_number":
        doc["importances"][0] = float(doc["importances"][0])
    elif case == "third_class_weight":
        doc["class_weights"].append(1.0)
    elif case == "class_weight_integer":
        doc["class_weights"][0] = 1
    elif case == "leaf_weight_number":
        tree["leaf"][leaf] = [float(w) for w in tree["leaf"][leaf]]
    elif case == "leaf_weight_trailing_zero":
        tree["leaf"][leaf][0] += "0"
    else:
        key, kind = case.split("_")
        tree[key][0] = True if kind == "bool" else float(tree[key][0])
    return doc


class TestWrittenBackAsRead:
    """A document loads only if serialize would write it back byte for byte."""

    @pytest.mark.parametrize("case", sorted(NOT_WRITTEN_BACK))
    def test_value_written_back_otherwise_is_rejected(self, case):
        doc = json.loads(serialize(train(separable_dataset(), ForestConfig(n_trees=2, seed=1))))
        # a root split on feature 1, so that True stands for a valid index
        doc["trees"][0]["feature"][0] = 1
        text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
        assert serialize(deserialize(text)) == text
        with pytest.raises(CorruptModel, match=NOT_WRITTEN_BACK[case]):
            deserialize(json.dumps(edit_not_written_back(doc, case)))
