"""Weighted-Gini forest: impurity, splits, training, serialization."""

import json

import numpy as np
import pytest

from snatchdet.forest import (
    CorruptModel,
    Dataset,
    ForestConfig,
    MissingClass,
    SchemaMismatch,
    Tree,
    VersionMismatch,
    _best_split,
    _tree_rng,
    balanced_weights,
    deserialize,
    predict,
    predict_probability,
    serialize,
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
            got = _best_split(X, y, np.arange(n), np.arange(d), w0, w1)
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
        assert _best_split(X, y, np.arange(6), np.arange(2), 1.0, 1.0) is None


class TestTraining:
    def test_separable_reaches_perfect_training_accuracy(self):
        data = separable_dataset()
        model = train(data, ForestConfig(n_trees=50, seed=42))
        assert training_accuracy(model, data) == 1.0

    def test_bit_reproducible(self):
        data = separable_dataset()
        cfg = ForestConfig(n_trees=25, seed=42)
        assert serialize(train(data, cfg)) == serialize(train(data, cfg))

    def test_reproducible_across_thread_counts(self):
        data = separable_dataset()
        one = serialize(train(data, ForestConfig(n_trees=16, seed=42, n_jobs=1)))
        four = serialize(train(data, ForestConfig(n_trees=16, seed=42, n_jobs=4)))
        assert one == four

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
        assert model.importances.sum() == pytest.approx(1.0, abs=1e-9)
        assert model.importances[1] > model.importances[0]
        assert model.importances[1] > model.importances[2]

    def test_importances_sum_to_one(self):
        model = train(separable_dataset(), ForestConfig(n_trees=10, seed=1))
        assert model.importances.sum() == pytest.approx(1.0, abs=1e-9)
        assert np.all(model.importances >= 0)

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
        assert np.all(model.importances == 0.0)

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
            tree = Tree(feature=[-1], threshold=[0.0], left=[-1], right=[-1], leaf_weights=[(w0, w1)])
            tree.set_probabilities()
            return tree

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
        with pytest.raises(SchemaMismatch):
            predict(model, {"f0": 1.0})

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
