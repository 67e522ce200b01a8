"""A feature row is the forest's input in the model's own column order.

``extract_segment`` returns one value per schema name in ``schema.names``
order, and ``StreamEngine`` builds its schema from ``model.feature_names``.
So a model whose columns are permuted (names and every tree's split
indices together) must give the engine's windows the same probabilities,
and each row the same bound with its directional columns unknown, bit for
bit, and a model trained on columns in rank order, as ``rank`` lists
them and perfbench trains its top-10 model, must be fed each window's full
row picked by name.
"""

import numpy as np
import pytest

from conftest import by_name, classified_windows, run_engine
from forest_reference import flat_bound_probability
from snatchdet import pipeline
from snatchdet.config import PipelineConfig
from snatchdet.experiment import window_dataset
from snatchdet.features import FeatureSchema, extract_segment, full_schema
from snatchdet.forest import (
    ForestConfig,
    ForestModel,
    Tree,
    bound_probability,
    predict_probability,
    train,
)
from snatchdet.selection import select_top_k
from snatchdet.synth import generate_corpus
from test_output_digest import load_script

FULL = full_schema()


@pytest.fixture(scope="module")
def dataset():
    clips = generate_corpus(n_per_class=4, seed=35, duration=4.0, noise_sigma=1.5)
    return window_dataset(clips, PipelineConfig(), FULL)


@pytest.fixture(scope="module")
def full_model(dataset):
    return train(dataset, ForestConfig(n_trees=20, seed=3))


@pytest.fixture(scope="module")
def crowd():
    """The output digest's crowd stream: four encounters, six bystanders with id churn."""
    return load_script().encounter_stream(seed=1, rounds=1, bystanders=6)


def permuted(model, seed):
    """``model`` with its columns shuffled: column j of the result is column perm[j]."""
    perm = np.random.default_rng(seed).permutation(len(model.feature_names)).tolist()
    new_index = {old: new for new, old in enumerate(perm)}
    trees = [
        Tree([new_index[f] if f >= 0 else f for f in t.feature], list(t.threshold), list(t.left),
             list(t.right), list(t.leaf_weights))
        for t in model.trees
    ]
    return ForestModel(
        trees,
        tuple(model.feature_names[i] for i in perm),
        model.config,
        model.class_weights,
        tuple(model.importances[i] for i in perm),
    )


def window_probabilities(model, frames):
    """p(A,B) and p(B,A) of every window the engine classifies over ``frames``, in order."""
    _, windows = classified_windows(pipeline.StreamEngine(model, PipelineConfig()), frames)
    return [p for *_, probs in windows for p in probs]


def test_permuted_columns_give_the_same_window_probabilities(full_model, dataset, crowd):
    shuffled = permuted(full_model, seed=7)
    assert shuffled.feature_names != full_model.feature_names
    # the permutation matters: a full-schema row fed to the shuffled model reads other columns
    rows = dataset.X[:40].tolist()
    assert any(predict_probability(shuffled, r) != predict_probability(full_model, r) for r in rows)

    want = window_probabilities(full_model, crowd)
    got = window_probabilities(shuffled, crowd)
    assert len(set(want)) > 2  # the windows are told apart
    assert repr(got) == repr(want)  # repr tells -0.0 from 0.0


def test_permuted_columns_give_the_same_bounds(full_model, dataset):
    shuffled = permuted(full_model, seed=7)
    perm = [full_model.feature_names.index(name) for name in shuffled.feature_names]
    unknown = FULL.directional
    moved = FeatureSchema(shuffled.feature_names).directional
    assert moved == {j for j, i in enumerate(perm) if i in unknown} != unknown
    for row in dataset.X[:60].tolist():
        want = bound_probability(full_model, row, unknown)
        shuffled_row = [row[i] for i in perm]
        assert repr(bound_probability(shuffled, shuffled_row, moved)) == repr(want)
        assert repr(flat_bound_probability(shuffled, shuffled_row, moved)) == repr(want)


def test_rank_ordered_rows_equal_the_full_row_picked_by_name(full_model, dataset, crowd, monkeypatch):
    # the top-10 columns in the order ``rank`` writes them, trained as perfbench trains them
    ranked = [name for name, _ in select_top_k(FULL, full_model.importances, k=10).ranked]
    assert ranked != list(FULL.select(ranked).names)
    model = train(dataset.select_features(ranked), ForestConfig(n_trees=20, seed=3))
    engine = pipeline.StreamEngine(model, PipelineConfig())
    assert engine.schema == FeatureSchema(tuple(ranked))

    checked = []
    extract = pipeline.extract_segment

    def checking_extract(segment, schema, families, plan=None):
        row = extract(segment, schema, families, plan)
        # the full row of the same segment, computed before its tracks move on,
        # in the columns the plan fills
        want = by_name(FULL, extract(segment, FULL))
        filled = sorted(c for entry in (schema.plan if plan is None else plan) for c in entry[4])
        checked.append(repr([row[c] for c in filled]) == repr([want[ranked[c]] for c in filled]))
        return row

    with monkeypatch.context() as m:
        m.setattr(pipeline, "extract_segment", checking_extract)
        run_engine(engine, crowd)
    assert checked and all(checked)
