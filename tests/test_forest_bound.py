"""``bound_probability`` bounds the forest's probability when some columns are unknown.

The bound form merges each split on an unknown column into the larger
leaves of its two subtrees. ``forest_reference.flat_bound_probability``
walks the flat arrays instead, collecting every node the row reaches when
such a split sends it both ways; the two must agree bit for bit on trained
models (fuzzed and column-permuted ones are checked in
``test_forest_walk``, ``test_model_fuzz`` and ``test_column_order``). The
bound is at least the probability of every completion of the unknown
columns, and with no unknown column it is the probability itself.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forest_reference import flat_bound_probability
from snatchdet.config import PipelineConfig
from snatchdet.experiment import window_dataset
from snatchdet.features import full_schema
from snatchdet.forest import ForestConfig, bound_probability, predict_probability, train
from snatchdet.synth import generate_corpus

FULL = full_schema()


@pytest.fixture(scope="module")
def dataset():
    clips = generate_corpus(n_per_class=3, seed=36, duration=4.0, noise_sigma=1.5)
    return window_dataset(clips, PipelineConfig(), FULL)


@pytest.fixture(scope="module")
def model(dataset):
    return train(dataset, ForestConfig(n_trees=60, seed=36))


def test_directional_bound_matches_the_flat_bound(model, dataset):
    unknown = FULL.directional
    assert 0 < len(unknown) < len(FULL)
    for row in dataset.X.tolist():
        got = bound_probability(model, row, unknown)
        assert repr(got) == repr(flat_bound_probability(model, row, unknown))
        assert got >= predict_probability(model, row)
    # every trained tree merges into source: none is walked
    form = model.bounds[unknown]
    assert (form.n_compiled, form.n_walked) == (60, 0)


def test_random_column_sets_bound_as_the_flat_bound(model, dataset):
    rng = np.random.default_rng(36)
    rows = dataset.X.tolist()
    for share in (0.05, 0.3, 0.7, 1.0):
        unknown = frozenset(np.flatnonzero(rng.random(len(FULL)) < share).tolist())
        for row in rows[::4]:
            got = bound_probability(model, row, unknown)
            assert repr(got) == repr(flat_bound_probability(model, row, unknown))


def test_no_unknown_column_bounds_as_the_probability(model, dataset):
    for row in dataset.X.tolist():
        assert repr(bound_probability(model, row, frozenset())) == repr(predict_probability(model, row))
    # the exact form serves: no bound form is compiled for it
    assert frozenset() not in model.bounds


def test_every_unknown_column_bounds_as_the_largest_leaves(model):
    every = frozenset(range(len(FULL)))
    largest = 0.0
    for tree in model.trees:
        largest += max(w1 / (w0 + w1) for f, (w0, w1) in zip(tree.feature, tree.leaf_weights) if f < 0)
    assert bound_probability(model, [0.0] * len(FULL), every) == largest / len(model.trees)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_the_bound_is_at_least_every_completion(model, dataset, data):
    row = data.draw(st.sampled_from(dataset.X.tolist()))
    columns = data.draw(st.sets(st.integers(0, len(FULL) - 1), max_size=len(FULL)))
    unknown = frozenset(columns) | (FULL.directional if data.draw(st.booleans()) else frozenset())
    bound = bound_probability(model, row, unknown)
    values = st.floats(-1e6, 1e6) | st.sampled_from([0.0, -0.0, 10.0, 1e300, -1e300])
    for _ in range(5):
        completion = list(row)
        for c in unknown:
            completion[c] = data.draw(values)
        assert predict_probability(model, completion) <= bound
