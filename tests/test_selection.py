"""Top-k importance selection and PCA projection."""

import numpy as np
import pytest

from snatchdet.features import FeatureSchema, full_schema
from snatchdet.selection import (
    CountBelowOne,
    KTooLarge,
    TooFewSamples,
    TooManyComponents,
    pca_project,
    select_top_k,
)

# Importance table from the trained-model ranking the selection mirrors,
# in units of 10^-2.
TABLE = [
    ("distance_p95", 5.236),
    ("handToHip_max", 4.802),
    ("handToTorso_mean", 4.781),
    ("handToTorso_p95", 4.297),
    ("handToTorso_max", 4.239),
    ("distance_max", 4.188),
    ("handToTorso_median", 3.340),
    ("handToHip_p95", 2.763),
    ("distance_mean", 2.459),
    ("closeHandPct", 2.352),
]


class TestSelectTopK:
    def test_reference_ranking_order(self):
        schema = full_schema()
        importances = np.zeros(len(schema.names))
        for name, imp in TABLE:
            importances[schema.names.index(name)] = imp / 100.0
        leftover = (1.0 - importances.sum()) / (len(schema.names) - len(TABLE))
        importances[importances == 0.0] = leftover  # below the table entries
        result = select_top_k(schema, importances, k=10)
        assert [n for n, _ in result.ranked] == [name for name, _ in TABLE]

    def test_ties_break_by_schema_order(self):
        schema = FeatureSchema(("a", "b", "c", "d"))
        result = select_top_k(schema, [0.25, 0.25, 0.25, 0.25], k=3)
        assert [n for n, _ in result.ranked] == ["a", "b", "c"]

    def test_k_equals_feature_count_is_identity(self):
        schema = FeatureSchema(("a", "b", "c"))
        result = select_top_k(schema, [0.2, 0.5, 0.3], k=3)
        assert result.schema.names == schema.names  # original order preserved
        assert [n for n, _ in result.ranked] == ["b", "c", "a"]  # ranking is by importance

    def test_reduced_schema_preserves_relative_order(self):
        schema = FeatureSchema(("a", "b", "c", "d"))
        result = select_top_k(schema, [0.1, 0.4, 0.2, 0.3], k=2)
        assert [n for n, _ in result.ranked] == ["b", "d"]
        assert result.schema.names == ("b", "d")

    def test_k_too_large(self):
        schema = FeatureSchema(("a", "b"))
        with pytest.raises(KTooLarge):
            select_top_k(schema, [0.5, 0.5], k=3)

    @pytest.mark.parametrize("k", [0, -1])
    def test_k_below_one(self, k):
        schema = FeatureSchema(("a", "b"))
        with pytest.raises(CountBelowOne):
            select_top_k(schema, [0.5, 0.5], k=k)

    def test_idempotent_on_selected_schema(self):
        schema = FeatureSchema(("a", "b", "c", "d"))
        first = select_top_k(schema, [0.1, 0.4, 0.2, 0.3], k=2)
        again = select_top_k(first.schema, [0.4, 0.3], k=2)
        assert again.schema.names == first.schema.names


class TestPca:
    def test_rank_one_line(self):
        rng = np.random.default_rng(3)
        t = rng.normal(size=30)
        X = np.column_stack([t, 2 * t])
        result = pca_project(X, n_components=1, standardize=False)
        direction = result.components[0]
        expected = np.array([1.0, 2.0]) / np.sqrt(5.0)
        assert np.allclose(direction, expected, atol=1e-9)
        assert result.explained_variance_ratio[0] == pytest.approx(1.0, abs=1e-12)

    def test_isotropic_cross(self):
        X = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        result = pca_project(X, n_components=2, standardize=False)
        assert np.allclose(result.explained_variance_ratio, [0.5, 0.5], atol=1e-12)
        # any orthonormal pair is valid
        gram = result.components @ result.components.T
        assert np.allclose(gram, np.eye(2), atol=1e-9)

    def test_projection_variance_equals_eigenvalue(self, rng):
        X = rng.normal(size=(20, 5)) * np.array([3.0, 1.0, 0.5, 2.0, 0.1])
        result = pca_project(X, n_components=5, standardize=False)
        variances = result.projected.var(axis=0, ddof=1)
        assert np.allclose(variances, result.explained_variance, atol=1e-6)
        assert np.all(np.diff(result.explained_variance) <= 1e-12)

    def test_components_orthonormal(self, rng):
        X = rng.normal(size=(25, 6))
        result = pca_project(X, n_components=4)
        gram = result.components @ result.components.T
        assert np.allclose(gram, np.eye(4), atol=1e-9)

    def test_full_reconstruction(self, rng):
        X = rng.normal(size=(50, 12))
        result = pca_project(X, n_components=12, standardize=True)
        centered = (X - result.mean) / result.scale
        rebuilt = result.projected @ result.components
        assert np.abs(rebuilt - centered).max() < 1e-6

    def test_zero_variance_column_stays_zero(self, rng):
        X = rng.normal(size=(15, 3))
        X[:, 1] = 7.0
        result = pca_project(X, n_components=2, standardize=True)
        rebuilt = result.projected @ result.components
        assert np.allclose(rebuilt[:, 1], 0.0, atol=1e-12)

    def test_sign_convention(self, rng):
        X = rng.normal(size=(30, 4))
        result = pca_project(X, n_components=3)
        for row in result.components:
            assert row[int(np.argmax(np.abs(row)))] > 0

    def test_too_few_samples(self):
        with pytest.raises(TooFewSamples):
            pca_project(np.zeros((1, 3)), n_components=1)

    def test_too_many_components(self):
        with pytest.raises(TooManyComponents):
            pca_project(np.zeros((4, 2)), n_components=3)
        with pytest.raises(TooManyComponents):
            pca_project(np.random.default_rng(0).normal(size=(3, 5)), n_components=3)

    @pytest.mark.parametrize("n_components", [0, -1])
    def test_components_below_one(self, n_components):
        with pytest.raises(CountBelowOne):
            pca_project(np.random.default_rng(0).normal(size=(4, 3)), n_components=n_components)
