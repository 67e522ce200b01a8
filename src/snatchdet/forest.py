"""From-scratch random forest with weighted-Gini trees.

Trees are grown greedily on bootstrap samples, evaluating a random feature
subset per node and splitting at midpoints between consecutive sorted
unique values. Class imbalance is handled by balanced class weights that
enter both the impurity counts and the leaf probability fractions.
Training is bit-reproducible: every tree draws from its own PCG64
substream seeded by (seed, tree_index), so results do not depend on
scheduling or row order (rows are canonicalized by sample id when ids are
present).

A tree is stored as flat node arrays, which training fills and the model
document holds. Prediction walks a nested form of each tree instead,
``(feature, threshold, left, right)`` tuples whose leaves are the leaf
probabilities, built once per tree after growing or loading. It is built
bottom-up in reverse node order, since a child always lies after its
parent: each node is built once even where a valid document shares a
child between parents (a top-down build would copy it once per path, an
exponential number of times in the worst case), and no recursion limits
how deep a tree may be. The walk compares and sums exactly as the flat
arrays did, so probabilities are bit for bit the same.
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence, Union

import numpy as np

MODEL_FORMAT = "snatchdet.forest"
MODEL_VERSION = 1


class MissingClass(ValueError):
    """Training data does not contain both classes."""


class SchemaMismatch(ValueError):
    """Input features do not match the model's schema."""


class VersionMismatch(ValueError):
    """Serialized model has an unsupported version."""


class CorruptModel(ValueError):
    """Serialized model cannot be parsed."""


# The one training recipe: balanced class weights, trees grown until every
# leaf is pure, ceil(sqrt(d)) candidate features per split. The model
# document records it under these keys and values.
RECIPE = {
    "class_weight_mode": "balanced",
    "max_depth": None,
    "min_samples_leaf": 1,
    "features_per_split": "sqrt",
}


@dataclass(frozen=True)
class ForestConfig:
    n_trees: int = 500
    seed: int = 42
    n_jobs: int = 1

    def __post_init__(self) -> None:
        if self.n_trees < 1:
            raise ValueError("n_trees must be >= 1")


@dataclass
class Dataset:
    """Feature matrix with binary labels (robbery = 1)."""

    feature_names: tuple[str, ...]
    X: np.ndarray
    y: np.ndarray
    ids: Optional[tuple[str, ...]] = None

    def __post_init__(self) -> None:
        self.X = np.asarray(self.X, dtype=np.float64)
        self.y = np.asarray(self.y, dtype=np.int64)
        if self.X.ndim != 2:
            raise ValueError("X must be a 2-d matrix")
        if not self.feature_names:
            raise ValueError("dataset has no feature columns")
        if self.X.shape[0] != self.y.shape[0]:
            raise ValueError("row count must equal label count")
        if self.X.shape[1] != len(self.feature_names):
            raise ValueError("column count must match feature_names")
        if self.ids is not None and len(self.ids) != self.X.shape[0]:
            raise ValueError("ids must match row count")
        if not np.all(np.isfinite(self.X)):
            raise ValueError("feature matrix contains non-finite cells")
        if not np.all((self.y == 0) | (self.y == 1)):
            raise ValueError("labels must be 0 or 1")

    def __len__(self) -> int:
        return int(self.X.shape[0])

    def canonicalized(self) -> "Dataset":
        """Rows sorted by sample id; no-op when ids are absent."""
        if self.ids is None:
            return self
        order = sorted(range(len(self.ids)), key=lambda i: self.ids[i])
        return Dataset(
            feature_names=self.feature_names,
            X=self.X[order],
            y=self.y[order],
            ids=tuple(self.ids[i] for i in order),
        )

    def select_features(self, names: Sequence[str]) -> "Dataset":
        cols = [self.feature_names.index(n) for n in names]
        return Dataset(
            feature_names=tuple(names),
            X=self.X[:, cols],
            y=self.y,
            ids=self.ids,
        )


# A tree's nested form: (feature, threshold, left, right) at a split, the
# leaf's robbery fraction at a leaf.
Node = Union[tuple, float]


@dataclass
class Tree:
    """Flat CART arrays: node i is internal iff feature[i] >= 0.

    The flat arrays are what training writes and the model document stores.
    ``nested`` is the form prediction walks: the root node as nested
    ``(feature, threshold, left, right)`` tuples whose leaves are the leaf's
    weighted robbery fraction w1 / (w0 + w1). ``set_probabilities`` builds it
    once the tree is complete (after growing and after loading).
    """

    feature: list[int] = field(default_factory=list)
    threshold: list[float] = field(default_factory=list)
    left: list[int] = field(default_factory=list)
    right: list[int] = field(default_factory=list)
    leaf_weights: list[tuple[float, float]] = field(default_factory=list)
    nested: Node = field(default=0.0, compare=False, repr=False)

    def add_node(self) -> int:
        self.feature.append(-1)
        self.threshold.append(0.0)
        self.left.append(-1)
        self.right.append(-1)
        self.leaf_weights.append((0.0, 0.0))
        return len(self.feature) - 1

    def set_probabilities(self) -> None:
        """Build ``nested`` bottom-up, in reverse node order.

        Children lie after their parent, so each child's node exists when
        its parent is built, and a child that several parents share (which
        a valid document may contain) is built once and reused: the build is
        linear in the node count, and no recursion limits its depth.
        """
        nodes: list[Node] = [0.0] * len(self.feature)
        for i in range(len(self.feature) - 1, -1, -1):
            feat = self.feature[i]
            if feat < 0:
                w0, w1 = self.leaf_weights[i]
                nodes[i] = w1 / (w0 + w1)
            else:
                nodes[i] = (feat, self.threshold[i], nodes[self.left[i]], nodes[self.right[i]])
        self.nested = nodes[0]


@dataclass
class ForestModel:
    trees: list[Tree]
    feature_names: tuple[str, ...]
    config: ForestConfig
    class_weights: tuple[float, float]
    importances: np.ndarray


def balanced_weights(labels: Sequence[int]) -> tuple[float, float]:
    """Per-class weight N / (K * N_c) for binary labels."""
    y = np.asarray(labels)
    n0 = int(np.sum(y == 0))
    n1 = int(np.sum(y == 1))
    if n0 == 0 or n1 == 0:
        raise MissingClass(f"need both classes, got counts (non-robbery={n0}, robbery={n1})")
    n = n0 + n1
    return (n / (2 * n0), n / (2 * n1))


def _tree_rng(seed: int, tree_index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=(seed, tree_index)))


def _best_split(
    X: np.ndarray,
    y: np.ndarray,
    idx: np.ndarray,
    feats: np.ndarray,
    w0: float,
    w1: float,
) -> Optional[tuple[int, float, float, np.ndarray, np.ndarray]]:
    """Best (feature, threshold) by weighted-Gini decrease over ``feats``.

    Returns (feature, threshold, weighted impurity decrease, left indices,
    right indices) or None when no split improves impurity. Ties go to the
    lower feature index and then the lower threshold. Class counts are kept
    as exact integer cumulative sums so the criterion is bit-identical to a
    naive per-split recount.
    """
    n = idx.shape[0]
    Xn = X[np.ix_(idx, feats)]
    yn = y[idx]

    order = np.argsort(Xn, axis=0, kind="stable")
    xs = np.take_along_axis(Xn, order, axis=0)
    ones = (yn == 1).astype(np.float64)
    cnt1 = np.cumsum(ones[order], axis=0)
    pos = np.arange(1, n + 1, dtype=np.float64)[:, None]
    cnt0 = pos - cnt1

    tot1 = float(cnt1[-1, 0])
    tot0 = float(n) - tot1
    w_tot0 = tot0 * w0
    w_tot1 = tot1 * w1
    w_tot = w_tot0 + w_tot1
    parent = w_tot - (w_tot0 * w_tot0 + w_tot1 * w_tot1) / w_tot

    # candidate split after sorted position i (0 .. n-2)
    l0 = cnt0[:-1] * w0
    l1 = cnt1[:-1] * w1
    wl = l0 + l1
    r0 = w_tot0 - l0
    r1 = w_tot1 - l1
    wr = r0 + r1
    children = (wl - (l0 * l0 + l1 * l1) / wl) + (wr - (r0 * r0 + r1 * r1) / wr)
    gain = parent - children
    gain = np.where(xs[1:] > xs[:-1], gain, -np.inf)

    flat = np.argmax(gain.T)  # feature-major: ties -> lower feature, lower threshold
    f_local, split_pos = divmod(int(flat), n - 1)
    best_gain = float(gain[split_pos, f_local])
    if not np.isfinite(best_gain) or best_gain <= 0.0:
        return None

    threshold = (float(xs[split_pos, f_local]) + float(xs[split_pos + 1, f_local])) / 2.0
    col_order = order[:, f_local]
    left_idx = idx[col_order[: split_pos + 1]]
    right_idx = idx[col_order[split_pos + 1 :]]
    return int(feats[f_local]), threshold, best_gain, left_idx, right_idx


def _grow_tree(
    X: np.ndarray,
    y: np.ndarray,
    cfg: ForestConfig,
    tree_index: int,
    weights: tuple[float, float],
) -> tuple[Tree, np.ndarray]:
    rng = _tree_rng(cfg.seed, tree_index)
    n, d = X.shape
    w0, w1 = weights
    m = math.ceil(math.sqrt(d))

    bootstrap = rng.integers(0, n, size=n)
    tree = Tree()
    decreases = np.zeros(d, dtype=np.float64)

    # (node slot, sample indices); preorder with the left child first so the
    # RNG consumption order is well defined.
    root = tree.add_node()
    stack: list[tuple[int, np.ndarray]] = [(root, bootstrap)]
    while stack:
        node, idx = stack.pop()
        yn = y[idx]
        n1 = int(np.sum(yn == 1))
        n0 = idx.shape[0] - n1

        split = None
        if n0 > 0 and n1 > 0:
            feats = np.sort(rng.choice(d, size=m, replace=False))
            split = _best_split(X, y, idx, feats, w0, w1)

        if split is None:
            tree.leaf_weights[node] = (n0 * w0, n1 * w1)
            continue

        feat, threshold, gain, left_idx, right_idx = split
        decreases[feat] += gain
        tree.feature[node] = feat
        tree.threshold[node] = threshold
        left = tree.add_node()
        right = tree.add_node()
        tree.left[node] = left
        tree.right[node] = right
        stack.append((right, right_idx))
        stack.append((left, left_idx))

    tree.set_probabilities()
    return tree, decreases


def train(dataset: Dataset, cfg: ForestConfig = ForestConfig()) -> ForestModel:
    """Train the ensemble; deterministic for a fixed (dataset, config)."""
    data = dataset.canonicalized()
    if len(data) == 0:
        raise MissingClass("empty dataset")
    weights = balanced_weights(data.y)

    def build(t: int) -> tuple[Tree, np.ndarray]:
        return _grow_tree(data.X, data.y, cfg, t, weights)

    if cfg.n_jobs > 1:
        with ThreadPoolExecutor(max_workers=cfg.n_jobs) as pool:
            results = list(pool.map(build, range(cfg.n_trees)))
    else:
        results = [build(t) for t in range(cfg.n_trees)]

    trees = [tree for tree, _ in results]
    d = data.X.shape[1]
    summed = np.zeros(d, dtype=np.float64)
    for _, decreases in results:
        total = decreases.sum()
        if total > 0:
            summed += decreases / total
    importances = summed / summed.sum() if summed.sum() > 0 else summed

    return ForestModel(
        trees=trees,
        feature_names=data.feature_names,
        config=cfg,
        class_weights=weights,
        importances=importances,
    )


def _vectorize(model: ForestModel, x: Union[Mapping[str, float], Sequence[float], np.ndarray]) -> np.ndarray:
    if isinstance(x, Mapping):
        try:
            return np.array([float(x[name]) for name in model.feature_names], dtype=np.float64)
        except KeyError as exc:
            raise SchemaMismatch(f"input is missing feature {exc.args[0]!r}") from exc
    arr = np.asarray(x, dtype=np.float64)
    if arr.shape != (len(model.feature_names),):
        raise SchemaMismatch(
            f"expected {len(model.feature_names)} features, got shape {arr.shape}"
        )
    return arr


def predict_probability(model: ForestModel, x) -> float:
    """Mean over trees of the leaf's weighted robbery fraction.

    Each tree's ``nested`` form is walked with ``x`` as a list (cheaper to
    index than an array). The leaves are added one by one in tree order,
    not with ``sum``, whose float summation is compensated from Python 3.12.
    """
    vec = _vectorize(model, x).tolist()
    total = 0.0
    for tree in model.trees:
        node = tree.nested
        while type(node) is tuple:
            feat, threshold, left, right = node
            node = left if vec[feat] <= threshold else right
        total += node
    return total / len(model.trees)


def predict(model: ForestModel, x) -> tuple[int, float]:
    """(label, probability); the 0.5 tie resolves to the positive class."""
    p = predict_probability(model, x)
    return (1 if p >= 0.5 else 0, p)


def training_accuracy(model: ForestModel, dataset: Dataset) -> float:
    hits = sum(
        1 for row, label in zip(dataset.X, dataset.y) if predict(model, row)[0] == int(label)
    )
    return hits / len(dataset)


# ---------------------------------------------------------------------------
# serialization


def serialize(model: ForestModel) -> str:
    """Stable JSON document; identical models produce identical bytes."""
    doc = {
        "format": MODEL_FORMAT,
        "version": MODEL_VERSION,
        "schema": list(model.feature_names),
        "config": {"n_trees": model.config.n_trees, "seed": model.config.seed, **RECIPE},
        "class_weights": list(model.class_weights),
        "importances": [repr(float(v)) for v in model.importances],
        "trees": [
            {
                "feature": tree.feature,
                "threshold": [repr(t) for t in tree.threshold],
                "left": tree.left,
                "right": tree.right,
                "leaf": [[repr(w0), repr(w1)] for w0, w1 in tree.leaf_weights],
            }
            for tree in model.trees
        ],
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def _check_tree(tree: Tree, n_features: int) -> None:
    """Raise CorruptModel unless every path from the root ends at a usable leaf.

    Children lie after their parent, so predict always terminates.
    """
    n = len(tree.feature)
    if n == 0:
        raise CorruptModel("tree with no nodes")
    if not len(tree.threshold) == len(tree.left) == len(tree.right) == len(tree.leaf_weights) == n:
        raise CorruptModel("tree node arrays differ in length")
    for i, (feat, left, right, (w0, w1)) in enumerate(
        zip(tree.feature, tree.left, tree.right, tree.leaf_weights)
    ):
        if feat >= 0:
            if feat >= n_features:
                raise CorruptModel(f"node {i} splits on feature {feat}; schema has {n_features}")
            if not (i < left < n and i < right < n):
                raise CorruptModel(f"node {i} has children ({left}, {right}) outside ({i}, {n})")
        elif not (math.isfinite(w0) and math.isfinite(w1) and w0 >= 0 and w1 >= 0 and w0 + w1 > 0):
            raise CorruptModel(f"leaf {i} has weights ({w0}, {w1})")


def deserialize(document: str) -> ForestModel:
    try:
        doc = json.loads(document)
    except (ValueError, RecursionError) as exc:
        # JSONDecodeError, an integer over the digit limit, deep nesting
        raise CorruptModel(f"model document is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("format") != MODEL_FORMAT:
        raise CorruptModel("not a forest model document")
    if doc.get("version") != MODEL_VERSION:
        raise VersionMismatch(f"unsupported model version {doc.get('version')!r}")
    try:
        cfg_doc = doc["config"]
        cfg = ForestConfig(n_trees=cfg_doc["n_trees"], seed=cfg_doc["seed"])
        for key, value in RECIPE.items():
            # any other value (1.0 or true for 1 included) would load and
            # then re-serialize to other bytes
            if type(cfg_doc[key]) is not type(value) or cfg_doc[key] != value:
                raise CorruptModel(f"config {key} differs from the recipe's {json.dumps(value)}")
        n_features = len(doc["schema"])
        trees = []
        for tdoc in doc["trees"]:
            tree = Tree(
                feature=[int(f) for f in tdoc["feature"]],
                threshold=[float(t) for t in tdoc["threshold"]],
                left=[int(v) for v in tdoc["left"]],
                right=[int(v) for v in tdoc["right"]],
                leaf_weights=[(float(w0), float(w1)) for w0, w1 in tdoc["leaf"]],
            )
            _check_tree(tree, n_features)
            tree.set_probabilities()
            trees.append(tree)
        if not trees:
            raise CorruptModel("model has no trees")
        model = ForestModel(
            trees=trees,
            feature_names=tuple(doc["schema"]),
            config=cfg,
            class_weights=(float(doc["class_weights"][0]), float(doc["class_weights"][1])),
            importances=np.array([float(v) for v in doc["importances"]], dtype=np.float64),
        )
    except (KeyError, IndexError, TypeError, ValueError, OverflowError) as exc:
        if isinstance(exc, (CorruptModel, VersionMismatch)):
            raise
        raise CorruptModel(f"malformed model document: {exc}") from exc
    if model.importances.shape[0] != len(model.feature_names):
        raise CorruptModel("importances length does not match schema")
    return model


def save_model(model: ForestModel, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize(model))


def load_model(path: str) -> ForestModel:
    with open(path, "r", encoding="utf-8") as fh:
        return deserialize(fh.read())
