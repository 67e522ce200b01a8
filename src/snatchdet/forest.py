"""From-scratch random forest with weighted-Gini trees.

Trees are grown greedily on bootstrap samples, evaluating a random feature
subset per node and splitting at midpoints between consecutive distinct
values. Class imbalance is handled by balanced class weights that enter
both the impurity counts and the leaf probability fractions. Training is
bit-reproducible: every tree draws from its own PCG64 substream seeded by
(seed, tree_index), so results do not depend on scheduling or row order
(rows are canonicalized by sample id when ids are present).

The split search sorts each column once per training run (the
pre-sorting of SLIQ, Mehta, Agrawal and Rissanen, 1996); every tree reads
that order. A node is held as a count per training row: how many times
the tree's bootstrap drew the row, or 0 where the row does not reach the
node. A split search keeps each candidate feature's presorted rows whose
count is above 0.
Candidate splits lie only between distinct values, where the cumulative
class counts are integers, exact in floating point, whatever the order of
rows within ties. So the gains, thresholds, tie-breaks and importances
are bit for bit those of sorting each node's rows again, as a naive
per-node search would.

A tree is its flat node arrays, one form that training fills, the model
document holds, and prediction compiles or walks. A leaf's probability is
its weighted robbery fraction ``w1 / (w0 + w1)``, computed where it is
read. Every walk over the arrays is iterative, so no recursion limits how
deep a tree may be.

Prediction runs a compiled form of the model (``CompiledForest``): each
tree becomes straight-line Python, ``if v[f] <= thr:`` blocks that end in
``t += leaf``. Consecutive trees share one generated function of about
``CHUNK_LINES`` lines (about ten trees of the deployed models), so that no
one function, and the peak memory of compiling it, grows with the forest.
``compile_chunk`` compiles one such function per call, so a caller can
spread the compile over idle moments (the stream engine compiles while its
first window fills); the first prediction compiles whatever is left. Only
``int`` feature indices and the ``repr`` of finite floats are written into
the source. A tree with a non-finite threshold, one deeper than the
generated source may indent, or one whose source would be too long (shared
children expand once per path) is walked through its arrays instead, in
its place in tree order. Compiled or walked, the leaves are added one by
one in tree order, so probabilities are bit for bit those of the flat
arrays.

The same generator builds a bound form for a set of unknown columns
(``bound_probability``): each split on an unknown column is replaced, at
compile time, by the merge of its two subtrees that keeps the larger leaf,
so each tree adds the largest leaf the row may reach whatever those columns
hold. The exact form is that generator with no unknown column. A merged
tree is also walked if it has shared children or more than
``MAX_TREE_LINES`` nodes; the walk then takes the largest leaf it reaches.
The bound is at least the probability of every completion of the row, since
float addition and division are monotone.

Training runs on numpy, which only the training functions import: loading,
compiling and predicting import no numpy, so a stream process does not
load it. A prediction's input is a row in the model's column order, as
``features.extract_segment`` returns it for the model's own schema.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import partial
from itertools import chain
from typing import TYPE_CHECKING, Iterator, Mapping, Optional, Sequence

from .types import MalformedRecord

if TYPE_CHECKING:
    import numpy as np

MODEL_FORMAT = "snatchdet.forest"
MODEL_VERSION = 1
_dump = partial(json.dumps, sort_keys=True, separators=(",", ":"))


class MissingClass(ValueError):
    """Training data does not contain both classes."""


class SchemaMismatch(ValueError):
    """Input features do not match the model's schema."""


class VersionMismatch(MalformedRecord):
    """Serialized model has an unsupported version."""


class CorruptModel(MalformedRecord):
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

    def __post_init__(self) -> None:
        if self.n_trees < 1:
            raise MalformedRecord("n_trees must be >= 1")
        if self.seed < 0:  # numpy seeds only from nonnegative integers
            raise MalformedRecord(f"seed must be nonnegative, got {self.seed}")


@dataclass
class Dataset:
    """Feature matrix with binary labels (robbery = 1)."""

    feature_names: tuple[str, ...]
    X: np.ndarray
    y: np.ndarray
    ids: Optional[tuple[str, ...]] = None

    def __post_init__(self) -> None:
        import numpy as np

        self.X = np.asarray(self.X, dtype=np.float64)
        self.y = np.asarray(self.y)
        if self.X.ndim != 2:
            raise ValueError("X must be a 2-d matrix")
        if not self.feature_names:
            raise MalformedRecord("dataset has no feature columns")
        if self.X.shape[0] != self.y.shape[0]:
            raise ValueError("row count must equal label count")
        if self.X.shape[1] != len(self.feature_names):
            raise ValueError("column count must match feature_names")
        if self.ids is not None and len(self.ids) != self.X.shape[0]:
            raise ValueError("ids must match row count")
        if not np.all(np.isfinite(self.X)):
            raise MalformedRecord("feature matrix contains non-finite cells")
        if not np.all((self.y == 0) | (self.y == 1)):
            raise MalformedRecord("labels must be 0 or 1")
        self.y = self.y.astype(np.int64, copy=False)  # after the check: 2**63 would overflow

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


@dataclass
class Tree:
    """Flat CART arrays: node i is internal iff feature[i] >= 0.

    The one form of a tree: training writes it, the model document stores
    it, and prediction compiles or walks it from node 0. A split sends
    ``x[feature[i]] <= threshold[i]`` to ``left[i]`` and the rest to
    ``right[i]``; a leaf's probability is its weighted robbery fraction
    ``w1 / (w0 + w1)`` of ``leaf_weights[i]``.
    """

    feature: list[int] = field(default_factory=list)
    threshold: list[float] = field(default_factory=list)
    left: list[int] = field(default_factory=list)
    right: list[int] = field(default_factory=list)
    leaf_weights: list[tuple[float, float]] = field(default_factory=list)

    def add_node(self) -> int:
        self.feature.append(-1)
        self.threshold.append(0.0)
        self.left.append(-1)
        self.right.append(-1)
        self.leaf_weights.append((0.0, 0.0))
        return len(self.feature) - 1


@dataclass
class ForestModel:
    trees: list[Tree]
    feature_names: tuple[str, ...]
    config: ForestConfig
    class_weights: tuple[float, float]
    importances: tuple[float, ...]
    # built by compile_chunk, completed by the first predict_probability
    compiled: Optional["CompiledForest"] = field(default=None, compare=False, repr=False)
    # the bound forms by their unknown columns, completed by bound_probability
    bounds: dict[frozenset[int], "CompiledForest"] = field(
        default_factory=dict, compare=False, repr=False
    )


def balanced_weights(labels: Sequence[int]) -> tuple[float, float]:
    """Per-class weight N / (K * N_c) for binary labels."""
    import numpy as np

    y = np.asarray(labels)
    n0 = int(np.sum(y == 0))
    n1 = int(np.sum(y == 1))
    if n0 == 0 or n1 == 0:
        raise MissingClass(f"need both classes, got counts (non-robbery={n0}, robbery={n1})")
    n = n0 + n1
    return (n / (2 * n0), n / (2 * n1))


def _tree_rng(seed: int, tree_index: int) -> np.random.Generator:
    import numpy as np

    return np.random.default_rng(np.random.SeedSequence(entropy=(seed, tree_index)))


def _presort(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each column's stable sort order and its sorted values, feature-major: two (d, n) arrays."""
    import numpy as np

    columns = np.ascontiguousarray(X.T)
    order = np.argsort(columns, axis=1, kind="stable")
    return order, np.take_along_axis(columns, order, axis=1)


def _best_split(
    order: np.ndarray,
    values: np.ndarray,
    y: np.ndarray,
    counts: np.ndarray,
    feats: np.ndarray,
    w0: float,
    w1: float,
) -> Optional[tuple[int, float, float, np.ndarray, np.ndarray]]:
    """Best (feature, threshold) by weighted-Gini decrease over ``feats``.

    ``order`` and ``values`` are ``_presort`` of the training rows, and the
    node holds row i ``counts[i]`` times. Returns (feature, threshold,
    weighted impurity decrease, left counts, right counts) or None when no
    split improves impurity. Ties go to the lower feature index and then
    the lower threshold.

    Each feature's presorted rows are filtered to the node's rows, so every
    feature keeps the same number of them. Candidate splits lie between
    consecutive distinct values, where the cumulative class counts are exact
    integers whatever the order of rows within ties, so the criterion is
    bit-identical to a naive per-split recount. The threshold is the
    midpoint of the two values, or the lower one ``lo`` when the midpoint is
    not below the higher (adjacent floats, or a sum that overflows to
    infinity), so ``x <= threshold`` sends exactly the rows with
    ``x <= lo`` left, as the search counted them.
    """
    import numpy as np

    m = feats.shape[0]
    rows = order[feats]
    node_counts = counts[rows]
    # the node's rows in each feature's sorted order, feature-major: every
    # feature holds the same rows, so each keeps the same number u of them
    kept = np.flatnonzero(node_counts)
    c = node_counts.ravel().take(kept)
    xs = values[feats].ravel().take(kept).reshape(m, -1)
    # one running sum over the m features in turn, so feature j's sums
    # start at j times the node's totals
    cnt = np.cumsum(c).reshape(m, -1)
    cnt1 = np.cumsum(c * y.take(rows.ravel().take(kept))).reshape(m, -1)
    tot = int(cnt[0, -1])
    tot1 = int(cnt1[0, -1])
    before = np.arange(m)[:, None]
    cnt = cnt[:, :-1] - before * tot
    cnt1 = cnt1[:, :-1] - before * tot1

    w_tot0 = float(tot - tot1) * w0
    w_tot1 = float(tot1) * w1
    w_tot = w_tot0 + w_tot1
    parent = w_tot - (w_tot0 * w_tot0 + w_tot1 * w_tot1) / w_tot

    # candidate splits after kept row k (0 .. u-2) where the value rises,
    # flat in feature-major order
    bounds = np.flatnonzero(xs[:, 1:] > xs[:, :-1])
    cnt1 = cnt1.ravel().take(bounds)
    l0 = (cnt.ravel().take(bounds) - cnt1) * w0
    l1 = cnt1 * w1
    wl = l0 + l1
    r0 = w_tot0 - l0
    r1 = w_tot1 - l1
    wr = r0 + r1
    children = (wl - (l0 * l0 + l1 * l1) / wl) + (wr - (r0 * r0 + r1 * r1) / wr)
    gain = parent - children
    if gain.shape[0] == 0:
        return None
    best = int(np.argmax(gain))  # ties -> lower feature, lower threshold
    best_gain = float(gain[best])
    if best_gain <= 0.0:
        return None

    f_local, k = divmod(int(bounds[best]), xs.shape[1] - 1)
    lo = float(xs[f_local, k])
    hi = float(xs[f_local, k + 1])
    threshold = (lo + hi) / 2.0
    if not threshold < hi:  # adjacent floats, or lo + hi overflows to inf
        threshold = lo
    feat = int(feats[f_local])
    left = counts.copy()
    left[order[feat, np.searchsorted(values[feat], lo, side="right") :]] = 0
    return feat, threshold, best_gain, left, counts - left


def _grow_tree(
    order: np.ndarray,
    values: np.ndarray,
    y: np.ndarray,
    cfg: ForestConfig,
    tree_index: int,
    weights: tuple[float, float],
) -> tuple[Tree, np.ndarray]:
    import numpy as np

    rng = _tree_rng(cfg.seed, tree_index)
    d, n = order.shape
    w0, w1 = weights
    m = math.ceil(math.sqrt(d))

    bootstrap = rng.integers(0, n, size=n)
    tree = Tree()
    decreases = np.zeros(d, dtype=np.float64)

    # (node slot, row counts); preorder with the left child first so the
    # RNG consumption order is well defined.
    root = tree.add_node()
    stack: list[tuple[int, np.ndarray]] = [(root, np.bincount(bootstrap, minlength=n))]
    while stack:
        node, counts = stack.pop()
        n1 = int(counts @ y)
        n0 = int(counts.sum()) - n1

        split = None
        if n0 > 0 and n1 > 0:
            feats = np.sort(rng.choice(d, size=m, replace=False))
            split = _best_split(order, values, y, counts, feats, w0, w1)

        if split is None:
            tree.leaf_weights[node] = (n0 * w0, n1 * w1)
            continue

        feat, threshold, gain, left_counts, right_counts = split
        decreases[feat] += gain
        tree.feature[node] = feat
        tree.threshold[node] = threshold
        left = tree.add_node()
        right = tree.add_node()
        tree.left[node] = left
        tree.right[node] = right
        stack.append((right, right_counts))
        stack.append((left, left_counts))

    return tree, decreases


def train(dataset: Dataset, cfg: ForestConfig = ForestConfig()) -> ForestModel:
    """Train the ensemble; deterministic for a fixed (dataset, config)."""
    import numpy as np

    data = dataset.canonicalized()
    if len(data) == 0:
        raise MissingClass("empty dataset")
    weights = balanced_weights(data.y)
    # sorted once, shared read-only by every tree
    order, values = _presort(data.X)
    results = [_grow_tree(order, values, data.y, cfg, t, weights) for t in range(cfg.n_trees)]

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
        importances=tuple(importances.tolist()),
    )


# Source lines per generated function: about ten trees of the deployed
# models. Compiling costs about 2 KB of peak memory per line, so one
# function for a whole 500-tree forest would peak about 15 MB higher.
CHUNK_LINES = 128
# Deepest split compiled. Each level is one indentation level of the
# generated source, and the tokenizer stops at 100.
MAX_COMPILED_DEPTH = 64
# Most source lines one compiled tree may produce (two per split, one per
# leaf, counted once per path through shared children, and after merging).
MAX_TREE_LINES = 1024


def _largest_leaves(tree: Tree) -> Optional[list[float]]:
    """The largest leaf fraction under each node, or None if a leaf is not finite.

    Children lie after their parent, so one pass from the last node fills it.
    """
    feature, left, right = tree.feature, tree.left, tree.right
    top = [0.0] * len(feature)
    for node in reversed(range(len(feature))):
        if feature[node] >= 0:
            top[node] = max(top[left[node]], top[right[node]])
            continue
        w0, w1 = tree.leaf_weights[node]
        top[node] = w1 / (w0 + w1)
        if not math.isfinite(top[node]):
            return None
    return top


def _tree_source(tree: Tree, unknown: frozenset[int] = frozenset()) -> Optional[list[str]]:
    """``tree``'s straight-line source lines, or None if the tree must be walked.

    A split on a column outside ``unknown`` becomes ``if v[f] <= thr:`` and
    ``else:`` blocks; a split on an ``unknown`` column is replaced by the
    merge of its two subtrees, keeping the larger leaf. The source follows
    every node a path may still reach, and branches on the first of them
    that splits on a known column; a path ends, with ``t += leaf``, at the
    largest leaf it reaches, once no node it may reach holds a larger one.
    With no unknown column, each path holds one node: that is the tree as it
    stands. Only an ``int`` feature index and the ``repr`` of a finite float
    are written. Each limit is checked before a line is added, so rejecting
    a tree costs at most ``MAX_TREE_LINES`` lines however many paths its
    shared children or merges make. A tree that splits on an unknown column
    is merged only if it has at most ``MAX_TREE_LINES`` nodes and no shared
    child, which bounds the nodes each line visits.
    """
    feature, threshold, left, right = tree.feature, tree.threshold, tree.left, tree.right
    top = None
    if unknown and any(feat in unknown for feat in feature):
        children = [c for feat, l, r in zip(feature, left, right) if feat >= 0 for c in (l, r)]
        if len(feature) > MAX_TREE_LINES or len(set(children)) != len(children):
            return None
        top = _largest_leaves(tree)
        if top is None:
            return None
    lines: list[str] = []
    # (depth, largest leaf reached, nodes the path may reach), with nodes
    # None for the "else:" between a split's two blocks
    stack: list[tuple[int, float, Optional[list[int]]]] = [(1, -math.inf, [0])]
    while stack:
        depth, best, nodes = stack.pop()
        if len(lines) >= MAX_TREE_LINES or depth > MAX_COMPILED_DEPTH:
            return None
        pad = "    " * depth
        if nodes is None:
            lines.append(pad + "else:")
            continue
        known = []
        while nodes:
            node = nodes.pop()
            if top is not None and top[node] <= best:
                continue  # no leaf below it is larger
            feat = feature[node]
            if feat < 0:
                w0, w1 = tree.leaf_weights[node]
                best = w1 / (w0 + w1)
            elif feat in unknown:
                nodes += (left[node], right[node])
            else:
                known.append(node)
        if top is not None:
            known = [node for node in known if top[node] > best]
        if not known:
            if not math.isfinite(best):
                return None
            lines.append(f"{pad}t += {best!r}")
            continue
        node = known.pop()
        feat, thr = feature[node], threshold[node]
        if type(feat) is not int or type(thr) is not float or not math.isfinite(thr):
            return None
        lines.append(f"{pad}if v[{feat}] <= {thr!r}:")
        stack += (
            (depth + 1, best, known + [right[node]]),
            (depth, best, None),
            (depth + 1, best, known + [left[node]]),
        )
    return lines


def _walker(tree: Tree, unknown: frozenset[int] = frozenset()):
    """A step that adds the largest leaf of ``tree`` that ``vec`` reaches, walking its arrays.

    A split on an ``unknown`` column reaches both children. Each node is
    visited once, so shared children cost nothing extra. With no unknown
    column, the one leaf reached is added.
    """
    feature, threshold, left, right = tree.feature, tree.threshold, tree.left, tree.right

    def walk(vec: list[float], total: float) -> float:
        best = -math.inf
        stack, seen = [0], set()
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            feat = feature[node]
            if feat < 0:
                w0, w1 = tree.leaf_weights[node]
                best = max(best, w1 / (w0 + w1))
            elif feat in unknown:
                stack += (left[node], right[node])
            else:
                stack.append(left[node] if vec[feat] <= threshold[node] else right[node])
        return total + best

    return walk


def _chunk_step(lines: list[str]):
    """One generated function ``(v, t) -> t`` running ``lines`` as its body."""
    source = "\n".join(["def step(v, t):", *lines, "    return t\n"])
    namespace: dict = {}
    exec(compile(source, "<snatchdet.forest>", "exec"), namespace)
    return namespace["step"]


class CompiledForest:
    """A model's trees as steps ``(vec, total) -> total`` to run in tree order.

    ``unknown`` holds the columns whose values the form does not read: each
    tree's step adds the largest leaf the row may reach whatever those
    columns hold, and with no unknown column the leaf it reaches. Built a
    chunk at a time by ``compile_chunk``. A compiled step is one generated
    function holding consecutive compiled trees, closed once it reaches
    ``CHUNK_LINES`` lines; a walked step is one tree that ``_tree_source``
    refused. Once ``done``, ``n_compiled + n_walked`` is the model's tree count.
    """

    def __init__(self, trees: Sequence[Tree], unknown: frozenset[int] = frozenset()):
        self._trees = trees
        self.unknown = unknown
        self._next = 0
        self.steps: list = []
        self.n_compiled = 0
        self.n_walked = 0
        self.done = not trees

    def compile_chunk(self) -> bool:
        """Add the steps of the next trees, at most one generated function; return ``done``.

        The chunk ends at ``CHUNK_LINES`` lines or at a tree that must be
        walked, which follows it as its own step.
        """
        chunk: list[str] = []
        walked = None
        while self._next < len(self._trees) and len(chunk) < CHUNK_LINES:
            tree = self._trees[self._next]
            self._next += 1
            lines = _tree_source(tree, self.unknown)
            if lines is None:
                walked = _walker(tree, self.unknown)
                break
            chunk += lines
            self.n_compiled += 1
        if chunk:
            self.steps.append(_chunk_step(chunk))
        if walked is not None:
            self.steps.append(walked)
            self.n_walked += 1
        self.done = self._next == len(self._trees)
        return self.done


def _form(model: ForestModel, unknown: frozenset[int]) -> CompiledForest:
    """The compiled form of ``model`` with ``unknown`` columns, begun if it is not yet."""
    if not unknown:
        if model.compiled is None:
            model.compiled = CompiledForest(model.trees)
        return model.compiled
    form = model.bounds.get(unknown)
    if form is None:
        form = model.bounds[unknown] = CompiledForest(model.trees, unknown)
    return form


def compile_chunk(model: ForestModel, unknown: frozenset[int] = frozenset(), share: float = 0.0) -> bool:
    """Compile the next chunk of a form of ``model``; True once all its trees are compiled or walked.

    The form is the exact one (``predict_probability``), or with ``unknown``
    columns the bound (``bound_probability``). Each call compiles one
    generated function (about 1 ms for ``CHUNK_LINES`` lines), and more
    until ``share`` of the trees are compiled or walked, so a caller with
    idle moments, such as a stream whose first window is still filling, can
    spread the compile over them instead of paying it all at the first
    prediction.
    """
    form = _form(model, frozenset(unknown))
    while not form.done:
        form.compile_chunk()
        if form.n_compiled + form.n_walked >= share * len(model.trees):
            break
    return form.done


def _vector(model: ForestModel, x: Sequence[float]) -> list[float]:
    if isinstance(x, Mapping):
        raise SchemaMismatch("input is a mapping, not a row in the model's column order")
    try:
        vec = [float(v) for v in x]
    except (TypeError, ValueError) as exc:
        raise SchemaMismatch(f"input is not a row of numbers: {exc}") from None
    if len(vec) != len(model.feature_names):
        raise SchemaMismatch(f"expected {len(model.feature_names)} features, got {len(vec)}")
    # a non-finite cell makes the sum non-finite; a finite sum rules them all out
    if not math.isfinite(sum(vec)) and not all(map(math.isfinite, vec)):
        raise SchemaMismatch("input holds a value that is not finite")
    return vec


def _run(model: ForestModel, x, unknown: frozenset[int]) -> float:
    """The mean of the steps of ``model``'s form with ``unknown`` columns on row ``x``.

    Compiles whatever ``compile_chunk`` has not yet compiled of that form and
    keeps it on the model, so the model's trees must not change after the
    first compile. The steps run in tree order starting from 0.0: the leaves
    are added one by one, not with ``sum``, whose float summation is
    compensated from Python 3.12.
    """
    vec = _vector(model, x)
    form = _form(model, unknown)
    while not form.done:
        form.compile_chunk()
    total = 0.0
    for step in form.steps:
        total = step(vec, total)
    return total / len(model.trees)


def predict_probability(model: ForestModel, x) -> float:
    """Mean over trees of the leaf's weighted robbery fraction.

    ``x`` is a sequence of finite numbers in ``model.feature_names`` order;
    a Mapping, a value ``float`` rejects or that is not finite, or a wrong
    length raises ``SchemaMismatch``. The first call with a model compiles
    whatever ``compile_chunk`` has not yet compiled and keeps the result on
    ``model.compiled``.
    """
    return _run(model, x, frozenset())


def bound_probability(model: ForestModel, x, unknown: frozenset[int]) -> float:
    """An upper bound on ``predict_probability`` of every row that equals ``x`` outside ``unknown``.

    ``unknown`` holds column indices whose values ``x`` need not know: they
    are not read. Each tree adds the largest leaf the row may reach whatever
    those columns hold, in tree order, and the total is divided by the tree
    count. Float addition and division are monotone, so the bound is at least
    the probability of any completion of the row; with no unknown column it
    is ``predict_probability(model, x)``, bit for bit. ``x`` is checked as
    there, and each set of unknown columns compiles its own form, kept on
    ``model.bounds``.
    """
    return _run(model, x, frozenset(unknown))


def predict(model: ForestModel, x) -> tuple[int, float]:
    """(label, probability); the 0.5 tie resolves to the positive class."""
    p = predict_probability(model, x)
    return (1 if p >= 0.5 else 0, p)


def training_accuracy(model: ForestModel, dataset: Dataset) -> float:
    """Share of ``dataset``'s rows whose predicted label is their own.

    It does not compile the model: each tree splits the row indices at each
    node some row reaches, and each row adds its leaf fractions in tree
    order, so every probability is bit for bit ``predict_probability``'s.
    """
    import numpy as np

    X = dataset.X
    if X.shape[1] != len(model.feature_names):
        raise SchemaMismatch(f"expected {len(model.feature_names)} features, got {X.shape[1]}")
    total = np.zeros(X.shape[0])
    for tree in model.trees:
        stack = [(0, np.arange(X.shape[0]))]
        while stack:
            node, rows = stack.pop()
            feat = tree.feature[node]
            if feat < 0:
                w0, w1 = tree.leaf_weights[node]
                total[rows] += w1 / (w0 + w1)
                continue
            goes_left = X[rows, feat] <= tree.threshold[node]
            children = ((tree.right[node], rows[~goes_left]), (tree.left[node], rows[goes_left]))
            for child, part in children:
                # only nodes some row reaches: a shared child is visited once per row
                if part.size:
                    stack.append((child, part))
    hits = np.count_nonzero((total / len(model.trees) >= 0.5) == dataset.y)
    return int(hits) / len(dataset)


# ---------------------------------------------------------------------------
# serialization


def _document_pieces(model: ForestModel) -> Iterator[str]:
    """The model document as its head, one piece per tree, and its tail, "version".

    Joined, they are the whole document dumped with sorted keys and no spaces,
    so identical models give identical bytes.
    """
    head = _dump({
        "class_weights": list(model.class_weights),
        "config": {"n_trees": model.config.n_trees, "seed": model.config.seed, **RECIPE},
        "format": MODEL_FORMAT,
        "importances": [repr(float(v)) for v in model.importances],
        "schema": list(model.feature_names),
    })
    yield head[:-1] + ',"trees":['
    for i, tree in enumerate(model.trees):
        yield ("," if i else "") + _dump({
            "feature": tree.feature,
            "threshold": [repr(t) for t in tree.threshold],
            "left": tree.left,
            "right": tree.right,
            "leaf": [[repr(w0), repr(w1)] for w0, w1 in tree.leaf_weights],
        })
    yield f'],"version":{MODEL_VERSION}}}'


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


_DOCUMENT_KEYS = frozenset(
    ("format", "version", "schema", "config", "class_weights", "importances", "trees")
)
_CONFIG_KEYS = frozenset(("n_trees", "seed", *RECIPE))
_TREE_KEYS = frozenset(("feature", "threshold", "left", "right", "leaf"))


def _check_keys(where: str, obj: dict, known: frozenset) -> None:
    """Raise CorruptModel naming a key of ``obj`` that save_model never writes.

    Such a key would be dropped on load, so the document would not be
    written back as it was read.
    """
    if not isinstance(obj, dict):
        raise CorruptModel(f"{where} is not a JSON object")
    for key in obj:
        if key not in known:
            raise CorruptModel(f"{where} has unknown key {key!r}")


# deserialize rejects each value that save_model would write back as other
# bytes: an integer given as a float or a boolean, a float that is not the
# repr string of its value, a third class weight.


def _integers(where: str, values) -> list[int]:
    """``values`` if it is a list of JSON integers, not booleans or floats."""
    if type(values) is not list or set(map(type, values)) - {int}:
        raise CorruptModel(f"{where} is not a list of integers")
    return values


def _floats(where: str, texts, seen: set) -> list[float]:
    """The floats of the list ``texts``; its items join ``seen`` for ``_check_reprs``."""
    if type(texts) is not list:
        raise CorruptModel(f"{where} is not a list")
    seen.update(texts)
    return list(map(float, texts))


def _leaf_weights(pairs, seen: set) -> list[tuple[float, float]]:
    """The (w0, w1) weights of the list of pairs ``pairs``; its items join ``seen``."""
    if type(pairs) is not list or set(map(type, pairs)) - {list}:
        raise CorruptModel("tree leaf is not a list of pairs")
    seen.update(chain.from_iterable(pairs))
    return [(float(w0), float(w1)) for w0, w1 in pairs]


def _check_reprs(where: str, texts: set) -> None:
    """Raise CorruptModel unless each of ``texts`` is the repr string of its float.

    The strings of a whole document are checked once each: the leaf
    weights of a model take few distinct values.
    """
    for text in texts:
        if type(text) is not str or repr(float(text)) != text:
            raise CorruptModel(f"{where} holds {text!r}, not the repr string of a float")


def _class_weights(values) -> tuple[float, float]:
    """``values`` as a pair if it is a list of two JSON floats."""
    if type(values) is not list or len(values) != 2 or set(map(type, values)) != {float}:
        raise CorruptModel("class_weights is not a pair of JSON floats")
    return values[0], values[1]


def deserialize(document: str) -> ForestModel:
    try:
        doc = json.loads(document)
    except (ValueError, RecursionError) as exc:
        # JSONDecodeError, an integer over the digit limit, deep nesting
        raise CorruptModel(f"model document is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("format") != MODEL_FORMAT:
        raise CorruptModel("not a forest model document")
    version = doc.get("version")
    # true and 1.0 equal 1 but are written back as 1
    if type(version) is not int or version != MODEL_VERSION:
        raise VersionMismatch(f"unsupported model version {version!r}")
    try:
        _check_keys("model document", doc, _DOCUMENT_KEYS)
        cfg_doc = doc["config"]
        _check_keys("config", cfg_doc, _CONFIG_KEYS)
        cfg = ForestConfig(n_trees=cfg_doc["n_trees"], seed=cfg_doc["seed"])
        for key, value in RECIPE.items():
            # any other value (1.0 or true for 1 included) would load and
            # then re-serialize to other bytes
            if type(cfg_doc[key]) is not type(value) or cfg_doc[key] != value:
                raise CorruptModel(f"config {key} differs from the recipe's {json.dumps(value)}")
        schema = doc["schema"]
        if type(schema) is not list or set(map(type, schema)) - {str}:
            raise CorruptModel("schema is not a list of strings")
        if len(set(schema)) != len(schema):
            twice = next(name for i, name in enumerate(schema) if name in schema[:i])
            raise CorruptModel(f"schema names feature {twice!r} more than once")
        trees = []
        threshold_texts: set = set()
        weight_texts: set = set()
        for tdoc in doc["trees"]:
            _check_keys("tree", tdoc, _TREE_KEYS)
            tree = Tree(
                feature=_integers("tree feature", tdoc["feature"]),
                threshold=_floats("tree threshold", tdoc["threshold"], threshold_texts),
                left=_integers("tree left", tdoc["left"]),
                right=_integers("tree right", tdoc["right"]),
                leaf_weights=_leaf_weights(tdoc["leaf"], weight_texts),
            )
            _check_tree(tree, len(schema))
            trees.append(tree)
        _check_reprs("tree threshold", threshold_texts)
        _check_reprs("tree leaf", weight_texts)
        if not trees:
            raise CorruptModel("model has no trees")
        if type(cfg.n_trees) is not int or cfg.n_trees != len(trees):
            raise CorruptModel(
                f"config n_trees is {cfg.n_trees!r} but the model has {len(trees)} trees"
            )
        importance_texts: set = set()
        model = ForestModel(
            trees=trees,
            feature_names=tuple(schema),
            config=cfg,
            class_weights=_class_weights(doc["class_weights"]),
            importances=tuple(_floats("importances", doc["importances"], importance_texts)),
        )
        _check_reprs("importances", importance_texts)
    except (KeyError, IndexError, TypeError, ValueError, OverflowError) as exc:
        if isinstance(exc, (CorruptModel, VersionMismatch)):
            raise
        raise CorruptModel(f"malformed model document: {exc}") from exc
    if len(model.importances) != len(model.feature_names):
        raise CorruptModel("importances length does not match schema")
    return model


def save_model(model: ForestModel, path: str) -> None:
    """Write the model document a piece at a time, never holding the whole text."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(_document_pieces(model))


def load_model(path: str) -> ForestModel:
    with open(path, "r", encoding="utf-8") as fh:
        return deserialize(fh.read())
