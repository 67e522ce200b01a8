"""References for the forest: the flat tree walk and the per-node trainer.

``flat_predict_probability`` is the flat four-list tree walk, kept as the
reference for ``forest.predict_probability``. It reads a tree's arrays
(``feature``, ``threshold``, ``left``, ``right`` and ``leaf_weights``)
node by node and computes each leaf fraction on the spot, with no
generated source and no walker of the forest's own.

``flat_bound_probability`` is the reference for ``forest.bound_probability``:
the same flat walk, except that a split on an unknown column reaches both
of its children. It collects the set of nodes the row reaches from the
root and adds the largest leaf fraction among them, tree by tree.

``serialize`` is the model document as one ``json.dumps`` of the whole
document, the reference for the bytes that ``forest.save_model`` writes a
tree at a time.

``reference_train`` is the trainer as it was before ``forest.train`` sorted
each column once: every node gathers its sample indices, bootstrap
duplicates included, and sorts them again per candidate feature. It is the
reference for ``forest.train`` on rows already in canonical order.
"""

from __future__ import annotations

import json
import math
from typing import Optional, Sequence

import numpy as np


def serialize(model) -> str:
    """The whole model document, keys sorted, no spaces; equal models give equal bytes."""
    doc = {
        "format": "snatchdet.forest",
        "version": 1,
        "schema": list(model.feature_names),
        "config": {
            "n_trees": model.config.n_trees,
            "seed": model.config.seed,
            "class_weight_mode": "balanced",
            "max_depth": None,
            "min_samples_leaf": 1,
            "features_per_split": "sqrt",
        },
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


def flat_tree_probability(tree, x: Sequence[float]) -> float:
    """The weighted robbery fraction w1 / (w0 + w1) of the leaf ``x`` reaches."""
    node = 0
    while tree.feature[node] >= 0:
        if x[tree.feature[node]] <= tree.threshold[node]:
            node = tree.left[node]
        else:
            node = tree.right[node]
    w0, w1 = tree.leaf_weights[node]
    return w1 / (w0 + w1)


def flat_predict_probability(model, x: Sequence[float]) -> float:
    """Mean of the trees' leaf fractions, added left to right in tree order."""
    vec = [float(v) for v in x]
    total = 0.0
    for tree in model.trees:
        total += flat_tree_probability(tree, vec)
    return total / len(model.trees)


def flat_tree_bound(tree, x: Sequence[float], unknown) -> float:
    """The largest leaf fraction among the nodes ``x`` reaches when a split on
    a column in ``unknown`` sends it both ways."""
    reached = {0}
    frontier = [0]
    while frontier:
        node = frontier.pop()
        f = tree.feature[node]
        if f < 0:
            continue
        if f in unknown:
            children = [tree.left[node], tree.right[node]]
        elif x[f] <= tree.threshold[node]:
            children = [tree.left[node]]
        else:
            children = [tree.right[node]]
        for child in children:
            if child not in reached:
                reached.add(child)
                frontier.append(child)
    leaves = [tree.leaf_weights[node] for node in reached if tree.feature[node] < 0]
    return max(w1 / (w0 + w1) for w0, w1 in leaves)


def flat_bound_probability(model, x: Sequence[float], unknown) -> float:
    """Mean of the trees' largest reachable leaf fractions, added left to right in tree order."""
    vec = [float(v) for v in x]
    total = 0.0
    for tree in model.trees:
        total += flat_tree_bound(tree, vec, unknown)
    return total / len(model.trees)


def _balanced_weights(y: np.ndarray) -> tuple[float, float]:
    n0 = int(np.sum(y == 0))
    n1 = int(np.sum(y == 1))
    return ((n0 + n1) / (2 * n0), (n0 + n1) / (2 * n1))


def _best_split(
    X: np.ndarray, y: np.ndarray, idx: np.ndarray, feats: np.ndarray, w0: float, w1: float
) -> Optional[tuple[int, float, float, np.ndarray, np.ndarray]]:
    """Best (feature, threshold, decrease, left indices, right indices) over ``feats``, or None.

    The node's rows are sorted per feature with a stable sort; a split may
    fall after any sorted position whose next value is greater. Ties go to
    the lower feature index and then the lower threshold.
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

    l0 = cnt0[:-1] * w0
    l1 = cnt1[:-1] * w1
    wl = l0 + l1
    r0 = w_tot0 - l0
    r1 = w_tot1 - l1
    wr = r0 + r1
    children = (wl - (l0 * l0 + l1 * l1) / wl) + (wr - (r0 * r0 + r1 * r1) / wr)
    gain = parent - children
    gain = np.where(xs[1:] > xs[:-1], gain, -np.inf)

    flat = np.argmax(gain.T)  # feature-major
    f_local, split_pos = divmod(int(flat), n - 1)
    best_gain = float(gain[split_pos, f_local])
    if not np.isfinite(best_gain) or best_gain <= 0.0:
        return None

    below, above = float(xs[split_pos, f_local]), float(xs[split_pos + 1, f_local])
    threshold = (below + above) / 2.0
    if not threshold < above:
        # the midpoint of two adjacent floats is the upper one; the split
        # sends the rows at `above` right, so `x <= threshold` must too
        threshold = below
    col_order = order[:, f_local]
    return (
        int(feats[f_local]),
        threshold,
        best_gain,
        idx[col_order[: split_pos + 1]],
        idx[col_order[split_pos + 1 :]],
    )


def _grow_tree(
    X: np.ndarray, y: np.ndarray, seed: int, tree_index: int, weights: tuple[float, float]
) -> tuple[dict, np.ndarray]:
    """One tree's flat arrays and per-feature impurity decreases.

    The tree's generator is seeded by (seed, tree_index). It draws the
    bootstrap, then the candidate features of each splittable node in
    preorder, left child first.
    """
    rng = np.random.default_rng(np.random.SeedSequence(entropy=(seed, tree_index)))
    n, d = X.shape
    w0, w1 = weights
    m = math.ceil(math.sqrt(d))
    tree: dict = {"feature": [], "threshold": [], "left": [], "right": [], "leaf_weights": []}

    def add_node() -> int:
        tree["feature"].append(-1)
        tree["threshold"].append(0.0)
        tree["left"].append(-1)
        tree["right"].append(-1)
        tree["leaf_weights"].append((0.0, 0.0))
        return len(tree["feature"]) - 1

    decreases = np.zeros(d, dtype=np.float64)
    stack = [(add_node(), rng.integers(0, n, size=n))]
    while stack:
        node, idx = stack.pop()
        n1 = int(np.sum(y[idx] == 1))
        n0 = idx.shape[0] - n1
        split = None
        if n0 > 0 and n1 > 0:
            feats = np.sort(rng.choice(d, size=m, replace=False))
            split = _best_split(X, y, idx, feats, w0, w1)
        if split is None:
            tree["leaf_weights"][node] = (n0 * w0, n1 * w1)
            continue
        feat, threshold, gain, left_idx, right_idx = split
        decreases[feat] += gain
        tree["feature"][node] = feat
        tree["threshold"][node] = threshold
        left = add_node()
        right = add_node()
        tree["left"][node] = left
        tree["right"][node] = right
        stack.append((right, right_idx))
        stack.append((left, left_idx))
    return tree, decreases


def reference_train(X, y, n_trees: int, seed: int) -> tuple[list[dict], np.ndarray]:
    """Trees as dicts of flat lists (``feature``, ``threshold``, ``left``, ``right``,
    ``leaf_weights``), and the normalized impurity importances.

    Each tree's decreases are normalized to sum 1 before they are summed,
    and the sum is normalized again; both classes must be present.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    weights = _balanced_weights(y)
    results = [_grow_tree(X, y, seed, t, weights) for t in range(n_trees)]
    summed = np.zeros(X.shape[1], dtype=np.float64)
    for _, decreases in results:
        total = decreases.sum()
        if total > 0:
            summed += decreases / total
    importances = summed / summed.sum() if summed.sum() > 0 else summed
    return [tree for tree, _ in results], importances
