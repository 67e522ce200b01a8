"""The flat four-list tree walk, kept as the reference for ``forest.predict_probability``.

It reads a tree's training arrays (``feature``, ``threshold``, ``left``,
``right`` and ``leaf_weights``) node by node, as the forest did before it
walked nested tuples, and computes each leaf fraction on the spot.
"""

from __future__ import annotations

from typing import Sequence


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
