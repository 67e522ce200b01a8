"""``forest.train`` grows each tree through the module binding ``forest._grow_tree``.

The benchmark's child process (``perfbench/child.py``) replaces that
binding with a wrapper that takes a host-speed probe every 25 trees, and
skips the wrapper when the name is gone. If ``train`` reached its per-tree
function another way, or the function were renamed, those probes would
silently stop and training times would be scaled differently; this test
counts the calls through the binding.
"""

from snatchdet import forest
from test_forest import separable_dataset


def test_train_grows_each_tree_through_the_module_binding(monkeypatch):
    calls = []
    inner = forest._grow_tree

    def counting(*args, **kwargs):
        calls.append(args)
        return inner(*args, **kwargs)

    monkeypatch.setattr(forest, "_grow_tree", counting)
    forest.train(separable_dataset(), forest.ForestConfig(n_trees=7))
    assert len(calls) == 7
