"""Experiment helpers: held-out metrics."""

from snatchdet.experiment import binary_metrics


def test_binary_metrics_accepts_one_pass_iterables():
    y_true = [1, 1, 0, 0, 1, 0, 1]
    y_pred = [1, 0, 0, 1, 1, 0, 1]
    expected = binary_metrics(y_true, y_pred)
    assert expected == {"accuracy": 5 / 7, "precision": 0.75, "recall": 0.75, "f1": 0.75}
    assert binary_metrics(iter(y_true), (p for p in y_pred)) == expected
