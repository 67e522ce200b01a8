"""Experiment helpers: the held-out clip split, window rows and metrics."""

from collections import Counter

from snatchdet.config import PipelineConfig
from snatchdet.experiment import binary_metrics, split_clips, window_dataset
from snatchdet.synth import generate_corpus, window_labels


def test_binary_metrics_accepts_one_pass_iterables():
    y_true = [1, 1, 0, 0, 1, 0, 1]
    y_pred = [1, 0, 0, 1, 1, 0, 1]
    expected = binary_metrics(y_true, y_pred)
    assert expected == {"accuracy": 5 / 7, "precision": 0.75, "recall": 0.75, "f1": 0.75}
    assert binary_metrics(iter(y_true), (p for p in y_pred)) == expected


def test_clip_split_is_deterministic_and_stratified():
    clips = generate_corpus(total=30, seed=2, duration=0.5)
    train, holdout = split_clips(clips, holdout_fraction=0.3, seed=9)
    again = split_clips(clips, holdout_fraction=0.3, seed=9)
    assert [[c.clip_id for c in side] for side in again] == [
        [c.clip_id for c in side] for side in (train, holdout)
    ]
    # every clip on exactly one side, each side in corpus order
    ids = [c.clip_id for c in clips]
    assert sorted(c.clip_id for c in train + holdout) == sorted(ids)
    for side in (train, holdout):
        positions = [ids.index(c.clip_id) for c in side]
        assert positions == sorted(positions)
    # each class is split at the fraction: 10 positives and 20 negatives
    assert Counter(c.label for c in holdout) == {1: 3, 0: 6}
    assert Counter(c.label for c in train) == {1: 7, 0: 14}
    other = split_clips(clips, holdout_fraction=0.3, seed=10)[1]
    assert {c.clip_id for c in other} != {c.clip_id for c in holdout}


def test_every_window_of_a_clip_lands_on_one_side():
    cfg = PipelineConfig()
    clips = generate_corpus(n_per_class=3, seed=4, duration=3.0, noise_sigma=1.0)
    train, holdout = split_clips(clips, holdout_fraction=0.34, seed=1)
    train_rows, holdout_rows = window_dataset(train, cfg), window_dataset(holdout, cfg)

    def clips_of(rows):
        return {sid.split("#", 1)[0] for sid in rows.ids}

    assert clips_of(train_rows) == {c.clip_id for c in train}
    assert clips_of(holdout_rows) == {c.clip_id for c in holdout}
    assert not clips_of(train_rows) & clips_of(holdout_rows)
    # each row carries its window's label
    labels = dict(label for clip in clips for label in window_labels(clip, cfg))
    for rows in (train_rows, holdout_rows):
        assert rows.y.tolist() == [labels[sid] for sid in rows.ids]
    assert len(train_rows) + len(holdout_rows) == len(labels)
