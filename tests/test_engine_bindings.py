"""The engine and offline extraction call their layers through the
``snatchdet.pipeline`` bindings, and only offline extraction orders roles.

The benchmark's tracer (``perfbench/tracer.py``), the output digest
(``scripts/output_digest.py``) and the online/offline oracle replace
``pipeline.select_pair``, ``order_roles``, ``pair_segment``,
``extract_segment`` and ``predict_probability`` to time or record them. If
the engine reached one of them another way, those tools would silently stop
seeing it; these tests count the calls through the bindings. The stream
classifies each pair under both orderings and keeps the higher
probability, so it orders no roles.
"""

from collections import Counter

import pytest

from conftest import with_bystander, without_person
from snatchdet import pipeline
from snatchdet.config import PipelineConfig
from snatchdet.experiment import corpus_dataset
from snatchdet.forest import Dataset, ForestConfig, train
from snatchdet.synth import ScenarioSpec, generate, generate_corpus
from snatchdet.types import FrameRecord

BINDINGS = ("select_pair", "order_roles", "pair_segment", "extract_segment", "predict_probability")


def gappy_frames():
    frames = generate(ScenarioSpec(kind="snatch", seed=11, duration=5.0, noise_sigma=1.0)).frames
    # a far bystander, and person 2 gone for 2 s: some windows hold no pair
    frames = without_person(with_bystander(frames), 2, 30, 90)
    return without_person(frames, 9, 0, 150)


def count_bindings(monkeypatch):
    """Wrap every binding; returns (calls per name, select_pair results by found/not)."""
    calls = Counter()
    pairs_found = Counter()
    for name in BINDINGS:
        inner = getattr(pipeline, name)

        def counting(*args, _name=name, _inner=inner, **kwargs):
            calls[_name] += 1
            out = _inner(*args, **kwargs)
            if _name == "select_pair":
                pairs_found[out is not None] += 1
            return out

        monkeypatch.setattr(pipeline, name, counting)
    return calls, pairs_found


def attempted_windows(cfg, n_frames):
    wf, sf = cfg.window_frames, cfg.stride_frames
    return sum(1 for pos in range(n_frames) if pos >= wf - 1 and (pos - (wf - 1)) % sf == 0)


def test_engine_calls_each_layer_through_its_pipeline_binding(monkeypatch):
    cfg = PipelineConfig()
    frames = gappy_frames()
    model = train(Dataset(("distance_mean", "A_velocity_mean"), [[0.0, 1.0], [1.0, 0.0]], [0, 1]),
                  ForestConfig(n_trees=3))
    calls, pairs_found = count_bindings(monkeypatch)

    engine = pipeline.StreamEngine(model, cfg)
    engine.run(frames)

    attempted = attempted_windows(cfg, len(frames))
    classified = pairs_found[True]
    assert attempted > classified > 0
    assert calls["select_pair"] == attempted
    assert calls["order_roles"] == 0
    assert calls["pair_segment"] == classified
    assert calls["extract_segment"] == calls["predict_probability"] == 2 * classified


def test_sliding_extraction_orders_roles_once_per_row(monkeypatch):
    cfg = PipelineConfig()
    frames = gappy_frames()
    calls, pairs_found = count_bindings(monkeypatch)

    rows = pipeline.extract_windows(frames, cfg)

    assert attempted_windows(cfg, len(frames)) > len(rows) > 0
    assert calls["select_pair"] == pairs_found[True] + pairs_found[False]
    assert calls["order_roles"] == calls["pair_segment"] == calls["extract_segment"] == len(rows)
    assert calls["predict_probability"] == 0


@pytest.fixture(scope="module")
def clip_model():
    clips = generate_corpus(n_per_class=3, seed=5, duration=4.0, noise_sigma=1.0)
    return train(corpus_dataset(clips, PipelineConfig()), ForestConfig(n_trees=20, seed=1))


def test_stream_output_does_not_depend_on_role_ordering(monkeypatch, clip_model):
    """Patching ``order_roles`` to raise leaves every alert and evidence line as it was."""
    cfg = PipelineConfig()
    # three encounters, each with fresh ids and a bystander
    persons = []
    for k, kind in enumerate(("snatch", "walk_by", "snatch")):
        clip = generate(ScenarioSpec(kind=kind, seed=40 + k, noise_sigma=1.0)).frames
        for rec in with_bystander(clip, dx=600.0):
            persons.append(tuple((tid + 10 * k, skel) for tid, skel in rec.persons))
    frames = [FrameRecord(pos, pos / cfg.fps, p) for pos, p in enumerate(persons)]

    def outputs():
        engine = pipeline.StreamEngine(clip_model, cfg)
        engine.run(frames)
        return [a.to_obj() for a in engine.alerts], [e.to_obj() for e in engine.evidence]

    want = outputs()

    def no_roles(*args, **kwargs):
        raise AssertionError("the stream ordered roles")

    monkeypatch.setattr(pipeline, "order_roles", no_roles)
    assert outputs() == want
    assert any(a["kind"] == "activated" for a in want[0])
