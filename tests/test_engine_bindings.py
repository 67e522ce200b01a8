"""The engine calls its layers through the ``snatchdet.pipeline`` bindings.

The benchmark's tracer (``perfbench/tracer.py``), the output digest
(``scripts/output_digest.py``) and the online/offline oracle replace
``pipeline.select_pair``, ``order_roles``, ``pair_segment``,
``extract_segment`` and ``predict_probability`` to time or record them. If
the engine reached one of them another way, those tools would silently stop
seeing it; this test counts the calls through the bindings.
"""

from collections import Counter

from conftest import with_bystander, without_person
from snatchdet import pipeline
from snatchdet.config import PipelineConfig
from snatchdet.forest import Dataset, ForestConfig, train
from snatchdet.synth import ScenarioSpec, generate

BINDINGS = ("select_pair", "order_roles", "pair_segment", "extract_segment", "predict_probability")


def test_engine_calls_each_layer_through_its_pipeline_binding(monkeypatch):
    cfg = PipelineConfig()
    frames = generate(ScenarioSpec(kind="snatch", seed=11, duration=5.0, noise_sigma=1.0)).frames
    # a far bystander, and person 2 gone for 2 s: some windows hold no pair
    frames = without_person(with_bystander(frames), 2, 30, 90)
    frames = without_person(frames, 9, 0, 150)
    model = train(Dataset(("distance_mean", "A_velocity_mean"), [[0.0, 1.0], [1.0, 0.0]], [0, 1]),
                  ForestConfig(n_trees=3))

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

    engine = pipeline.StreamEngine(model, cfg)
    engine.run(frames)

    wf, sf = cfg.window_frames, cfg.stride_frames
    attempted = sum(1 for pos in range(len(frames)) if pos >= wf - 1 and (pos - (wf - 1)) % sf == 0)
    classified = pairs_found[True]
    assert attempted > classified > 0
    assert calls["select_pair"] == attempted
    assert calls["order_roles"] == calls["pair_segment"] == classified
    assert calls["extract_segment"] == calls["predict_probability"] == 2 * classified
