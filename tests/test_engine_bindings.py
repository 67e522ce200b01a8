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

import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from conftest import run_engine, with_bystander, without_person
from snatchdet import pipeline
from snatchdet.config import PipelineConfig
from snatchdet.experiment import corpus_dataset
from snatchdet.forest import Dataset, ForestConfig, save_model, train
from snatchdet.streams import write_stream
from snatchdet.synth import ScenarioSpec, generate, generate_corpus
from snatchdet.types import FrameRecord
from track_reference import build_tracks

ROOT = Path(__file__).resolve().parents[1]

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


def small_model():
    return train(Dataset(("distance_mean", "A_velocity_mean"), [[0.0, 1.0], [1.0, 0.0]], [0, 1]),
                 ForestConfig(n_trees=3))


def test_engine_calls_each_layer_through_its_pipeline_binding(monkeypatch):
    cfg = PipelineConfig()
    frames = gappy_frames()
    model = small_model()
    calls, pairs_found = count_bindings(monkeypatch)

    engine = pipeline.StreamEngine(model, cfg)
    run_engine(engine, frames)

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
        alerts = run_engine(pipeline.StreamEngine(clip_model, cfg), frames)
        return [a.to_obj() for a in alerts], [a.evidence for a in alerts if a.evidence is not None]

    want = outputs()

    def no_roles(*args, **kwargs):
        raise AssertionError("the stream ordered roles")

    monkeypatch.setattr(pipeline, "order_roles", no_roles)
    assert outputs() == want
    assert any(a["kind"] == "activated" for a in want[0])


# Installs the benchmark's tracer (which patches modules for the rest of the
# process), streams one file through ``snatchdet stream`` and writes what the
# tracer saw.
TRACED_STREAM = """
import importlib.util, json, sys
spec = importlib.util.spec_from_file_location("tracer", sys.argv[1])
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)
tracer = tracing.Tracer()
tracing.install(tracer)
from snatchdet import cli
rc = cli.main(["stream", "--stream", sys.argv[2], "--model", sys.argv[3], "--alerts-out", sys.argv[4]])
out = {
    "rc": rc,
    "spans": {name: row["calls"] for name, row in tracer.summary().items()},
    "counts": dict(tracer.counts),
    "buffers": [len(engine._buffers) for engine in tracer.engines],
}
with open(sys.argv[5], "w", encoding="utf-8") as fh:
    json.dump(out, fh)
"""

STREAM_LAYERS = (
    "streams.line_to_frame",
    "types.validate_frame",
    "preprocess.SkeletonSmoother.step",
    "pipeline.StreamEngine.__init__",
    "pipeline.StreamEngine.process",
    "pipeline.select_pair",
    "features.pair_segment",
    "features.extract_segment",
    "forest.predict_probability",
    "temporal.step",
)


def test_benchmark_tracer_sees_every_stream_layer(tmp_path):
    """The bindings ``perfbench/tracer.py`` wraps, and the engine state it
    reads, still exist and are still called, the ingest layers exactly once
    per line, frame and person."""
    cfg = PipelineConfig()
    clip = generate(ScenarioSpec(kind="snatch", seed=11, duration=4.0)).frames
    # the bystander leaves before the last window: its key is no longer held
    frames = without_person(with_bystander(clip), 9, 30, len(clip))
    stream, model, out = tmp_path / "stream.jsonl", tmp_path / "model.json", tmp_path / "out.json"
    write_stream(str(stream), frames)
    save_model(small_model(), str(model))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    subprocess.run(
        [sys.executable, "-c", TRACED_STREAM, str(ROOT / "perfbench" / "tracer.py"),
         str(stream), str(model), str(tmp_path / "alerts.jsonl"), str(out)],
        env=env, check=True, timeout=300,
    )
    seen = json.loads(out.read_text(encoding="utf-8"))
    assert seen["rc"] == 0
    assert [name for name in STREAM_LAYERS if not seen["spans"].get(name)] == []
    # the per-frame ingest metrics divide these spans' time by the frames:
    # one parse per line, one validation per frame, one smoothing per person
    lines = stream.read_text(encoding="utf-8").splitlines()
    assert seen["spans"]["streams.line_to_frame"] == len(lines) == len(frames)
    assert seen["spans"]["types.validate_frame"] == len(frames)
    assert seen["spans"]["preprocess.SkeletonSmoother.step"] == sum(len(f.persons) for f in frames)
    assert seen["counts"]["pipeline.body_center"] > 0
    tracks, positions = build_tracks(frames, cfg.max_gap_frames)
    first_kept = len(frames) - cfg.window_frames
    in_window = [t for t, p in zip(tracks, positions) if p[-1] >= first_kept]
    assert seen["buffers"] == [len(in_window)] and len(in_window) < len(tracks)
