"""Print one SHA-256 per output artefact of snatchdet on fixed synthetic inputs.

    PYTHONPATH=src python3 scripts/output_digest.py

A change that must keep snatchdet's outputs byte-identical prints the same
lines before and after. The inputs come from ``snatchdet.synth`` with fixed
seeds; the artefacts come from the ``snatchdet`` commands:

- ``sliding.csv``: ``extract`` over a corpus that ``simulate`` labels per window;
- ``full_model.json``: ``train`` on those window rows and labels;
- ``top_model.json``: ``train`` on the 10 columns ``rank`` puts first;
- ``pair_stream.*`` and ``crowd_stream.*``: ``stream`` over encounters of
  one pair at a time (top-10 model), and over the same kind of encounters
  with lone bystanders whose tracker ids change every 90 frames (full
  model). ``alerts`` and ``evidence`` are the written lines; ``windows`` is
  the ``repr`` of (pair, p(A,B), p(B,A)) for every classified window, with
  the pair key's first track as A.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import os
import sys
import tempfile

from snatchdet import cli, features, forest, pipeline, streams
from snatchdet.config import PipelineConfig
from snatchdet.synth import ScenarioSpec, generate
from snatchdet.types import FrameRecord, Skeleton

KINDS = ("snatch", "walk_by", "handshake", "standing")
GAP_FRAMES = 45  # empty frames after each encounter
CHURN_FRAMES = 90  # a bystander's tracker id changes this often


def _sha(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _run(argv: list[str]) -> None:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(argv)
    if rc != 0:
        raise RuntimeError(f"snatchdet {argv[0]} exited {rc}")


def _moved(skel: Skeleton, dx: float) -> Skeleton:
    xy = tuple(v + dx if i % 2 == 0 else v for i, v in enumerate(skel.xy))
    x1, y1, x2, y2 = skel.bbox
    return Skeleton(xy, skel.conf, (x1 + dx, y1, x2 + dx, y2))


def encounter_stream(seed: int, rounds: int, bystanders: int = 0) -> list[FrameRecord]:
    """``rounds`` x the four encounter kinds, each pair with fresh ids, then a gap."""
    persons: list[list] = []
    for i in range(rounds * len(KINDS)):
        spec = ScenarioSpec(kind=KINDS[i % len(KINDS)], seed=1000 * seed + i, noise_sigma=1.5)
        clip = generate(spec)
        for f in clip.frames:
            persons.append([(2 * i + tid, skel) for tid, skel in f.persons])
        persons.extend([] for _ in range(GAP_FRAMES))
    for k in range(bystanders):
        spec = ScenarioSpec(kind="standing", duration=3.0, seed=7000 * seed + k, noise_sigma=1.5)
        loop = generate(spec)
        for pos, present in enumerate(persons):
            tid = 10_000 + 100 * k + (pos + 15 * k) // CHURN_FRAMES
            skel = loop.frames[pos % len(loop.frames)].persons[0][1]
            present.append((tid, _moved(skel, 1500.0 + 400.0 * k)))
    return [FrameRecord(pos, pos / 30.0, tuple(p)) for pos, p in enumerate(persons)]


def window_lines(stream_path: str, model_path: str) -> list[str]:
    """``repr((pair, p(A,B), p(B,A)))`` for every window ``stream`` classifies.

    The engine predicts only the orderings its bound leaves open, so both
    probabilities are computed here from the segment it cuts
    (``pipeline.pair_segment``), before its tracks move on, and each
    window's decision (``StreamEngine._classify``) is checked against them.
    """
    model = forest.load_model(model_path)
    engine = pipeline.StreamEngine(model, PipelineConfig())
    cut, lines = [], []
    segment_of, classify = pipeline.pair_segment, engine._classify

    def recording_segment(*args, **kwargs):
        cut.append(segment_of(*args, **kwargs))
        return cut[-1]

    def checked_classify(pair):
        decision = classify(pair)
        segment = cut.pop()
        p_ab, p_ba = (
            forest.predict_probability(model, features.extract_segment(s, engine.schema))
            for s in (segment, segment.swapped())
        )
        key = pipeline.pair_key_str(segment.aggressor.track_id, segment.victim.track_id)
        if decision[::2] != (key, int(max(p_ab, p_ba) >= engine.cfg.prob_threshold)):
            raise RuntimeError(f"decision {decision} disagrees with {p_ab!r}, {p_ba!r}")
        lines.append(repr((key, p_ab, p_ba)))
        return decision

    engine._classify = checked_classify
    pipeline.pair_segment = recording_segment
    try:
        for record in streams.iter_stream(stream_path):
            engine.process(record)
    finally:
        pipeline.pair_segment = segment_of
    return lines


def _keep_columns(src: str, rank_csv: str, dest: str) -> None:
    with open(rank_csv, encoding="utf-8", newline="") as fh:
        keep = [row["feature"] for row in csv.DictReader(fh)]
    with open(src, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    index = [rows[0].index(name) for name in ["segment_id", *keep]]
    with open(dest, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerows([[row[i] for i in index] for row in rows])


def digests(
    workdir: str, n_per_class: int = 12, n_trees: int = 100, rounds: int = 2
) -> dict[str, str]:
    """Artefact name -> SHA-256, for inputs of the given sizes built in ``workdir``."""

    def p(name: str) -> str:
        return os.path.join(workdir, name)

    corpus = p("corpus")
    _run(["simulate", "--out", corpus, "--n-per-class", str(n_per_class), "--seed", "0"])
    clips = sorted(os.path.join(corpus, f) for f in os.listdir(corpus) if f.endswith(".jsonl"))
    labels = os.path.join(corpus, "labels.csv")
    _run(["extract", "--streams", *clips, "--mode", "sliding", "--out", p("sliding.csv")])
    train = ["train", "--labels", labels, "--n-trees", str(n_trees), "--seed", "42"]
    _run([*train, "--features", p("sliding.csv"), "--model-out", p("full_model.json"),
          "--report", p("full_report.txt")])
    _run(["rank", "--model", p("full_model.json"), "--k", "10", "--out", p("rank.csv")])
    _keep_columns(p("sliding.csv"), p("rank.csv"), p("top.csv"))
    _run([*train, "--features", p("top.csv"), "--model-out", p("top_model.json"),
          "--report", p("top_report.txt")])

    files = ("sliding.csv", "full_model.json", "top_model.json")
    out = {name: _sha(p(name)) for name in files}
    for name, bystanders, model in (
        ("pair_stream", 0, "top_model.json"),
        ("crowd_stream", 6, "full_model.json"),
    ):
        stream = p(f"{name}.jsonl")
        streams.write_stream(stream, encounter_stream(seed=1, rounds=rounds, bystanders=bystanders))
        alerts, evidence = p(f"{name}.alerts.jsonl"), p(f"{name}.evidence.jsonl")
        _run(["stream", "--stream", stream, "--model", p(model), "--alerts-out", alerts,
              "--evidence-out", evidence])
        out[f"{name}.alerts"] = _sha(alerts)
        out[f"{name}.evidence"] = _sha(evidence)
        lines = "".join(line + "\n" for line in window_lines(stream, p(model)))
        out[f"{name}.windows"] = hashlib.sha256(lines.encode()).hexdigest()
    return out


def main() -> int:
    with tempfile.TemporaryDirectory() as workdir:
        for name, digest in digests(workdir).items():
            print(f"{digest}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
