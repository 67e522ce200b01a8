"""Command-line front end.

Subcommands:
    simulate  generate a synthetic corpus (streams, manifest, one label per window)
    extract   pose stream(s) -> feature CSV, one row per window that stream classifies
    train     feature CSV + labels -> model file + importance report
    rank      model file -> top-k importance table / reduced schema
    pca       feature CSV -> 2-component projection CSV
    stream    pose stream + model -> alert lines, evidence manifest

Exit codes: 0 ok, 2 malformed input (a count below 1 included) or a path
that cannot be read or written, 3 invalid training data, 4 schema mismatch,
5 alert sink unreachable. The subcommands raise; ``EXIT_CODES``, read by
``main``, is the one place that maps an error to its exit code.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import os
import sys
import time
from typing import Optional, Sequence

from . import features, forest, pipeline, streams
from .config import PipelineConfig, load_config
from .types import MalformedRecord

EXIT_OK = 0

SINK_RETRIES = 2
SINK_BACKOFF_S = 1.0


class SinkUnreachable(RuntimeError):
    pass


# The one place an error becomes an exit code: the first row whose errors
# match decides, and any other error is a defect that ends with a traceback.
EXIT_CODES = (
    ((MalformedRecord, OSError, UnicodeDecodeError, csv.Error), 2),  # malformed input
    (forest.MissingClass, 3),  # invalid training data
    (forest.SchemaMismatch, 4),  # the model's features and the input's differ
    (SinkUnreachable, 5),  # alert sink unreachable
)


def post_alert(url: str, record: dict) -> None:
    """POST one alert as JSON; ``SINK_RETRIES`` retries ``SINK_BACKOFF_S`` apart, then give up."""
    # imported here: urllib.request pulls in http.client, email and ssl,
    # which only a stream with a sink needs
    import urllib.error
    import urllib.request

    body = json.dumps(record).encode("utf-8")
    last: Optional[Exception] = None
    for attempt in range(SINK_RETRIES + 1):
        try:
            req = urllib.request.Request(
                url, data=body, headers={"Content-Type": "application/json"}
            )
            with urllib.request.urlopen(req, timeout=5):
                return
        except (urllib.error.URLError, OSError) as exc:
            last = exc
            if attempt < SINK_RETRIES:
                time.sleep(SINK_BACKOFF_S)
    raise SinkUnreachable(f"alert sink {url} unreachable: {last}")


def _config_from_args(args: argparse.Namespace) -> PipelineConfig:
    overrides = {}
    for name in ("fps", "n_trees", "seed", "sink_url", "prob_threshold"):
        if hasattr(args, name):
            overrides[name] = getattr(args, name)
    return load_config(getattr(args, "config", None), overrides)


def _read_labels(path: str) -> dict[str, int]:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header[:2]] != ["id", "label"]:
            raise MalformedRecord("labels CSV must have an 'id,label' header")
        labels: dict[str, int] = {}
        lines: dict[str, int] = {}
        for row in reader:
            if not row:
                continue
            try:
                label = int(row[1])
            except (IndexError, ValueError):
                raise MalformedRecord(
                    f"labels CSV line {reader.line_num}: need an id and an integer label, got {row}"
                ) from None
            if row[0] in labels:
                raise MalformedRecord(f"labels CSV line {reader.line_num}: id {row[0]!r}"
                                      f" is labelled on line {lines[row[0]]} already")
            labels[row[0]], lines[row[0]] = label, reader.line_num
        return labels


# ---------------------------------------------------------------------------
# subcommands
#
# numpy, synth and selection are imported by the subcommands that use them,
# so that a stream process never loads them


def cmd_simulate(args: argparse.Namespace) -> int:
    from . import synth

    clips = synth.generate_corpus(
        n_per_class=args.n_per_class, total=args.total, seed=args.seed,
        duration=args.duration, fps=args.fps, noise_sigma=args.noise_sigma,
    )
    # one label per window that ``extract`` cuts at this frame rate
    cfg = PipelineConfig(fps=args.fps)
    os.makedirs(args.out, exist_ok=True)
    manifest = []
    labels_rows = []
    for clip in clips:
        fname = f"{clip.clip_id}.jsonl"
        streams.write_stream(os.path.join(args.out, fname), clip.frames)
        manifest.append({
            "file": fname, "clip_id": clip.clip_id, "kind": clip.spec.kind, "label": clip.label,
            "seed": clip.spec.seed, "event_time_s": clip.event_time, "aggressor_id": clip.aggressor_id,
        })
        labels_rows.extend(synth.window_labels(clip, cfg))
    with open(os.path.join(args.out, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump({"clips": manifest}, fh, indent=2, sort_keys=True)
        fh.write("\n")
    with open(os.path.join(args.out, "labels.csv"), "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerows([("id", "label"), *labels_rows])
    print(f"wrote {len(clips)} clips to {args.out}")
    return EXIT_OK


def cmd_extract(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args)
    schema = features.full_schema()
    stems: dict[str, str] = {}  # a stream's rows are named after its file's stem
    for path in args.streams:
        stem = os.path.splitext(os.path.basename(path))[0]
        if stem in stems:
            raise MalformedRecord(f"streams {stems[stem]} and {path} share the stem {stem!r},"
                                  " so their rows would share ids")
        stems[stem] = path
    rows: list[tuple[str, list[float]]] = []
    for stem, path in stems.items():
        frames = streams.read_stream(path, fps=cfg.fps)
        rows.extend(pipeline.extract_windows(frames, cfg, schema, stream_id=stem))
    features.write_feature_csv(sys.stdout if args.out == "-" else args.out, rows, schema)
    print(f"extracted {len(rows)} segments", file=sys.stderr)
    return EXIT_OK


def _format_importance_report(ranked: Sequence[tuple[str, float]]) -> str:
    """Two-column rank table, importances scaled to 10^-2."""
    half = (len(ranked) + 1) // 2
    left = ranked[:half]
    right = ranked[half:]
    width = max((len(name) for name, _ in ranked), default=10) + 2
    lines = [
        "Top features ranked by forest importance (Imp. x 10^-2)",
        f"{'Rank':<6}{'Feature':<{width}}{'Imp.':<10}{'Rank':<6}{'Feature':<{width}}{'Imp.':<10}",
    ]
    for i in range(half):
        rank_l, (name_l, imp_l) = i + 1, left[i]
        cell = f"{rank_l:<6}{name_l:<{width}}{100 * imp_l:<10.3f}"
        if i < len(right):
            rank_r, (name_r, imp_r) = half + i + 1, right[i]
            cell += f"{rank_r:<6}{name_r:<{width}}{100 * imp_r:<10.3f}"
        lines.append(cell.rstrip())
    return "\n".join(lines)


def cmd_train(args: argparse.Namespace) -> int:
    import numpy as np

    from . import selection

    cfg = _config_from_args(args)
    names, ids, values = features.read_feature_csv(args.features)
    labels = _read_labels(args.labels)
    # a header-only CSV stays 2-d (no rows), so it fails as an empty dataset
    matrix = np.frombuffer(values, dtype=np.float64).reshape(len(ids), len(names))
    matched = [i for i, sid in enumerate(ids) if sid in labels]
    if len(matched) < len(ids):
        print(f"warning: {len(ids) - len(matched)} rows lack labels", file=sys.stderr)
        matrix = matrix[matched]
    dataset = forest.Dataset(
        feature_names=tuple(names),
        X=matrix,
        y=np.array([labels[ids[i]] for i in matched]),
        ids=tuple(ids[i] for i in matched),
    )
    model = forest.train(dataset, cfg.forest())
    forest.save_model(model, args.model_out)
    accuracy = forest.training_accuracy(model, dataset)
    schema = features.FeatureSchema(tuple(names))
    ranked = selection.select_top_k(schema, model.importances, min(cfg.top_k, len(names)))
    report = _format_importance_report(ranked.ranked)
    report += f"\n\ntraining samples: {len(dataset)}  training accuracy: {accuracy:.4f}\n"
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(report)
    else:
        print(report)
    return EXIT_OK


def cmd_rank(args: argparse.Namespace) -> int:
    from . import selection

    model = forest.load_model(args.model)
    schema = features.FeatureSchema(model.feature_names)
    result = selection.select_top_k(schema, model.importances, args.k)
    print(_format_importance_report(result.ranked))
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["rank", "feature", "importance"])
            for i, (name, imp) in enumerate(result.ranked, start=1):
                writer.writerow([i, name, repr(imp)])
    return EXIT_OK


def cmd_pca(args: argparse.Namespace) -> int:
    import numpy as np

    from . import selection

    names, ids, values = features.read_feature_csv(args.features)
    labels = None
    if args.labels:
        table = _read_labels(args.labels)
        labels = [table.get(sid, "") for sid in ids]
    # a header-only CSV stays 2-d (no rows), so it fails as too few samples
    matrix = np.frombuffer(values, dtype=np.float64).reshape(len(ids), len(names))
    result = selection.pca_project(matrix, n_components=args.components)
    selection.write_pca_csv(sys.stdout if args.out == "-" else args.out, result, ids, labels)
    ratios = ", ".join(f"{r:.4f}" for r in result.explained_variance_ratio)
    print(f"explained variance ratios: {ratios}", file=sys.stderr)
    return EXIT_OK


def _json_line(obj: dict) -> str:
    return json.dumps(obj, separators=(",", ":")) + "\n"


def cmd_stream(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args)
    model = forest.load_model(args.model)

    source = args.stream
    if source == "-":
        # UTF-8 whatever the locale, bad bytes kept so the decoder rejects their line
        sys.stdin.reconfigure(encoding="utf-8", errors="surrogateescape")
        source = sys.stdin
    started = time.perf_counter()
    events = 0
    # the files are closed whether the run ends or raises
    with contextlib.ExitStack() as files:
        alerts_out = sys.stdout
        if args.alerts_out not in (None, "-"):
            alerts_out = files.enter_context(open(args.alerts_out, "w", encoding="utf-8"))
        evidence_out = None
        if args.evidence_out:
            evidence_out = files.enter_context(open(args.evidence_out, "w", encoding="utf-8"))
        engine = pipeline.StreamEngine(model, cfg)
        for record in streams.iter_stream(source, fps=cfg.fps):
            alerts = engine.process(record)
            events += len(alerts)
            if evidence_out is not None:
                # as each activation happens, so a run that stops later keeps it
                for alert in alerts:
                    if alert.evidence is not None:
                        evidence_out.write(_json_line(alert.evidence))
            for alert in alerts:
                obj = alert.to_obj()
                alerts_out.write(_json_line(obj))
                if cfg.sink_url:
                    post_alert(cfg.sink_url, obj)
    elapsed = time.perf_counter() - started

    rate = engine.frames_processed / elapsed if elapsed > 0 else float("inf")
    print(
        f"processed {engine.frames_processed} frames in {elapsed:.3f}s "
        f"({rate:.1f} frames/s), {events} events",
        file=sys.stderr,
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="snatchdet",
        description="Snatch-and-run robbery detection over pose keypoint streams.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="JSON config file (flags override file values)")

    p = sub.add_parser("simulate", help="generate a synthetic corpus labelled per window")
    p.add_argument("--out", required=True, help="output directory")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--n-per-class", type=int, help="balanced corpus size per class")
    group.add_argument("--total", type=int, help="total clips at the 29:61 class ratio")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--duration", type=float, default=6.0)
    p.add_argument("--fps", type=float, default=30.0)
    p.add_argument("--noise-sigma", type=float, default=1.5)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("extract", help="pose streams -> feature CSV")
    p.add_argument("--streams", nargs="+", required=True, help="stream JSONL file(s)")
    p.add_argument("--out", required=True, help="output CSV path, or - for stdout")
    p.add_argument("--mode", choices=("sliding",), default="sliding", help="the only row view")
    p.add_argument("--fps", type=float, default=None)
    add_config(p)
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("train", help="feature CSV + labels -> forest model")
    p.add_argument("--features", required=True)
    p.add_argument("--labels", required=True, help="CSV with id,label header")
    p.add_argument("--model-out", required=True)
    p.add_argument("--report", help="write the importance report here instead of stdout")
    p.add_argument("--n-trees", type=int, default=None, dest="n_trees")
    p.add_argument("--seed", type=int, default=None)
    add_config(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("rank", help="print a model's top-k feature table")
    p.add_argument("--model", required=True)
    p.add_argument("--k", type=int, default=10)
    p.add_argument("--out", help="optional CSV output")
    p.set_defaults(func=cmd_rank)

    p = sub.add_parser("pca", help="feature CSV -> 2-component projection CSV")
    p.add_argument("--features", required=True)
    p.add_argument("--labels", help="optional labels CSV to tag rows")
    p.add_argument("--out", required=True, help="output CSV path, or - for stdout")
    p.add_argument("--components", type=int, default=2)
    p.set_defaults(func=cmd_pca)

    p = sub.add_parser("stream", help="detect events over a pose stream")
    p.add_argument("--stream", required=True, help="stream JSONL path, or - for stdin")
    p.add_argument("--model", required=True)
    p.add_argument("--alerts-out", help="alert JSONL path (default stdout)")
    p.add_argument("--evidence-out", help="evidence manifest JSONL path")
    p.add_argument("--sink-url", default=None, help="POST each alert to this URL")
    p.add_argument("--prob-threshold", type=float, default=None, dest="prob_threshold")
    p.add_argument("--fps", type=float, default=None)
    add_config(p)
    p.set_defaults(func=cmd_stream)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:
        code = next((code for errors, code in EXIT_CODES if isinstance(exc, errors)), None)
        if code is None:
            raise
        print(f"error: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
