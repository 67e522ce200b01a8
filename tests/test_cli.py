"""End-to-end CLI flows: simulate -> extract -> train -> rank/pca/stream."""

import csv
import json
import os
import subprocess
import sys
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

from conftest import skeleton_from_keypoints
from snatchdet import cli, features, forest, streams, synth
from test_forest import NOT_WRITTEN_BACK, edit_not_written_back


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus")
    rc = cli.main(
        [
            "simulate",
            "--out", str(out),
            "--n-per-class", "6",
            "--seed", "3",
            "--duration", "4.0",
            "--noise-sigma", "1.0",
        ]
    )
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def trained(corpus_dir, tmp_path_factory):
    """Features CSV + model trained on the small corpus."""
    work = tmp_path_factory.mktemp("trained")
    manifest = json.loads((corpus_dir / "manifest.json").read_text())
    stream_files = [str(corpus_dir / c["file"]) for c in manifest["clips"]]
    features_csv = work / "features.csv"
    rc = cli.main(
        ["extract", "--streams", *stream_files, "--out", str(features_csv), "--mode", "clip"]
    )
    assert rc == 0
    model_path = work / "model.json"
    report_path = work / "report.txt"
    rc = cli.main(
        [
            "train",
            "--features", str(features_csv),
            "--labels", str(corpus_dir / "labels.csv"),
            "--model-out", str(model_path),
            "--report", str(report_path),
            "--n-trees", "60",
        ]
    )
    assert rc == 0
    return {"features": features_csv, "model": model_path, "report": report_path, "dir": work}


class TestSimulate:
    def test_manifest_contents(self, corpus_dir):
        manifest = json.loads((corpus_dir / "manifest.json").read_text())
        assert len(manifest["clips"]) == 12
        assert sum(c["label"] for c in manifest["clips"]) == 6
        for entry in manifest["clips"]:
            assert (corpus_dir / entry["file"]).exists()
            assert "seed" in entry
        snatches = [c for c in manifest["clips"] if c["kind"] == "snatch"]
        assert all(c["event_time_s"] is not None for c in snatches)

    def test_labels_csv(self, corpus_dir):
        with open(corpus_dir / "labels.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["id", "label"]
        assert len(rows) == 13

    def test_total_splits_29_to_61(self, tmp_path):
        rc = cli.main(
            ["simulate", "--out", str(tmp_path), "--total", "90", "--seed", "5", "--duration", "1.0"]
        )
        assert rc == 0
        with open(tmp_path / "labels.csv", newline="") as fh:
            labels = [row[1] for row in csv.reader(fh)][1:]
        assert (labels.count("1"), labels.count("0")) == (29, 61)

    @pytest.mark.parametrize(
        "flags, message",
        [(["--total", "1"], "total must be >= 2"), (["--n-per-class", "0"], "n_per_class must be >= 1")],
    )
    def test_count_out_of_range_exits_2(self, tmp_path, capsys, flags, message):
        out = tmp_path / "corpus"
        rc = cli.main(["simulate", "--out", str(out), *flags])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()


# a frame line that starts with two bytes that are not UTF-8
NOT_UTF8_LINE = b'\xff\xfe{"frame_index": 100000, "persons": []}\n'
NOT_UTF8_ERROR = "error: invalid JSON line: str is not valid UTF-8"


def _snatch_stream(tmp_path):
    """A stream file whose frames raise alerts."""
    clip = synth.generate(synth.ScenarioSpec(kind="snatch", seed=501, noise_sigma=1.0, duration=5.0))
    path = tmp_path / "snatch.jsonl"
    streams.write_stream(str(path), clip.frames)
    return path


class TestExtract:
    def test_clip_rows_match_corpus(self, corpus_dir, trained):
        names, rows = features.read_feature_csv(str(trained["features"]))
        assert len(rows) == 12
        assert names == list(features.full_schema().names)
        by_id = dict(rows)
        manifest = json.loads((corpus_dir / "manifest.json").read_text())
        for entry in manifest["clips"]:
            vals = by_id[entry["clip_id"]]
            if entry["kind"] == "snatch":
                assert vals["handToTorso_min"] < 0.3
            elif entry["kind"] == "standing":
                # median is robust to the center jumps that confidence
                # dropout causes on single frames
                assert vals["A_velocity_median"] < 0.5

    def test_sliding_mode_emits_windows(self, corpus_dir, tmp_path):
        manifest = json.loads((corpus_dir / "manifest.json").read_text())
        stream = str(corpus_dir / manifest["clips"][0]["file"])
        out = tmp_path / "windows.csv"
        rc = cli.main(["extract", "--streams", stream, "--out", str(out)])
        assert rc == 0
        names, rows = features.read_feature_csv(str(out))
        # 4 s at 30 fps, 2 s window, 0.5 s stride -> ends at 59, 74, ..., 119
        assert len(rows) == 5
        assert all("#" in sid for sid, _ in rows)

    def test_empty_stream_gives_header_only(self, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        out = tmp_path / "empty.csv"
        rc = cli.main(["extract", "--streams", str(empty), "--out", str(out)])
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("segment_id,")

    def test_malformed_stream_exits_2(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"frame_index": 0, "timestamp_s": 0.0, "persons": [{"track_id": 1}]}\n')
        rc = cli.main(["extract", "--streams", str(bad), "--out", str(tmp_path / "x.csv")])
        assert rc == 2

    def test_line_not_valid_utf8_exits_2(self, corpus_dir, tmp_path, capsys):
        manifest = json.loads((corpus_dir / "manifest.json").read_text())
        good = (corpus_dir / manifest["clips"][0]["file"]).read_bytes()
        bad = tmp_path / "bad.jsonl"
        bad.write_bytes(good + NOT_UTF8_LINE)
        out = tmp_path / "x.csv"
        rc = cli.main(["extract", "--streams", str(bad), "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err.startswith(NOT_UTF8_ERROR)
        assert not out.exists()

    def test_deeply_nested_line_exits_2_not_a_crash(self, tmp_path):
        """A line millions of levels deep is a malformed record, not a stack overflow."""
        bad = tmp_path / "deep.jsonl"
        depth = 3_000_000
        bad.write_text('{"frame_index": 0, "persons": []}\n' + "[" * depth + "]" * depth + "\n")
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        argv = ["extract", "--streams", str(bad), "--out", str(tmp_path / "x.csv")]
        done = subprocess.run(
            [sys.executable, "-m", "snatchdet.cli", *argv], env=env, capture_output=True, text=True
        )
        assert done.returncode == 2, done.stderr[-500:]
        assert "nested deeper" in done.stderr

    def test_extract_is_byte_deterministic(self, corpus_dir, tmp_path):
        manifest = json.loads((corpus_dir / "manifest.json").read_text())
        stream = str(corpus_dir / manifest["clips"][0]["file"])
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        assert cli.main(["extract", "--streams", stream, "--out", str(first)]) == 0
        assert cli.main(["extract", "--streams", stream, "--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()


class TestTrain:
    def test_model_file_and_report(self, trained):
        model = forest.load_model(str(trained["model"]))
        assert len(model.trees) == 60
        report = trained["report"].read_text()
        assert "Rank" in report and "training accuracy" in report

    def test_retrain_is_byte_identical(self, corpus_dir, trained, tmp_path):
        again = tmp_path / "model2.json"
        rc = cli.main(
            [
                "train",
                "--features", str(trained["features"]),
                "--labels", str(corpus_dir / "labels.csv"),
                "--model-out", str(again),
                "--n-trees", "60",
            ]
        )
        assert rc == 0
        assert again.read_bytes() == trained["model"].read_bytes()

    def test_single_class_exits_3(self, corpus_dir, trained, tmp_path):
        labels = tmp_path / "labels.csv"
        with open(corpus_dir / "labels.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        with open(labels, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(rows[0])
            for sid, _ in rows[1:]:
                writer.writerow([sid, 0])
        rc = cli.main(
            [
                "train",
                "--features", str(trained["features"]),
                "--labels", str(labels),
                "--model-out", str(tmp_path / "m.json"),
                "--n-trees", "4",
            ]
        )
        assert rc == 3

    def test_no_feature_columns_exits_2(self, corpus_dir, tmp_path, capsys):
        with open(corpus_dir / "labels.csv", newline="") as fh:
            ids = [row[0] for row in csv.reader(fh)][1:]
        only_ids = tmp_path / "ids.csv"
        only_ids.write_text("segment_id\n" + "".join(f"{sid}\n" for sid in ids))
        rc = cli.main(
            [
                "train",
                "--features", str(only_ids),
                "--labels", str(corpus_dir / "labels.csv"),
                "--model-out", str(tmp_path / "m.json"),
                "--n-trees", "4",
            ]
        )
        assert rc == 2
        assert capsys.readouterr().err == "error: dataset has no feature columns\n"

    def test_header_only_csv_exits_3(self, corpus_dir, trained, tmp_path, capsys):
        header = trained["features"].read_text().splitlines()[0]
        empty = tmp_path / "header.csv"
        empty.write_text(header + "\n")
        rc = cli.main(
            [
                "train",
                "--features", str(empty),
                "--labels", str(corpus_dir / "labels.csv"),
                "--model-out", str(tmp_path / "m.json"),
                "--n-trees", "4",
            ]
        )
        assert rc == 3
        assert capsys.readouterr().err == "error: empty dataset\n"


class TestMalformedLabels:
    """A bad labels CSV is a malformed input: exit 2, for train and pca alike."""

    @pytest.mark.parametrize(
        "command, text",
        [
            ("pca", "clip,kind\nclip0000_snatch,1\n"),
            ("pca", "id,label\nclip0000_snatch,notanint\n"),
            ("train", "id,label\nclip0000_snatch\n"),
        ],
        ids=["pca-wrong-header", "pca-non-integer-label", "train-one-field-row"],
    )
    def test_exits_2(self, trained, tmp_path, capsys, command, text):
        labels = tmp_path / "labels.csv"
        labels.write_text(text)
        out = ["--out", str(tmp_path / "pca.csv")] if command == "pca" else [
            "--model-out", str(tmp_path / "m.json"), "--n-trees", "4"
        ]
        rc = cli.main(
            [command, "--features", str(trained["features"]), "--labels", str(labels), *out]
        )
        assert rc == 2
        assert "labels CSV" in capsys.readouterr().err


class TestFeatureCsvRowLength:
    """A feature CSV row with fewer fields than its header is malformed: exit 2."""

    @pytest.mark.parametrize("command", ["train", "pca"])
    def test_short_row_exits_2(self, corpus_dir, trained, tmp_path, capsys, command):
        lines = trained["features"].read_text().splitlines()
        lines[2] = lines[2].rsplit(",", 1)[0]
        short = tmp_path / "short.csv"
        short.write_text("\n".join(lines) + "\n")
        out = ["--out", str(tmp_path / "pca.csv")] if command == "pca" else [
            "--labels", str(corpus_dir / "labels.csv"),
            "--model-out", str(tmp_path / "m.json"), "--n-trees", "4",
        ]
        rc = cli.main([command, "--features", str(short), *out])
        assert rc == 2
        assert "feature CSV line 3" in capsys.readouterr().err


class TestRank:
    def test_table_has_k_rows(self, trained, tmp_path, capsys):
        out = tmp_path / "rank.csv"
        rc = cli.main(["rank", "--model", str(trained["model"]), "--k", "10", "--out", str(out)])
        assert rc == 0
        printed = capsys.readouterr().out
        assert "Rank" in printed
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 11  # header + 10
        assert rows[0] == ["rank", "feature", "importance"]


class TestUnloadableModel:
    """A model file that deserialize rejects: rank prints an error line and exits 2."""

    @pytest.mark.parametrize("case", ["deep_array", "long_integer", "other_recipe"])
    def test_rank_exits_2(self, trained, tmp_path, capsys, case):
        if case == "deep_array":
            text = "[" * 100_000 + "]" * 100_000
        elif case == "long_integer":
            text = "9" * 5_000
        else:
            doc = json.loads(trained["model"].read_text())
            doc["config"]["max_depth"] = 3
            text = json.dumps(doc)
        model = tmp_path / "model.json"
        model.write_text(text)
        rc = cli.main(["rank", "--model", str(model)])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert (case == "other_recipe") == ("max_depth" in captured.err)

    @pytest.mark.parametrize("case", ["version_true", "unknown_key", "n_trees"])
    def test_rank_exits_2_on_a_document_not_written_back_unchanged(
        self, trained, tmp_path, capsys, case
    ):
        doc = json.loads(trained["model"].read_text())
        if case == "version_true":
            doc["version"] = True
        elif case == "unknown_key":
            doc["trees"][0]["comment"] = "dropped on load"
        else:
            doc["config"]["n_trees"] += 1
        model = tmp_path / "model.json"
        model.write_text(json.dumps(doc))
        rc = cli.main(["rank", "--model", str(model)])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")


    @pytest.mark.parametrize("case", sorted(NOT_WRITTEN_BACK))
    def test_rank_exits_2_on_a_value_written_back_otherwise(self, trained, tmp_path, capsys, case):
        doc = json.loads(trained["model"].read_text())
        # a root split on feature 1, so that True stands for a valid index
        doc["trees"][0]["feature"][0] = 1
        model = tmp_path / "model.json"
        model.write_text(json.dumps(edit_not_written_back(doc, case)))
        rc = cli.main(["rank", "--model", str(model)])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert NOT_WRITTEN_BACK[case] in captured.err


class TestRemovedFlags:
    """Flags that set nothing are not defined: argparse exits 2."""

    @pytest.mark.parametrize(
        "argv", [["pca", "--config", "x"], ["pca", "--fps", "30"], ["train", "--fps", "30"]]
    )
    def test_exits_2(self, corpus_dir, trained, tmp_path, capsys, argv):
        required = {
            "pca": ["--features", str(trained["features"]), "--out", str(tmp_path / "pca.csv")],
            "train": ["--features", str(trained["features"]), "--labels", str(corpus_dir / "labels.csv"),
                      "--model-out", str(tmp_path / "m.json")],
        }[argv[0]]
        with pytest.raises(SystemExit) as exc:
            cli.main([*argv, *required])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(argv[1:])}" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())


class TestPcaCommand:
    def test_projection_csv(self, corpus_dir, trained, tmp_path):
        out = tmp_path / "pca.csv"
        rc = cli.main(
            [
                "pca",
                "--features", str(trained["features"]),
                "--labels", str(corpus_dir / "labels.csv"),
                "--out", str(out),
            ]
        )
        assert rc == 0
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["sample_id", "pc1", "pc2", "label"]
        assert len(rows) == 13

    def test_header_only_csv_exits_2(self, trained, tmp_path, capsys):
        header = trained["features"].read_text().splitlines()[0]
        empty = tmp_path / "header.csv"
        empty.write_text(header + "\n")
        rc = cli.main(["pca", "--features", str(empty), "--out", str(tmp_path / "pca.csv")])
        assert rc == 2
        assert capsys.readouterr().err == "error: PCA needs at least 2 samples, got 0\n"


class TestCountBelowOne:
    """A feature or component count below 1, from a flag or a config file: exit 2."""

    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_rank_k(self, trained, capsys, value):
        rc = cli.main(["rank", "--model", str(trained["model"]), "--k", value])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: k must be at least 1, got {value}\n"

    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_pca_components(self, trained, tmp_path, capsys, value):
        out = tmp_path / "pca.csv"
        rc = cli.main(
            ["pca", "--features", str(trained["features"]), "--out", str(out), "--components", value]
        )
        assert rc == 2
        assert not out.exists()
        assert capsys.readouterr().err == f"error: n_components must be at least 1, got {value}\n"

    @pytest.mark.parametrize("value", [0, -1])
    def test_config_top_k(self, corpus_dir, trained, tmp_path, capsys, value):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"top_k": value}))
        model = tmp_path / "m.json"
        rc = cli.main(
            ["train", "--features", str(trained["features"]), "--labels", str(corpus_dir / "labels.csv"),
             "--model-out", str(model), "--n-trees", "4", "--config", str(cfg_path)]
        )
        assert rc == 2
        assert not model.exists()
        assert capsys.readouterr().err == f"error: top_k must be at least 1, got {value}\n"


class TestStream:
    def test_snatch_activates(self, corpus_dir, trained, tmp_path):
        clip = synth.generate(synth.ScenarioSpec(kind="snatch", seed=501, noise_sigma=1.0, duration=5.0))
        stream_path = tmp_path / "snatch.jsonl"
        streams.write_stream(str(stream_path), clip.frames)
        alerts_path = tmp_path / "alerts.jsonl"
        evidence_path = tmp_path / "evidence.jsonl"
        rc = cli.main(
            [
                "stream",
                "--stream", str(stream_path),
                "--model", str(trained["model"]),
                "--alerts-out", str(alerts_path),
                "--evidence-out", str(evidence_path),
            ]
        )
        assert rc == 0
        alerts = [json.loads(line) for line in alerts_path.read_text().splitlines()]
        assert any(a["kind"] == "activated" for a in alerts)
        manifests = [json.loads(line) for line in evidence_path.read_text().splitlines()]
        assert len(manifests) == sum(1 for a in alerts if a["kind"] == "activated")
        for m in manifests:
            assert m["start_s"] < m["trigger_s"] <= m["end_s"]

    def test_standing_stays_silent(self, trained, tmp_path):
        clip = synth.generate(synth.ScenarioSpec(kind="standing", seed=502, noise_sigma=1.0, duration=5.0))
        stream_path = tmp_path / "standing.jsonl"
        streams.write_stream(str(stream_path), clip.frames)
        alerts_path = tmp_path / "alerts.jsonl"
        rc = cli.main(
            ["stream", "--stream", str(stream_path), "--model", str(trained["model"]),
             "--alerts-out", str(alerts_path)]
        )
        assert rc == 0
        assert alerts_path.read_text() == ""

    def test_single_person_stream_no_events(self, trained, tmp_path):
        clip = synth.generate(synth.ScenarioSpec(kind="standing", seed=9, duration=3.0))
        solo = [
            type(f)(frame_index=f.frame_index, timestamp=f.timestamp, persons=f.persons[:1])
            for f in clip.frames
        ]
        stream_path = tmp_path / "solo.jsonl"
        streams.write_stream(str(stream_path), solo)
        alerts_path = tmp_path / "alerts.jsonl"
        rc = cli.main(
            ["stream", "--stream", str(stream_path), "--model", str(trained["model"]),
             "--alerts-out", str(alerts_path)]
        )
        assert rc == 0
        assert alerts_path.read_text() == ""

    def test_zero_area_first_box_runs_to_the_end(self, trained, tmp_path):
        clip = synth.generate(synth.ScenarioSpec(kind="snatch", seed=503, noise_sigma=1.0, duration=4.0))
        first = clip.frames[0]
        tid, skel = first.persons[0]
        x1, y1, _, y2 = skel.bbox
        flat = skeleton_from_keypoints(skel.keypoints, (x1, y1, x1, y2))
        frames = [type(first)(first.frame_index, first.timestamp, ((tid, flat),) + first.persons[1:])]
        frames += clip.frames[1:]
        stream_path = tmp_path / "flat.jsonl"
        streams.write_stream(str(stream_path), frames)
        rc = cli.main(
            ["stream", "--stream", str(stream_path), "--model", str(trained["model"]),
             "--alerts-out", str(tmp_path / "alerts.jsonl")]
        )
        assert rc == 0

    def test_line_not_valid_utf8_exits_2_after_the_earlier_alerts(self, trained, tmp_path, capsys):
        good = _snatch_stream(tmp_path)
        want = tmp_path / "want.jsonl"
        assert cli.main(["stream", "--stream", str(good), "--model", str(trained["model"]),
                         "--alerts-out", str(want)]) == 0
        assert want.read_text()
        capsys.readouterr()
        bad = tmp_path / "bad.jsonl"
        bad.write_bytes(good.read_bytes() + NOT_UTF8_LINE)
        got = tmp_path / "got.jsonl"
        rc = cli.main(["stream", "--stream", str(bad), "--model", str(trained["model"]),
                       "--alerts-out", str(got)])
        assert rc == 2
        assert capsys.readouterr().err.startswith(NOT_UTF8_ERROR)
        assert got.read_bytes() == want.read_bytes()

    @pytest.mark.parametrize("stop", ["malformed line", "unreachable sink"])
    def test_evidence_of_an_activation_is_kept_when_the_run_stops_later(
        self, trained, tmp_path, monkeypatch, stop
    ):
        monkeypatch.setattr(cli.time, "sleep", lambda s: None)  # skip the retry backoff
        good = _snatch_stream(tmp_path)
        argv = ["stream", "--model", str(trained["model"]),
                "--alerts-out", str(tmp_path / "alerts.jsonl")]
        want = tmp_path / "want.jsonl"
        assert cli.main([*argv, "--stream", str(good), "--evidence-out", str(want)]) == 0
        assert want.read_text()
        got = tmp_path / "got.jsonl"
        if stop == "malformed line":
            bad = tmp_path / "bad.jsonl"
            bad.write_bytes(good.read_bytes() + b'{"frame_index": 9999, "persons": 5}\n')
            rc = cli.main([*argv, "--stream", str(bad), "--evidence-out", str(got)])
            assert rc == 2
            assert got.read_bytes() == want.read_bytes()
        else:
            # the first activation's post fails; its evidence line is already written
            rc = cli.main([*argv, "--stream", str(good), "--evidence-out", str(got),
                           "--sink-url", "http://127.0.0.1:9/unreachable"])
            assert rc == 5
            assert got.read_text() == want.read_text().splitlines(keepends=True)[0]

    # a strict UTF-8 stdin raised UnicodeDecodeError; latin-1 decodes every byte
    @pytest.mark.parametrize("encoding", ["utf-8:strict", "latin-1"])
    def test_stdin_line_not_valid_utf8_exits_2_after_the_earlier_alerts(
        self, trained, tmp_path, encoding
    ):
        good = _snatch_stream(tmp_path).read_bytes()
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
                   PYTHONIOENCODING=encoding)
        argv = [sys.executable, "-m", "snatchdet.cli", "stream", "--stream", "-",
                "--model", str(trained["model"])]
        want = subprocess.run(argv, input=good, env=env, capture_output=True)
        assert want.returncode == 0 and want.stdout
        got = subprocess.run(argv, input=good + NOT_UTF8_LINE, env=env, capture_output=True)
        assert got.returncode == 2, got.stderr[-500:]
        assert got.stderr.decode().startswith(NOT_UTF8_ERROR)
        assert got.stdout == want.stdout

    def test_missing_stream_file_exits_2(self, trained, tmp_path, capsys):
        missing = tmp_path / "nope.jsonl"
        rc = cli.main(["stream", "--stream", str(missing), "--model", str(trained["model"])])
        assert rc == 2
        assert "nope.jsonl" in capsys.readouterr().err

    def test_huge_coordinate_exits_2(self, corpus_dir, trained, tmp_path, capsys):
        manifest = json.loads((corpus_dir / "manifest.json").read_text())
        lines = (corpus_dir / manifest["clips"][0]["file"]).read_text().splitlines()
        obj = json.loads(lines[5])
        obj["persons"][0]["keypoints"][0][0] = 1e200  # the nose x
        lines[5] = json.dumps(obj)
        stream_path = tmp_path / "huge.jsonl"
        stream_path.write_text("\n".join(lines) + "\n")
        rc = cli.main(["stream", "--stream", str(stream_path), "--model", str(trained["model"])])
        assert rc == 2
        assert "keypoint 0 x" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("timestamp_s", "abc", "bad frame object"),
            ("timestamp_s", [1], "bad frame object"),
            ("frame_index", True, "frame_index must be a nonnegative integer"),
        ],
    )
    def test_bad_frame_field_exits_2(self, corpus_dir, trained, tmp_path, capsys, field, value, message):
        manifest = json.loads((corpus_dir / "manifest.json").read_text())
        lines = (corpus_dir / manifest["clips"][0]["file"]).read_text().splitlines()
        obj = json.loads(lines[5])
        obj[field] = value
        lines[5] = json.dumps(obj)
        stream_path = tmp_path / "bad_field.jsonl"
        stream_path.write_text("\n".join(lines) + "\n")
        rc = cli.main(["stream", "--stream", str(stream_path), "--model", str(trained["model"])])
        assert rc == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["stream", "extract"])
    @pytest.mark.parametrize(
        "where, value",
        [("timestamp_s", True), ("keypoint", "1.5"), ("keypoint", False), ("bbox", "0")],
    )
    def test_string_or_boolean_number_exits_2(
        self, corpus_dir, trained, tmp_path, capsys, command, where, value
    ):
        manifest = json.loads((corpus_dir / "manifest.json").read_text())
        lines = (corpus_dir / manifest["clips"][0]["file"]).read_text().splitlines()
        obj = json.loads(lines[5])
        if where == "timestamp_s":
            obj["timestamp_s"] = value
        elif where == "keypoint":
            obj["persons"][0]["keypoints"][3][1] = value
        else:
            obj["persons"][0]["bbox"][2] = value
        lines[5] = json.dumps(obj)
        stream_path = tmp_path / "not_a_number.jsonl"
        stream_path.write_text("\n".join(lines) + "\n")
        if command == "stream":
            argv = ["stream", "--stream", str(stream_path), "--model", str(trained["model"])]
        else:
            argv = ["extract", "--streams", str(stream_path), "--out", str(tmp_path / "x.csv")]
        assert cli.main(argv) == 2
        assert "must be a number" in capsys.readouterr().err

    def test_corrupt_model_exits_2(self, trained, tmp_path):
        doc = json.loads(trained["model"].read_text())
        doc["trees"][0]["feature"][0] = len(doc["schema"])
        bad_model = tmp_path / "bad_model.json"
        bad_model.write_text(json.dumps(doc, sort_keys=True, separators=(",", ":")))
        clip = synth.generate(synth.ScenarioSpec(kind="snatch", seed=12, duration=3.0))
        stream_path = tmp_path / "s.jsonl"
        streams.write_stream(str(stream_path), clip.frames)
        rc = cli.main(["stream", "--stream", str(stream_path), "--model", str(bad_model)])
        assert rc == 2

    def test_schema_mismatch_exits_4(self, trained, tmp_path):
        doc = json.loads(trained["model"].read_text())
        doc["schema"] = ["not_a_real_feature"] + doc["schema"][1:]
        bad_model = tmp_path / "bad_model.json"
        bad_model.write_text(json.dumps(doc, sort_keys=True, separators=(",", ":")))
        clip = synth.generate(synth.ScenarioSpec(kind="standing", seed=12, duration=2.0))
        stream_path = tmp_path / "s.jsonl"
        streams.write_stream(str(stream_path), clip.frames)
        rc = cli.main(["stream", "--stream", str(stream_path), "--model", str(bad_model)])
        assert rc == 4


class TestOutputPathErrors:
    """An output path in a missing directory is an error line and exit 2."""

    @pytest.mark.parametrize(
        "case",
        [
            "stream --alerts-out",
            "stream --evidence-out",
            "extract --out",
            "rank --out",
            "pca --out",
            "train --model-out",
            "train --report",
        ],
    )
    def test_exits_2(self, corpus_dir, trained, tmp_path, capsys, case):
        manifest = json.loads((corpus_dir / "manifest.json").read_text())
        stream = str(corpus_dir / manifest["clips"][0]["file"])
        model, feats = str(trained["model"]), str(trained["features"])
        labels = str(corpus_dir / "labels.csv")
        missing = str(tmp_path / "no_such_dir" / "out")
        train = ["train", "--features", feats, "--labels", labels, "--n-trees", "4"]
        argv = {
            "stream --alerts-out": ["stream", "--stream", stream, "--model", model,
                                    "--alerts-out", missing],
            "stream --evidence-out": ["stream", "--stream", stream, "--model", model,
                                      "--alerts-out", str(tmp_path / "a.jsonl"),
                                      "--evidence-out", missing],
            "extract --out": ["extract", "--streams", stream, "--out", missing],
            "rank --out": ["rank", "--model", model, "--out", missing],
            "pca --out": ["pca", "--features", feats, "--out", missing],
            "train --model-out": [*train, "--model-out", missing],
            "train --report": [*train, "--model-out", str(tmp_path / "m.json"), "--report", missing],
        }[case]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "no_such_dir" in err


class _SinkHandler(BaseHTTPRequestHandler):
    received = []

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        type(self).received.append(json.loads(self.rfile.read(length)))
        self.send_response(200)
        self.end_headers()

    def log_message(self, *args):
        pass


class TestAlertSink:
    def test_posts_each_alert(self, corpus_dir, trained, tmp_path):
        server = HTTPServer(("127.0.0.1", 0), _SinkHandler)
        _SinkHandler.received = []
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            clip = synth.generate(
                synth.ScenarioSpec(kind="snatch", seed=501, noise_sigma=1.0, duration=5.0)
            )
            stream_path = tmp_path / "snatch.jsonl"
            streams.write_stream(str(stream_path), clip.frames)
            alerts_path = tmp_path / "alerts.jsonl"
            rc = cli.main(
                [
                    "stream",
                    "--stream", str(stream_path),
                    "--model", str(trained["model"]),
                    "--alerts-out", str(alerts_path),
                    "--sink-url", f"http://127.0.0.1:{server.server_port}/alerts",
                ]
            )
            assert rc == 0
            alerts = [json.loads(line) for line in alerts_path.read_text().splitlines()]
            assert _SinkHandler.received == alerts
            assert len(alerts) >= 1
        finally:
            server.shutdown()

    def test_unreachable_sink_exits_5(self, trained, tmp_path, monkeypatch):
        monkeypatch.setattr(cli.time, "sleep", lambda s: None)  # skip the retry backoff
        clip = synth.generate(
            synth.ScenarioSpec(kind="snatch", seed=501, noise_sigma=1.0, duration=5.0)
        )
        stream_path = tmp_path / "snatch.jsonl"
        streams.write_stream(str(stream_path), clip.frames)
        rc = cli.main(
            [
                "stream",
                "--stream", str(stream_path),
                "--model", str(trained["model"]),
                "--alerts-out", str(tmp_path / "alerts.jsonl"),
                "--sink-url", "http://127.0.0.1:9/unreachable",
            ]
        )
        assert rc == 5

    def test_stream_without_a_sink_imports_no_http_client(self, trained, tmp_path):
        """``urllib.request`` pulls in ``http.client``, ``email`` and ``ssl``: only a sink needs them."""
        fixture = os.path.join(os.path.dirname(__file__), "..", "docs", "fixtures", "two_person_stream.jsonl")
        script = (
            "import json, sys\n"
            "from snatchdet import cli\n"
            "rc = cli.main(sys.argv[1:])\n"
            "print(json.dumps([rc, [m for m in ('urllib.request', 'ssl') if m in sys.modules]]))\n"
        )
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        argv = ["stream", "--stream", fixture, "--model", str(trained["model"]),
                "--alerts-out", str(tmp_path / "alerts.jsonl")]
        done = subprocess.run(
            [sys.executable, "-c", script, *argv], env=env, capture_output=True, text=True, check=True
        )
        assert json.loads(done.stdout.splitlines()[-1]) == [0, []]


class TestConfigFile:
    def test_unknown_key_rejected(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text('{"not_a_key": 1}')
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        rc = cli.main(
            ["extract", "--streams", str(empty), "--out", str(tmp_path / "o.csv"),
             "--config", str(cfg_path)]
        )
        assert rc == 2

    @pytest.mark.parametrize(
        "doc", ['{"hysteresis_n_off": 0}', '{"hysteresis_window": 0}', '{"hysteresis_n_on": 20}']
    )
    def test_bad_hysteresis_exits_2_with_a_message(self, trained, tmp_path, capsys, doc):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(doc)
        clip = synth.generate(synth.ScenarioSpec(kind="standing", seed=4, duration=1.0))
        stream_path = tmp_path / "s.jsonl"
        streams.write_stream(str(stream_path), clip.frames)
        rc = cli.main(
            ["stream", "--stream", str(stream_path), "--model", str(trained["model"]),
             "--alerts-out", str(tmp_path / "alerts.jsonl"), "--config", str(cfg_path)]
        )
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: hysteresis: need 1 <= N_off < N_on <= W")

    @pytest.mark.parametrize(
        "key, value",
        [("max_depth", None), ("min_samples_leaf", 1), ("features_per_split", "sqrt"),
         ("class_weight_mode", "balanced"), ("pca_standardize", True)],
    )
    def test_recipe_key_is_unknown(self, corpus_dir, trained, tmp_path, capsys, key, value):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({key: value}))
        model = tmp_path / "m.json"
        rc = cli.main(
            ["train", "--features", str(trained["features"]), "--labels", str(corpus_dir / "labels.csv"),
             "--model-out", str(model), "--n-trees", "4", "--config", str(cfg_path)]
        )
        assert rc == 2
        assert not model.exists()
        assert capsys.readouterr().err == f"error: unknown config keys: ['{key}']\n"

    @pytest.mark.parametrize(
        "command, doc, message",
        [
            ("train", {"n_trees": 2.5}, "n_trees must be of type int, got 2.5"),
            ("train", {"n_trees": "5"}, "n_trees must be of type int, got '5'"),
            ("train", {"seed": 1.5}, "seed must be of type int, got 1.5"),
            ("train", {"top_k": 2.5}, "top_k must be of type int, got 2.5"),
            ("stream", {"max_gap_frames": "3"}, "max_gap_frames must be of type int, got '3'"),
            ("stream", {"prob_threshold": True}, "prob_threshold must be of type float, got True"),
            ("stream", {"window_s": float("nan")}, "window_s must be finite, got nan"),
            ("stream", {"fps": float("inf")}, "fps must be finite, got inf"),
        ],
    )
    def test_value_of_the_wrong_type_exits_2(
        self, corpus_dir, trained, tmp_path, capsys, command, doc, message
    ):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        if command == "train":
            argv = ["train", "--features", str(trained["features"]),
                    "--labels", str(corpus_dir / "labels.csv"), "--model-out", str(out)]
        else:
            clip = synth.generate(synth.ScenarioSpec(kind="standing", seed=4, duration=3.0))
            stream_path = tmp_path / "s.jsonl"
            streams.write_stream(str(stream_path), clip.frames)
            argv = ["stream", "--stream", str(stream_path), "--model", str(trained["model"]),
                    "--alerts-out", str(out)]
        rc = cli.main([*argv, "--config", str(cfg_path)])
        assert rc == 2
        assert not out.exists()
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "doc, message",
        [
            # an evidence window must bracket its trigger; these crashed at
            # the first activation, before its alert line was written
            ({"evidence_pre_s": 0.0}, "evidence_pre_s must be positive, got 0.0"),
            ({"evidence_post_s": -1.0}, "evidence_post_s must not be negative, got -1.0"),
            # these ran to exit 0 without one decision
            ({"max_gap_frames": 0}, "max_gap_frames must be at least 1, got 0"),
            ({"window_s": 0.1},
             "window_s * fps must round to at least 5 frames (the shortest segment), got 3"),
        ],
    )
    def test_config_that_cannot_run_exits_2(self, trained, tmp_path, capsys, doc, message):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc))
        clip = synth.generate(synth.ScenarioSpec(kind="snatch", seed=4, duration=4.0))
        stream_path = tmp_path / "s.jsonl"
        streams.write_stream(str(stream_path), clip.frames)
        out = tmp_path / "alerts.jsonl"
        rc = cli.main(["stream", "--stream", str(stream_path), "--model", str(trained["model"]),
                       "--alerts-out", str(out), "--config", str(cfg_path)])
        assert rc == 2
        assert not out.exists()
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_pre_span_below_timestamp_resolution_starts_evidence_at_the_trigger(
        self, trained, tmp_path
    ):
        """``trigger_s - evidence_pre_s`` rounds back to ``trigger_s``: the run goes on."""
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"evidence_pre_s": 1e-20}))
        alerts, evidence = tmp_path / "alerts.jsonl", tmp_path / "evidence.jsonl"
        rc = cli.main(["stream", "--stream", str(_snatch_stream(tmp_path)),
                       "--model", str(trained["model"]), "--alerts-out", str(alerts),
                       "--evidence-out", str(evidence), "--config", str(cfg_path)])
        assert rc == 0
        activations = [a for a in map(json.loads, alerts.read_text().splitlines())
                       if a["kind"] == "activated"]
        manifests = [json.loads(line) for line in evidence.read_text().splitlines()]
        assert activations and len(manifests) == len(activations)
        for a, m in zip(activations, manifests):
            assert m["start_s"] == m["trigger_s"] == a["timestamp_s"] < m["end_s"]

    @pytest.mark.parametrize("command", ["extract", "train", "stream"])
    @pytest.mark.parametrize(
        "key, value",
        [("fast_hand_threshold", 1.5), ("elbow_flex_threshold", 120.0),
         ("close_hand_threshold", 0.4), ("hand_toward_threshold", 0.7),
         ("min_segment_frames", 5)],
    )
    def test_feature_threshold_key_is_unknown(
        self, corpus_dir, trained, tmp_path, capsys, command, key, value
    ):
        # fixed parts of the feature definitions, refused even at their value
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({key: value}))
        manifest = json.loads((corpus_dir / "manifest.json").read_text())
        stream = str(corpus_dir / manifest["clips"][0]["file"])
        out = tmp_path / "out"
        argv = {
            "extract": ["extract", "--streams", stream, "--out", str(out)],
            "train": ["train", "--features", str(trained["features"]),
                      "--labels", str(corpus_dir / "labels.csv"), "--model-out", str(out)],
            "stream": ["stream", "--stream", stream, "--model", str(trained["model"]),
                       "--alerts-out", str(out)],
        }[command]
        assert cli.main([*argv, "--config", str(cfg_path)]) == 2
        assert not out.exists()
        assert capsys.readouterr().err == f"error: unknown config keys: ['{key}']\n"

    def test_flag_overrides_file(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text('{"fps": 10.0, "window_s": 1.0}')
        clip = synth.generate(synth.ScenarioSpec(kind="standing", seed=4, duration=3.0, fps=10.0))
        stream_path = tmp_path / "s.jsonl"
        streams.write_stream(str(stream_path), clip.frames)
        out = tmp_path / "o.csv"
        rc = cli.main(
            ["extract", "--streams", str(stream_path), "--out", str(out),
             "--config", str(cfg_path)]
        )
        assert rc == 0
        _, rows = features.read_feature_csv(str(out))
        # 30 frames at 10 fps, 1 s window (10 frames), 0.5 s stride (5 frames)
        assert len(rows) == 5
