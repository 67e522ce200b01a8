"""``scripts/output_digest.py`` prints the same digests for the same inputs."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "output_digest.py"


def load_script():
    spec = importlib.util.spec_from_file_location("output_digest", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_digests_repeat_on_a_small_input(tmp_path):
    digest = load_script()
    runs = []
    for name in ("first", "second"):
        workdir = tmp_path / name
        workdir.mkdir()
        runs.append(digest.digests(str(workdir), n_per_class=2, n_trees=5, rounds=1))
    assert runs[0] == runs[1]
    streams = ("pair_stream", "crowd_stream")
    outputs = ("alerts", "evidence", "windows")
    assert set(runs[0]) == {
        "clip.csv", "sliding.csv", "full_model.json", "top_model.json",
        *(f"{s}.{o}" for s in streams for o in outputs),
    }
    assert all(len(v) == 64 for v in runs[0].values())
