"""``scripts/output_digest.py`` prints the same, pinned digests for the same inputs."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "output_digest.py"

# The digests of the small input below. A change that alters outputs on
# purpose updates them and says so in CHANGES.md; any other change must
# leave them as they are.
PINNED = {
    "clip.csv": "0a0618460b96b9ef54164f5bb2d54333493641c8b9f84beb1c60f1023ec0268a",
    "sliding.csv": "d811f04a36de9f342201c615f19e4173bcf7834910f79024869c715a90619239",
    "full_model.json": "001e19e8416e2169168f4f5808c9115ac78f7f9e7fc992e284a68eef77417f96",
    "top_model.json": "30253d729b8c87f5e4196b618b096e67213248fb431e5c845b6f5df2aa8500d7",
    "pair_stream.alerts": "2b63e38fc0eb48249c270c73f11cee71b2ab6826f631ae5edfc36b29fa22dd39",
    "pair_stream.evidence": "149b0a76fbba489fc049ac31e82193370413b739bf8378bf0eef09ddf1daef8c",
    "pair_stream.windows": "ca66f406604a83530be1e8b6081aab95b70315b9160e5d86b3d6e47772b460a5",
    "crowd_stream.alerts": "f77411bd768b39a84df34c0802aae8bd27167f121c3ee1ef66d1d2409a56ed7b",
    "crowd_stream.evidence": "20b888a96fa9ee362c328ebcb86c003eec6daff4fd7defd1aee7d4c4f9f6ca7e",
    "crowd_stream.windows": "d56397a636916f9a6406edd2a6104fb68d56ccdc703b7997ad5f7e625a800377",
}


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
    assert runs[0] == PINNED
