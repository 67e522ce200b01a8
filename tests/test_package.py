"""The package's exports: what ``import snatchdet`` loads and what it binds."""

import json
import os
import subprocess
import sys
from importlib import import_module

import pytest

import snatchdet

# each export under the module that defines it, written out here so that the
# check does not read the answer from the objects themselves
DEFINED_IN = {
    "config": ["PipelineConfig", "load_config"],
    "features": ["FeatureSchema", "extract_segment", "full_schema", "pair_segment"],
    "forest": ["Dataset", "ForestConfig", "ForestModel", "predict", "train"],
    "pipeline": ["StreamEngine", "extract_windows"],
    "selection": ["pca_project", "select_top_k"],
    "synth": ["Clip", "ScenarioSpec", "generate", "generate_corpus"],
    "temporal": ["AlarmState", "HysteresisConfig", "step"],
    "types": ["FrameRecord", "Keypoint", "PairSegment", "Skeleton", "Track", "torso_height",
              "validate_frame"],
}


def test_a_fresh_import_loads_no_numpy_and_no_training_only_module():
    """Nor does a prediction from a row given as a list or a tuple."""
    script = (
        "import json, sys\n"
        "import snatchdet\n"
        "from snatchdet import forest\n"
        "tree = forest.Tree([0, -1, -1], [0.5, 0.0, 0.0], [1, -1, -1], [2, -1, -1],"
        " [(0.0, 0.0), (2.0, 0.0), (0.0, 3.0)])\n"
        "model = forest.ForestModel([tree], ('f0',), forest.ForestConfig(), (1.0, 1.0), (1.0,))\n"
        "probs = [forest.predict_probability(model, [0.0]), forest.predict_probability(model, (1.0,))]\n"
        "print(json.dumps([probs, [m for m in ('numpy', 'snatchdet.synth', 'snatchdet.selection',"
        " 'snatchdet.experiment') if m in sys.modules]]))\n"
    )
    src = os.path.dirname(os.path.dirname(snatchdet.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    )
    assert json.loads(done.stdout) == [[0.0, 1.0], []]


def test_every_export_is_the_object_its_module_defines():
    assert sorted(snatchdet.__all__) == sorted(n for names in DEFINED_IN.values() for n in names)
    for module, names in DEFINED_IN.items():
        defining = import_module(f"snatchdet.{module}")
        for name in names:
            assert getattr(snatchdet, name) is getattr(defining, name), name


def test_star_import_binds_every_export():
    namespace: dict = {}
    exec("from snatchdet import *", namespace)
    for name in snatchdet.__all__:
        assert namespace[name] is getattr(snatchdet, name), name


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_export'"):
        snatchdet.no_such_export
    with pytest.raises(ImportError):
        from snatchdet import no_such_export  # noqa: F401
