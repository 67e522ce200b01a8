"""The test oracles import from ``snatchdet`` only what they do not check.

``tests/track_reference.py`` smooths, slices and selects pairs on its own, so
a fault in ``preprocess.SkeletonSmoother`` or ``pipeline.select_pair`` cannot
hide in both sides of the online/offline comparison. It yields each window's
selected pair, so it may take the data types and nothing else.

``tests/feature_reference.py`` (the exact feature oracle and the sentinel
reference), ``tests/forest_reference.py`` (the flat tree walk) and
``tests/alarm_reference.py`` (the alarm rule) import nothing from
``snatchdet``, nor any sibling test module, through which a package import
could reach them. ``tests/ingest_reference.py`` (validation
and smoothing) may take only the data types and constants it checks against.
"""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).parent

TRACK_ALLOWED = {
    "snatchdet.types": {"FrameRecord", "Keypoint", "PairSegment", "Skeleton", "Track", "track_order"},
}

INGEST_ALLOWED = {
    "snatchdet.types": {
        "COORDINATE_LIMIT",
        "VALID_CONFIDENCE",
        "FrameRecord",
        "Keypoint",
        "MalformedRecord",
        "Skeleton",
        "Track",
    },
}


def imports(source: str) -> list[str]:
    """Every module a module imports, as ``module.name`` for a ``from`` import."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            found += [f"{node.module}.{a.name}" for a in node.names]
    return found


def snatchdet_imports(source: str) -> list[str]:
    """Every ``module.name`` a module imports from the ``snatchdet`` package."""
    return [name for name in imports(source) if name.split(".")[0] == "snatchdet"]


def disallowed(source: str, allowed: dict[str, set[str]]) -> list[str]:
    return [
        name
        for name in snatchdet_imports(source)
        if name.rpartition(".")[2] not in allowed.get(name.rpartition(".")[0], ())
    ]


def oracle_source(name: str) -> str:
    return (TESTS / name).read_text(encoding="utf-8")


def test_track_reference_imports_only_the_allow_list():
    assert disallowed(oracle_source("track_reference.py"), TRACK_ALLOWED) == []


def test_ingest_reference_imports_only_the_allow_list():
    assert disallowed(oracle_source("ingest_reference.py"), INGEST_ALLOWED) == []


@pytest.mark.parametrize("oracle", ["feature_reference.py", "forest_reference.py", "alarm_reference.py"])
def test_pure_oracles_import_no_package_or_test_module(oracle):
    source = oracle_source(oracle)
    assert snatchdet_imports(source) == []
    siblings = {path.stem for path in TESTS.glob("*.py")}
    assert [name for name in imports(source) if name.split(".")[0] in siblings] == []


def test_guard_catches_smoothing_and_whole_module_imports():
    source = (
        "from snatchdet.preprocess import smooth_track\n"
        "from snatchdet import pipeline\n"
        "import snatchdet.types\n"
        "from snatchdet.pipeline import order_roles, select_pair\n"
        "from snatchdet.features import pair_segment\n"
    )
    assert disallowed(source, TRACK_ALLOWED) == [
        "snatchdet.preprocess.smooth_track",
        "snatchdet.pipeline",
        "snatchdet.types",
        "snatchdet.pipeline.order_roles",
        "snatchdet.pipeline.select_pair",
        "snatchdet.features.pair_segment",
    ]
