"""The window oracle imports from ``snatchdet`` only what it does not check.

``tests/track_reference.py`` smooths, slices and selects pairs on its own, so
a fault in ``preprocess.SkeletonSmoother`` or ``pipeline.select_pair`` cannot
hide in both sides of the online/offline comparison. It may take the data
types, ``features.pair_segment`` (the aligned segment both sides extract
from) and ``pipeline.order_roles`` (role ordering, which it does not check).
"""

import ast
from pathlib import Path

ORACLE = Path(__file__).with_name("track_reference.py")

ALLOWED = {
    "snatchdet.types": {"FrameRecord", "Keypoint", "PairSegment", "Skeleton", "Track", "track_order"},
    "snatchdet.features": {"pair_segment"},
    "snatchdet.pipeline": {"order_roles"},
}


def snatchdet_imports(source: str) -> list[str]:
    """Every ``module.name`` a module imports from the ``snatchdet`` package."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [a.name for a in node.names if a.name.split(".")[0] == "snatchdet"]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "snatchdet":
            found += [f"{node.module}.{a.name}" for a in node.names]
    return found


def disallowed(source: str) -> list[str]:
    return [
        name
        for name in snatchdet_imports(source)
        if name.rpartition(".")[2] not in ALLOWED.get(name.rpartition(".")[0], ())
    ]


def test_track_reference_imports_only_the_allow_list():
    assert disallowed(ORACLE.read_text(encoding="utf-8")) == []


def test_guard_catches_smoothing_and_whole_module_imports():
    source = (
        "from snatchdet.preprocess import smooth_track\n"
        "from snatchdet import pipeline\n"
        "import snatchdet.types\n"
        "from snatchdet.pipeline import order_roles, select_pair\n"
    )
    assert disallowed(source) == [
        "snatchdet.preprocess.smooth_track",
        "snatchdet.pipeline",
        "snatchdet.types",
        "snatchdet.pipeline.select_pair",
    ]
