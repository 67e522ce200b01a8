"""``src`` holds no definition that only the tests reach.

Every function and class defined in ``src/snatchdet`` (dunder methods
aside) must be named somewhere else in the program's own code: the
package, ``scripts`` and ``perfbench``. Names are read with ``tokenize``,
so a mention in a comment or a string does not count. A definition only
tests call belongs in the tests, as an oracle such as
``tests/ingest_reference.py``, or nowhere.
"""

import tokenize
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = sorted((ROOT / "src" / "snatchdet").glob("*.py"))
PROGRAM = SRC + sorted((ROOT / "scripts").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))


def names(path: Path) -> tuple[list[str], Counter]:
    """(names a ``def`` or ``class`` defines, count of every other name token) of one file."""
    defined: list[str] = []
    used: Counter = Counter()
    prev = None
    with tokenize.open(path) as fh:
        for tok in tokenize.generate_tokens(fh.readline):
            if tok.type == tokenize.NAME:
                if prev in ("def", "class"):
                    defined.append(tok.string)
                else:
                    used[tok.string] += 1
            prev = tok.string
    return defined, used


def unused_definitions() -> list[str]:
    """``module.name`` of each non-dunder ``src`` definition no other code names."""
    defined: list[tuple[str, str]] = []
    used: Counter = Counter()
    for path in PROGRAM:
        own, names_used = names(path)
        used.update(names_used)
        if path in SRC:
            defined += [(path.stem, name) for name in own]
    return [
        f"{module}.{name}"
        for module, name in defined
        if not (name.startswith("__") and name.endswith("__")) and not used[name]
    ]


def test_every_src_definition_is_named_by_the_program():
    assert unused_definitions() == []
