"""Any model document loads as a model or fails with the documented errors.

Hypothesis mutates a small serialized model: the value at any JSON path is
replaced by any JSON value (huge and over-long integers, infinities and
deep nesting among them), a key is deleted, the text is truncated, or the
whole document is wrapped in deep nesting. ``deserialize`` must return a
model or raise ``CorruptModel`` or ``VersionMismatch``, and a model it
returns must predict a probability in [0, 1] for the zero vector.
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from snatchdet.forest import (
    CorruptModel,
    ForestConfig,
    VersionMismatch,
    deserialize,
    predict_probability,
    serialize,
    train,
)
from test_forest import separable_dataset

BASE_TEXT = serialize(train(separable_dataset(n=12), ForestConfig(n_trees=2, seed=1)))
BASE = json.loads(BASE_TEXT)
# stands in for a replacement value until the document is text again
HOLE = "\x00hole\x00"


def paths(node, prefix=()):
    """Every path into ``node``, the root's empty path included."""
    yield prefix
    if isinstance(node, dict):
        for key, value in node.items():
            yield from paths(value, prefix + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from paths(value, prefix + (i,))


PATHS = list(paths(BASE))
KEY_PATHS = [p for p in PATHS if p and isinstance(p[-1], str)]

json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(10**400), max_value=10**400)
    | st.floats()
    | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)
# JSON text no ``json.dumps`` of a Python value writes: integers over the
# interpreter's digit limit, floats that overflow, and deep nesting.
value_texts = (
    json_values.map(json.dumps)
    | st.integers(min_value=4_000, max_value=6_000).map(lambda n: "9" * n)
    | st.sampled_from(["1e999", "-1e999"])
    | st.integers(min_value=1, max_value=100_000).map(lambda d: "[" * d + "]" * d)
)


def nested(doc, path):
    """The container holding ``path``'s value, and the value's key in it."""
    for key in path[:-1]:
        doc = doc[key]
    return doc, path[-1]


@st.composite
def replaced(draw):
    path = draw(st.sampled_from(PATHS))
    text = draw(value_texts)
    if not path:
        return text
    doc = json.loads(BASE_TEXT)
    parent, key = nested(doc, path)
    parent[key] = HOLE
    return json.dumps(doc).replace(json.dumps(HOLE), text)


@st.composite
def deleted(draw):
    doc = json.loads(BASE_TEXT)
    parent, key = nested(doc, draw(st.sampled_from(KEY_PATHS)))
    del parent[key]
    return json.dumps(doc)


documents = (
    replaced()
    | deleted()
    | st.integers(min_value=0, max_value=len(BASE_TEXT) - 1).map(lambda n: BASE_TEXT[:n])
    | st.integers(min_value=1, max_value=100_000).map(lambda d: "[" * d + BASE_TEXT + "]" * d)
)


@settings(max_examples=400, deadline=None)
@given(documents)
def test_any_document_loads_or_raises_a_documented_error(text):
    try:
        model = deserialize(text)
    except (CorruptModel, VersionMismatch):
        return
    p = predict_probability(model, [0.0] * len(model.feature_names))
    assert 0.0 <= p <= 1.0


def test_base_document_loads():
    assert serialize(deserialize(BASE_TEXT)) == BASE_TEXT
