"""Round-trip property over random pushout gluings, and parse fuzzed with
mutated and random documents (needs hypothesis)."""

import copy
import json
import random

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from precubical import FormatError, parse, serialize, standard_cube

from conftest import random_glued_complex, reference_text


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_random_gluings_round_trip(seed):
    K = random_glued_complex(random.Random(seed))
    text = serialize(K)
    assert text == reference_text(K)
    back = parse(text)
    assert back == K
    assert serialize(back) == text


# the canonical cube-2 document, mutated field by field below
CANONICAL = json.loads(serialize(standard_cube(2)))

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=6,
)
# int() accepts all of these but "", "x" and "1.0"; only "-1" is canonical
dimension_keys = (st.sampled_from(["01", " 1", "1 ", "+1", "-1", "1.0", "1_0", "\u0661", "", "x"])
                  | st.text(max_size=4))
face_fields = st.sampled_from(["dim", "i", "alpha", "cell", "value"]) | st.text(max_size=4)


@st.composite
def mutated_documents(draw):
    """Text of the canonical cube-2 document with one to three fields changed."""
    tree = copy.deepcopy(CANONICAL)
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["top", "drop", "dim key", "dim value", "face", "face drop"]))
        if kind == "top":
            keys = st.sampled_from(["cells", "faces", "format_version", "top_dim"])
            tree[draw(keys | st.text(max_size=4))] = draw(json_values)
        elif kind == "drop" and tree:
            del tree[draw(st.sampled_from(sorted(tree)))]
        elif kind.startswith("dim") and isinstance(tree.get("cells"), dict) and tree["cells"]:
            cells = tree["cells"]
            old = draw(st.sampled_from(sorted(cells)))
            if kind == "dim key":
                cells[draw(dimension_keys)] = cells.pop(old)
            else:
                cells[old] = draw(json_values)
        elif isinstance(tree.get("faces"), list) and tree["faces"]:
            record = tree["faces"][draw(st.integers(0, len(tree["faces"]) - 1))]
            if not isinstance(record, dict):
                continue
            field = draw(face_fields)
            if kind == "face":
                record[field] = draw(json_values)
            else:
                record.pop(field, None)
    return json.dumps(tree)


def parse_or_format_error(data):
    try:
        parse(data)
    except FormatError:
        pass


@settings(max_examples=300, deadline=None, derandomize=True)
@given(mutated_documents())
def test_mutated_documents_raise_only_format_error(text):
    parse_or_format_error(text)
    parse_or_format_error(text.encode("utf-8"))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.binary(max_size=64) | st.text(max_size=64))
def test_random_input_raises_only_format_error(data):
    parse_or_format_error(data)
