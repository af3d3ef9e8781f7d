"""Round-trip property over random pushout gluings, and parse fuzzed with
mutated and random documents (needs hypothesis)."""

import copy
import json
import random

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from precubical import FormatError, parse, serialize, standard_cube

from conftest import (assert_one_cell_table, glued_path, outcome, parse_records,
                      random_glued_complex, reference_text)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_random_gluings_round_trip(seed):
    K = random_glued_complex(random.Random(seed))
    text = serialize(K)
    assert text == reference_text(K)
    back = parse(text)
    assert back == K
    slow = parse_records(text, True)
    assert back == slow
    assert serialize(back) == text
    for X in (K, back, slow):
        assert_one_cell_table(X)


# the canonical documents mutated below: the square, and a path of two
# glued edges whose pushout labels hold colons
BASES = [json.loads(serialize(standard_cube(2))), json.loads(serialize(glued_path()))]

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
top_keys = st.sampled_from(["cells", "faces", "format_version", "top_dim"])


def rename(tree, old, new):
    """Rename the label old to new in the cells and in every face record."""
    for labels in tree["cells"].values():
        if isinstance(labels, list):
            labels[:] = [new if label == old else label for label in labels]
    for record in tree["faces"]:
        if isinstance(record, dict):
            for field in ("cell", "value"):
                if record.get(field) == old:
                    record[field] = new


def insert_pair(text, anchor, pair):
    """Write the "key": value text pair first in the object that anchor opens."""
    at = text.find(anchor)
    if at < 0:
        return text
    at += len(anchor)
    return text[:at] + pair + ("" if text[at] == "}" else ", ") + text[at:]


@st.composite
def mutated_documents(draw):
    """Text of a canonical document with up to three changes: a field
    changed or dropped, records shuffled, dropped or copied, a label given
    a colon, written as ":" or as a : escape, or a key repeated."""
    tree = copy.deepcopy(draw(st.sampled_from(BASES)))
    escaped = []
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["top", "drop", "dim key", "dim value", "face", "face drop",
                                     "shuffle", "record drop", "record copy", "colon"]))
        cells, faces = tree.get("cells"), tree.get("faces")
        if kind == "top":
            tree[draw(top_keys | st.text(max_size=4))] = draw(json_values)
        elif kind == "drop" and tree:
            del tree[draw(st.sampled_from(sorted(tree)))]
        elif kind.startswith("dim") and isinstance(cells, dict) and cells:
            old = draw(st.sampled_from(sorted(cells)))
            if kind == "dim key":
                cells[draw(dimension_keys)] = cells.pop(old)
            else:
                cells[old] = draw(json_values)
        elif kind == "colon" and isinstance(cells, dict) and isinstance(faces, list):
            labels = [l for ls in cells.values() if isinstance(ls, list)
                      for l in ls if isinstance(l, str)]
            if labels:
                old = draw(st.sampled_from(labels))
                at = draw(st.integers(0, len(old)))
                new = old[:at] + ":" + old[at:]
                rename(tree, old, new)
                if draw(st.booleans()):
                    escaped.append(new)
        elif not isinstance(faces, list) or not faces:
            continue
        elif kind == "shuffle":
            tree["faces"] = draw(st.permutations(faces))
        elif kind == "record drop":
            del faces[draw(st.integers(0, len(faces) - 1))]
        elif kind == "record copy":
            record = faces[draw(st.integers(0, len(faces) - 1))]
            faces.insert(draw(st.integers(0, len(faces))), copy.deepcopy(record))
        elif kind.startswith("face"):
            record = faces[draw(st.integers(0, len(faces) - 1))]
            if not isinstance(record, dict):
                continue
            field = draw(face_fields)
            if kind == "face":
                record[field] = draw(json_values)
            else:
                record.pop(field, None)
    text = json.dumps(tree)
    for label in escaped:
        quoted = json.dumps(label)
        text = text.replace(quoted, quoted.replace(":", "\\u003a"))

    # a repeated key can only be written as text
    pair = json.dumps(draw(top_keys)) + ": " + json.dumps(draw(json_values))
    where = draw(st.sampled_from(["none", "top", "cells", "record", "extra key", "extra object"]))
    if where == "top":
        text = insert_pair(text, "{", pair)
    elif where == "cells":
        key = json.dumps(draw(st.sampled_from(["0", "1", "2"])))
        text = insert_pair(text, '"cells": {', key + ": " + json.dumps(draw(json_values)))
    elif where == "record":
        field = json.dumps(draw(face_fields)) + ": " + json.dumps(draw(json_values))
        text = insert_pair(text, '"faces": [{', field)
    elif where == "extra key":
        text = insert_pair(text, "{", '"extra": {%s, %s}' % (pair, pair))
    elif where == "extra object":
        text += " {%s, %s}" % (pair, pair)
    return text


@settings(max_examples=400, deadline=None, derandomize=True)
@given(mutated_documents(), st.booleans())
def test_both_parse_passes_agree(text, check):
    expected = outcome(parse_records, text, check)
    assert outcome(parse, text, check) == expected
    assert outcome(parse, text.encode("utf-8"), check) == expected


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
