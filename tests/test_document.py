"""Document format: canonical serialization, parsing, named generators."""

import ast
import copy
import json
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from precubical import (
    FormatError,
    PcsMap,
    PrecubicalSet,
    boundary_cube,
    circle,
    cylinder,
    generate,
    interval,
    parse,
    serialize,
    skeleton,
    pushout,
    standard_cube,
    tensor,
    torus,
    validate,
)
from precubical import document

from conftest import glued_circle, isomorphic, outcome, parse_records, reference_text


class TestRoundTrip:
    def test_square_round_trips(self):
        K = standard_cube(2)
        assert parse(serialize(K)) == K

    def test_byte_identical_on_corpus(self, corpus_complex):
        _, K = corpus_complex
        text = serialize(K)
        assert serialize(parse(text)) == text
        assert text.endswith("\n")

    def test_bytes_input_accepted(self):
        K = torus(2)
        assert parse(serialize(K).encode("utf-8")) == K

    def test_bytearray_input_read_like_bytes(self):
        K = standard_cube(3)
        text = serialize(K)
        assert parse(bytearray(text.encode("utf-8"))) == K
        tree = json.loads(text)
        del tree["faces"][0]
        missing = json.dumps(tree)
        with pytest.raises(FormatError) as err:
            parse(bytearray(missing.encode("utf-8")))
        assert outcome(parse, missing, True) == (str(err.value), err.value.violations)

    @pytest.mark.parametrize("data", [serialize(standard_cube(3)).encode("utf-16"), b"\xff\xfe"],
                             ids=["utf-16", "bom-only"])
    def test_bytearray_that_is_not_utf8_rejected_like_bytes(self, data):
        with pytest.raises(FormatError) as err:
            parse(bytearray(data))
        assert str(err.value).startswith("document is not UTF-8: ")
        assert outcome(parse, bytearray(data), True) == outcome(parse, data, True)

    @pytest.mark.parametrize("data", [123, None, memoryview(b"{}"), ["{}"]],
                             ids=["int", "none", "memoryview", "list"])
    def test_other_input_types_raise_type_error(self, data):
        message = f"the JSON object must be str, bytes or bytearray, not {type(data).__name__}"
        with pytest.raises(TypeError) as err:
            parse(data)
        assert str(err.value) == message

    def test_reports_are_json(self, corpus_complex):
        _, K = corpus_complex
        tree = json.loads(serialize(K))
        assert tree["format_version"] == "1"
        assert tree["top_dim"] == K.top_dim


class TestParseErrors:
    def test_syntax_error_carries_position(self):
        with pytest.raises(FormatError, match="syntax error at position"):
            parse("{not json")

    def test_unknown_version(self):
        text = serialize(standard_cube(1)).replace('"format_version": "1"', '"format_version": "9"')
        with pytest.raises(FormatError, match="unknown format version"):
            parse(text)

    def test_missing_face_record_names_the_face(self):
        tree = json.loads(serialize(standard_cube(2)))
        removed = tree["faces"].pop(0)
        with pytest.raises(FormatError) as err:
            parse(json.dumps(tree))
        assert any(
            v.kind == "missing-face"
            and v.cell == removed["cell"]
            and v.i == removed["i"]
            and v.alpha == removed["alpha"]
            for v in err.value.violations
        )

    def test_relation_violation_names_the_tuple(self):
        tree = json.loads(serialize(standard_cube(3)))
        for record in tree["faces"]:
            if record["dim"] == 3 and record["i"] == 1 and record["alpha"] == 0:
                record["value"] = "*0*"
        with pytest.raises(FormatError) as err:
            parse(json.dumps(tree))
        offenders = [v for v in err.value.violations if v.kind == "cubical-relation"]
        assert offenders and all(v.cell == "***" for v in offenders)

    def test_unchecked_parse_admits_violations(self):
        tree = json.loads(serialize(standard_cube(2)))
        tree["faces"] = tree["faces"][1:]
        tree_text = json.dumps(tree)
        K = parse(tree_text, check=False)
        assert validate(K) != []

    def test_top_dim_mismatch_rejected(self):
        tree = json.loads(serialize(standard_cube(1)))
        tree["top_dim"] = 5
        with pytest.raises(FormatError, match="top_dim"):
            parse(json.dumps(tree))

    def test_duplicate_face_records_rejected(self):
        tree = json.loads(serialize(standard_cube(1)))
        tree["faces"].append(dict(tree["faces"][0]))
        with pytest.raises(FormatError, match="duplicate face records"):
            parse(json.dumps(tree))

    def test_record_types_are_checked_before_structure(self):
        # record 0 is out of range and record 1 has a null value: the type
        # checks run over every record before any structure check
        tree = json.loads(serialize(standard_cube(1)))
        tree["faces"][0]["i"] = 2
        tree["faces"][1]["value"] = None
        with pytest.raises(FormatError) as err:
            parse(json.dumps(tree))
        assert str(err.value) == (
            "face field 'value' must be a string: "
            "{'alpha': 1, 'cell': '*', 'dim': 1, 'i': 1, 'value': None}"
        )

    @pytest.mark.parametrize("break_structure", [
        lambda t: t["faces"][0].update(i=2),
        lambda t: t["faces"][1].update(cell="ghost"),
        lambda t: t["cells"].update({"-1": ["z"]}),
        lambda t: t["cells"]["0"].append("0"),
    ], ids=["index-range", "undeclared", "negative-dim", "duplicate-label"])
    @pytest.mark.parametrize("copied", [0, 1])
    def test_duplicate_records_are_reported_before_structure(self, break_structure, copied):
        tree = json.loads(serialize(standard_cube(1)))
        break_structure(tree)
        tree["faces"].append(dict(tree["faces"][copied]))
        with pytest.raises(FormatError) as err:
            parse(json.dumps(tree))
        assert str(err.value) == "duplicate face records for the same (dim, i, alpha, cell)"

    def test_malformed_record_rejected(self):
        tree = json.loads(serialize(standard_cube(1)))
        del tree["faces"][0]["value"]
        with pytest.raises(FormatError, match="exactly the keys"):
            parse(json.dumps(tree))


class TestHandWrittenDocuments:
    def test_directed_circle(self):
        text = """
        {
          "format_version": "1",
          "top_dim": 1,
          "cells": {"0": ["p"], "1": ["a"]},
          "faces": [
            {"dim": 1, "i": 1, "alpha": 0, "cell": "a", "value": "p"},
            {"dim": 1, "i": 1, "alpha": 1, "cell": "a", "value": "p"}
          ]
        }
        """
        K = parse(text)
        assert validate(K) == []
        assert isomorphic(K, circle())
        assert isomorphic(K, glued_circle())


class TestGenerate:
    def test_torus2_counts(self):
        assert generate("torus", 2).cell_counts() == (1, 2, 1)

    def test_cube0_is_a_point(self):
        assert generate("cube", 0).cell_counts() == (1,)

    def test_interval3(self):
        K = generate("interval", 3)
        assert K.cell_counts() == (4, 3)

    def test_interval_matches_iterated_gluing(self):
        from precubical import PcsMap, pushout

        K = standard_cube(1)
        for _ in range(2):
            point = standard_cube(0)
            f = PcsMap(point, K, {(0, ""): max(K.cells(0))})
            g = PcsMap(point, standard_cube(1), {(0, ""): "0"})
            K = pushout(f, g)
        assert isomorphic(K, interval(3))

    def test_cylinder_matches_tensor(self):
        assert generate("cylinder").cell_counts() == (2, 3, 1)
        assert cylinder() == generate("cylinder")

    @pytest.mark.parametrize("n", range(1, 6))
    def test_boundary_is_cube_skeleton(self, n):
        assert generate("boundary", n) == skeleton(generate("cube", n), n - 1)

    def test_everything_validates(self):
        cases = [
            ("cube", 3), ("boundary", 4), ("circle", None),
            ("torus", 3), ("cylinder", None), ("interval", 5),
        ]
        for family, param in cases:
            assert validate(generate(family, param)) == []

    def test_unknown_family(self):
        with pytest.raises(ValueError, match="unknown family"):
            generate("klein")

    def test_parameter_arity_enforced(self):
        with pytest.raises(ValueError, match="needs an integer parameter"):
            generate("cube")
        with pytest.raises(ValueError, match="takes no parameter"):
            generate("circle", 2)
        with pytest.raises(ValueError):
            generate("torus", -1)
        with pytest.raises(ValueError):
            generate("interval", -2)


ODD_LABELS = PrecubicalSet(
    {
        0: ["plain", "café", "☃ snow", 'say "hi"', "back\\slash", "tab\there", "bell\x07"],
        1: ["new\nline", "\U0001f600", "\x00nul"],
    },
    {
        (1, 1, 0, "new\nline"): "café",
        (1, 1, 1, "new\nline"): 'say "hi"',
        (1, 1, 0, "\U0001f600"): "back\\slash",
        (1, 1, 1, "\U0001f600"): "tab\there",
        (1, 1, 0, "\x00nul"): "bell\x07",
        (1, 1, 1, "\x00nul"): "☃ snow",
    },
)


class TestCanonicalWriter:
    def test_matches_json_dumps_on_corpus(self, corpus_complex):
        _, K = corpus_complex
        assert serialize(K) == reference_text(K)

    def test_empty_complex(self):
        K = PrecubicalSet({}, {})
        assert serialize(K) == reference_text(K)
        assert '"cells": {},' in serialize(K) and '"faces": [],' in serialize(K)

    def test_escaped_and_non_ascii_labels(self):
        assert validate(ODD_LABELS) == []
        text = serialize(ODD_LABELS)
        assert text == reference_text(ODD_LABELS)
        assert text.isascii()
        assert parse(text) == ODD_LABELS

    def test_dimension_keys_sort_as_strings(self):
        K = tensor(torus(5), torus(5))
        assert K.top_dim == 10
        text = serialize(K)
        assert text == reference_text(K)
        assert text.index('"10": [') < text.index('"2": [')
        assert parse(text) == K

    def test_vertices_only(self):
        K = skeleton(standard_cube(3), 0)
        assert serialize(K) == reference_text(K)

    def test_unvalidated_complex_with_dangling_value(self):
        K = PrecubicalSet({0: ["a"], 1: ["e"]}, {(1, 1, 0, "e"): "a", (1, 1, 1, "e"): "ghöst"})
        assert serialize(K) == reference_text(K)

    def test_unvalidated_complex_with_missing_entries(self):
        # s lacks d[2,0], in the middle of its row, and f lacks both faces
        K = PrecubicalSet(
            {0: ["a", "b"], 1: ["e", "f"], 2: ["s"]},
            {(1, 1, 0, "e"): "a", (1, 1, 1, "e"): "b",
             (2, 1, 0, "s"): "e", (2, 1, 1, "s"): "e", (2, 2, 1, "s"): "f"},
        )
        text = serialize(K)
        assert text == reference_text(K)
        assert text.count('"value"') == 5
        assert parse(text, check=False) == K


HUGE_DIMENSION = ('{"cells": {"0": ["00"], "99999999999999999999": ["x"]}, "faces": [], '
                  '"format_version": "1", "top_dim": 99999999999999999999}')

SQUARE_TREE = {
    "format_version": "1",
    "top_dim": 2,
    "cells": {"0": ["00", "01", "10", "11"], "1": ["*0", "*1", "0*", "1*"], "2": ["**"]},
    "faces": [
        {"alpha": 0, "cell": "*0", "dim": 1, "i": 1, "value": "00"},
        {"alpha": 1, "cell": "*0", "dim": 1, "i": 1, "value": "10"},
        {"alpha": 0, "cell": "*1", "dim": 1, "i": 1, "value": "01"},
        {"alpha": 1, "cell": "*1", "dim": 1, "i": 1, "value": "11"},
        {"alpha": 0, "cell": "0*", "dim": 1, "i": 1, "value": "00"},
        {"alpha": 1, "cell": "0*", "dim": 1, "i": 1, "value": "01"},
        {"alpha": 0, "cell": "1*", "dim": 1, "i": 1, "value": "10"},
        {"alpha": 1, "cell": "1*", "dim": 1, "i": 1, "value": "11"},
        {"alpha": 0, "cell": "**", "dim": 2, "i": 1, "value": "0*"},
        {"alpha": 1, "cell": "**", "dim": 2, "i": 1, "value": "1*"},
        {"alpha": 0, "cell": "**", "dim": 2, "i": 2, "value": "*0"},
        {"alpha": 1, "cell": "**", "dim": 2, "i": 2, "value": "*1"},
    ],
}

def _set(path, value):
    def mutate(tree):
        *outer, last = path
        for key in outer:
            tree = tree[key]
        tree[last] = value
    return mutate


def _drop(path):
    def mutate(tree):
        *outer, last = path
        for key in outer:
            tree = tree[key]
        del tree[last]
    return mutate


def _relation_break(tree):
    for record in tree["faces"]:
        if record["dim"] == 2 and record["i"] == 1 and record["alpha"] == 0:
            record["value"] = "*1"


# each kind of malformed document with the full message parse gives it
MALFORMED = [
    ("no-version", _drop(["format_version"]), "unknown format version: None (expected '1')"),
    ("version", _set(["format_version"], "9"), "unknown format version: '9' (expected '1')"),
    ("version-int", _set(["format_version"], 1), "unknown format version: 1 (expected '1')"),
    ("no-top-dim", _drop(["top_dim"]), "document is missing the 'top_dim' key"),
    ("no-cells", _drop(["cells"]), "document is missing the 'cells' key"),
    ("no-faces", _drop(["faces"]), "document is missing the 'faces' key"),
    ("cells-array", _set(["cells"], []), "'cells' must be an object"),
    ("faces-object", _set(["faces"], {}), "'faces' must be an array"),
    ("dim-key", _set(["cells", "x"], ["a"]), "cell dimension key is not an integer: 'x'"),
    # "0" and "00" used to collapse onto dimension 0, the later list dropping the earlier
    ("dim-key-zero-padded", _set(["cells", "00"], ["b"]),
     "cell dimension key is not in canonical form: '00' (expected '0')"),
    ("dim-key-spaced", _set(["cells", " +0 "], ["b"]),
     "cell dimension key is not in canonical form: ' +0 ' (expected '0')"),
    ("dim-key-underscored", _set(["cells", "0_1"], ["b"]),
     "cell dimension key is not in canonical form: '0_1' (expected '1')"),
    ("labels-string", _set(["cells", "0"], "00"), "cells['0'] must be an array"),
    ("label-int", _set(["cells", "1", 0], 5), "cell label is not a string: 5"),
    ("record-int", _set(["faces", 0], 3), "face record must be an object: 3"),
    ("record-short", _drop(["faces", 0, "value"]),
     "face record must have exactly the keys dim, i, alpha, cell, value: "
     "{'alpha': 0, 'cell': '*0', 'dim': 1, 'i': 1}"),
    ("record-misnamed", lambda t: t["faces"][0].update(valu=t["faces"][0].pop("value")),
     "face record must have exactly the keys dim, i, alpha, cell, value: "
     "{'alpha': 0, 'cell': '*0', 'dim': 1, 'i': 1, 'valu': '00'}"),
    ("record-long", _set(["faces", 0, "extra"], 1),
     "face record must have exactly the keys dim, i, alpha, cell, value: "
     "{'alpha': 0, 'cell': '*0', 'dim': 1, 'i': 1, 'value': '00', 'extra': 1}"),
    ("dim-string", _set(["faces", 0, "dim"], "1"),
     "face field 'dim' must be an integer: {'alpha': 0, 'cell': '*0', 'dim': '1', 'i': 1, 'value': '00'}"),
    ("i-bool", _set(["faces", 0, "i"], True),
     "face field 'i' must be an integer: {'alpha': 0, 'cell': '*0', 'dim': 1, 'i': True, 'value': '00'}"),
    ("alpha-float", _set(["faces", 0, "alpha"], 0.0),
     "face field 'alpha' must be an integer: {'alpha': 0.0, 'cell': '*0', 'dim': 1, 'i': 1, 'value': '00'}"),
    ("cell-int", _set(["faces", 0, "cell"], 7),
     "face field 'cell' must be a string: {'alpha': 0, 'cell': 7, 'dim': 1, 'i': 1, 'value': '00'}"),
    ("value-null", _set(["faces", 0, "value"], None),
     "face field 'value' must be a string: {'alpha': 0, 'cell': '*0', 'dim': 1, 'i': 1, 'value': None}"),
    ("duplicate", lambda t: t["faces"].append(dict(t["faces"][0])),
     "duplicate face records for the same (dim, i, alpha, cell)"),
    ("negative-dim", _set(["cells", "-1"], ["z"]),
     "malformed document: cell dimension must be a non-negative int: -1"),
    ("index-range", _set(["faces", 0, "i"], 2), "malformed document: face index 2 out of range 1..1"),
    ("sign", _set(["faces", 0, "alpha"], 2), "malformed document: face sign must be 0 or 1: 2"),
    ("face-dim", _set(["faces", 0, "dim"], 0),
     "malformed document: face dimension must be an int >= 1: 0"),
    ("undeclared", _set(["faces", 0, "cell"], "ghost"),
     "malformed document: face keyed on undeclared cell (1, 'ghost')"),
    ("duplicate-label", lambda t: t["cells"]["0"].append("00"),
     "malformed document: duplicate labels in dimension 0: ['00']"),
    ("top-dim", _set(["top_dim"], 5), "declared top_dim 5 does not match cells (top dimension 2)"),
    ("top-dim-bool", _set(["top_dim"], True), "'top_dim' must be an integer: True"),
    ("top-dim-float", _set(["top_dim"], 2.0), "'top_dim' must be an integer: 2.0"),
    ("top-dim-string", _set(["top_dim"], "2"), "'top_dim' must be an integer: '2'"),
    ("missing", lambda t: t["faces"].pop(0),
     "document violates the precubical axioms: missing-face at dim 1 cell '*0' (i=1, alpha=0)"),
    ("dangling", _set(["faces", 3, "value"], "nowhere"),
     "document violates the precubical axioms: dangling-face at dim 1 cell '*1' (i=1, alpha=1): "
     "points at undeclared cell 'nowhere'"),
    ("relation", _relation_break,
     "document violates the precubical axioms: cubical-relation at dim 2 cell '**' "
     "(i=1, alpha=0, j=2, beta=0): d[1,0]d[2,0] = '00' but d[1,0]d[1,0] = '01'; "
     "cubical-relation at dim 2 cell '**' (i=1, alpha=0, j=2, beta=1): "
     "d[1,0]d[2,1] = '01' but d[1,1]d[1,0] = '11'"),
    ("no-faces-at-all", _set(["faces"], []),
     "document violates the precubical axioms: missing-face at dim 1 cell '*0' (i=1, alpha=0); "
     "missing-face at dim 1 cell '*0' (i=1, alpha=1); missing-face at dim 1 cell '*1' (i=1, alpha=0); "
     "missing-face at dim 1 cell '*1' (i=1, alpha=1); missing-face at dim 1 cell '0*' (i=1, alpha=0) "
     "(and 7 more)"),
    # documents that no JSON tree gives are written as text
    ("repeated-dim-key", json.dumps(SQUARE_TREE).replace('"cells": {', '"cells": {"0": ["a"], ', 1),
     "repeated key in a JSON object: '0'"),
    ("repeated-face-field", json.dumps(SQUARE_TREE).replace('"cell": "*0"', '"cell": "*0", "cell": "*1"', 1),
     "repeated key in a JSON object: 'cell'"),
    ("nested-too-deep", "[" * 100000, "document nests arrays or objects too deeply"),
    # int() reads at most sys.get_int_max_str_digits() digits, 4300 by default
    ("long-integer", json.dumps(SQUARE_TREE).replace('"top_dim": 2', '"top_dim": ' + "1" * 5000),
     "document holds an integer too long to read: Exceeds the limit (4300 digits) for integer "
     "string conversion: value has 5000 digits; use sys.set_int_max_str_digits() to increase "
     "the limit"),
    # a row of 2 * 10^20 slots is longer than any list
    ("huge-dimension", HUGE_DIMENSION,
     "malformed document: cell dimension is too large: 99999999999999999999"),
    ("not-utf8", b"\xff\xfe",
     "document is not UTF-8: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
]


def _pushout_with_colons() -> PrecubicalSet:
    """The 3-cube with a square glued at a corner and an edge glued to the
    square: labels such as K:K:*** hold colons."""
    point = standard_cube(0)
    K = pushout(PcsMap(point, standard_cube(3), {(0, ""): "111"}),
                PcsMap(point, standard_cube(2), {(0, ""): "00"}))
    return pushout(PcsMap(point, K, {(0, ""): "M:11"}),
                   PcsMap(point, standard_cube(1), {(0, ""): "0"}))


def _layouts(tree) -> tuple[str, str]:
    """tree as compact JSON, which the hooked read takes, and in the
    canonical layout, which the fast read tries first."""
    return json.dumps(tree), json.dumps(tree, indent=2, sort_keys=True) + "\n"


@pytest.fixture
def hook_calls(monkeypatch):
    """Counts the calls of the repeated-key hook of parse's hooked read."""
    calls = []
    hook = document._object

    def spy(pairs):
        calls.append(len(pairs))
        return hook(pairs)

    monkeypatch.setattr(document, "_object", spy)
    return calls


class TestColumnarPass:
    """parse's one reader: it reads a text without the repeated-key hook
    only when the text is the canonical document of what it read, and each
    choice it makes from the input (the hook, the whole-column record
    checks, face rows from the value column) leaves the outcome of every
    document as it was."""

    @pytest.mark.parametrize("build", [lambda: standard_cube(5), lambda: torus(3),
                                       _pushout_with_colons],
                             ids=["cube5", "torus3", "pushout"])
    def test_canonical_documents_skip_the_hook(self, build, hook_calls):
        K = build()
        text = serialize(K)
        assert parse(text) == K
        assert parse(text.encode("utf-8"), check=False) == K
        assert hook_calls == []

    @pytest.mark.parametrize("drop", [None, 5], ids=["whole", "missing"])
    @pytest.mark.parametrize("build", [lambda: standard_cube(5), lambda: torus(3),
                                       _pushout_with_colons],
                             ids=["cube5", "torus3", "pushout"])
    def test_canonical_documents_are_read_by_their_lines(self, build, drop, monkeypatch):
        # the fast read decodes the cells object and columns cut from the
        # record lines, never the whole text
        K = build()
        tree = json.loads(serialize(K))
        if drop is not None:
            del tree["faces"][drop]
        _, text = _layouts(tree)
        expected = outcome(parse_records, text, False)
        loads, lengths = json.loads, []

        def spy(s, *args, **kwargs):
            lengths.append(len(s))
            return loads(s, *args, **kwargs)

        monkeypatch.setattr(document.json, "loads", spy)
        assert outcome(parse, text, False) == expected
        assert lengths and max(lengths) < len(text)

    @pytest.mark.parametrize("name", ["repeated-dim-key", "repeated-face-field"])
    def test_repeated_keys_go_through_the_hook(self, name, hook_calls):
        _, document_text, message = next(m for m in MALFORMED if m[0] == name)
        with pytest.raises(FormatError) as err:
            parse(document_text)
        assert str(err.value) == message
        assert hook_calls

    def test_missing_face_document_skips_the_hook(self, hook_calls):
        # the canonical layout with one record dropped, as a corrupted
        # document of the benchmark is written
        tree = json.loads(serialize(standard_cube(3)))
        del tree["faces"][7]
        text = json.dumps(tree, indent=2, sort_keys=True) + "\n"
        with pytest.raises(FormatError) as err:
            parse(text)
        assert [v.kind for v in err.value.violations] == ["missing-face"]
        assert outcome(parse, text, False) == outcome(parse_records, text, False)
        assert hook_calls == []

    def test_shuffled_records_skip_the_hook(self, corpus_complex, hook_calls):
        # the name is historical: a compact or reordered text is not what
        # serialize writes, so it is read with the hook; the records keep
        # their outcome either way
        _, K = corpus_complex
        tree = json.loads(serialize(K))
        random.Random(len(tree["faces"])).shuffle(tree["faces"])
        for text in (json.dumps(tree), json.dumps(tree, indent=2, sort_keys=True) + "\n"):
            del hook_calls[:]
            assert parse(text) == K
            assert outcome(parse, text, True) == outcome(parse_records, text, True)
            assert bool(hook_calls) == (text != serialize(K))

    # the colon escape on the whole text is test_colon_escape_goes_through_the_hook
    @pytest.mark.parametrize("edit, drop", [("trailing space", None), ("trailing space", 5),
                                            ("colon escape", 5)],
                             ids=["whole-trailing-space", "missing-trailing-space",
                                  "missing-colon-escape"])
    def test_one_byte_off_canonical_takes_the_hook(self, edit, drop, hook_calls):
        tree = json.loads(serialize(_pushout_with_colons()))
        if drop is not None:
            del tree["faces"][drop]
        canonical = json.dumps(tree, indent=2, sort_keys=True) + "\n"
        if edit == "trailing space":
            text = canonical + " "
        else:
            text = canonical.replace('"K:K:***"', '"K:K\\u003a***"', 1)
            assert text != canonical
        for check in (True, False):
            del hook_calls[:]
            assert outcome(parse, text, check) == outcome(parse, canonical, check)
            assert hook_calls
            assert outcome(parse, text, check) == outcome(parse_records, text, check)

    @pytest.mark.parametrize("edit", ["crlf", "crlf-after-cells", "label-with-a-value-line",
                                      "extra-value-line", "extra-key-line", "reordered-keys",
                                      "cut-after-faces-marker"])
    @pytest.mark.parametrize("drop", [None, 5], ids=["whole", "missing"])
    def test_texts_that_look_canonical_keep_their_outcome(self, edit, drop, hook_calls):
        # each text starts or reads like a canonical document without being
        # one, or is one whose labels hold what a record line holds; the
        # line layout read must give what the per-record pass gives
        if edit == "label-with-a-value-line":
            # the newline is escaped in the text, so no record line begins
            # inside the label
            label = 'w\n      "value": "v"'
            K = PrecubicalSet({0: ["v", label], 1: ["e"]},
                              {(1, 1, 0, "e"): label, (1, 1, 1, "e"): "v"})
        else:
            K = _pushout_with_colons()
        tree = json.loads(serialize(K))
        if drop is not None:
            del tree["faces"][drop % len(tree["faces"])]
        _, text = _layouts(tree)
        faces = text.index(',\n  "faces": ') + len(',\n  "faces": ')
        record = text.index('      "value": ', faces)
        if edit == "crlf":
            text = text.replace("\n", "\r\n")
        elif edit == "crlf-after-cells":
            text = text[:faces] + text[faces:].replace("\n", "\r\n")
        elif edit == "extra-value-line":
            text = text[:record] + '      "value": "00",\n' + text[record:]
        elif edit == "extra-key-line":
            text = text[:record] + '      "note": 1,\n' + text[record:]
        elif edit == "reordered-keys":
            # the dim and i lines of the first record swap places
            start = text.index('      "dim": ', faces)
            end = text.index("\n", text.index('      "i": ', start)) + 1
            dim_line, i_line = text[start:end].splitlines(keepends=True)
            text = text[:start] + i_line + dim_line + text[end:]
        elif edit == "cut-after-faces-marker":
            text = text[:faces]
        for check in (True, False):
            del hook_calls[:]
            assert outcome(parse, text, check) == outcome(parse_records, text, check)
            # only the text that is canonical is read without the hook
            assert bool(hook_calls) == (edit != "label-with-a-value-line")
        if edit == "label-with-a-value-line" and drop is None:
            assert text == serialize(K) and parse(text) == K

    @pytest.mark.parametrize("name", [m[0] for m in MALFORMED
                                      if not isinstance(m[1], (str, bytes)) or m[1][:1] == "{"])
    def test_unknown_key_and_colon_escape_keep_the_outcome(self, name):
        mutate = next(m[1] for m in MALFORMED if m[0] == name)
        if isinstance(mutate, str):
            text = mutate
        else:
            tree = copy.deepcopy(SQUARE_TREE)
            mutate(tree)
            text = json.dumps(tree)
        # the key is read only by the hooked read; its value holds a colon
        extra = text.replace("{", '{"note": {"a": ":"}, ', 1)
        assert outcome(parse, extra, True) == outcome(parse, text, True)
        colon = text.replace('"00"', '"0:0"')
        escaped = text.replace('"00"', '"0\\u003a0"')
        assert escaped != colon
        assert outcome(parse, escaped, True) == outcome(parse, colon, True)

    def test_empty_negative_dimension_is_not_read_as_the_face_table(self):
        # it adds no record and no row, so only its key can reject it
        tree = copy.deepcopy(SQUARE_TREE)
        tree["cells"]["-1"] = []
        for text in _layouts(tree):
            with pytest.raises(FormatError) as err:
                parse(text)
            assert str(err.value) == (
                "malformed document: cell dimension must be a non-negative int: -1")

    @pytest.mark.parametrize("power", [20, 8])
    def test_negative_dimension_does_not_offset_the_face_slots(self, power):
        # cells of dimension -n and n have -2n + 2n = 0 face slots, as many
        # as the records; a row of 2n for the n-cell raised OverflowError
        # at 10^20 and took 3.2 GB at 10^8, so the child caps its memory
        n = 10 ** power
        tree = {"cells": {str(-n): ["b"], str(n): ["x"]}, "faces": [], "format_version": "1",
                "top_dim": n}
        code = ("import resource, sys, tracemalloc\n"
                "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
                "from precubical import FormatError, parse\n"
                "text = sys.stdin.read()\n"
                "tracemalloc.start()\n"
                "try:\n"
                "    parse(text)\n"
                "except FormatError as exc:\n"
                "    print(exc)\n"
                "print(tracemalloc.get_traced_memory()[1])\n")
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        for text in _layouts(tree):
            proc = subprocess.run([sys.executable, "-c", code], input=text, capture_output=True,
                                  text=True, timeout=60, env=dict(os.environ, PYTHONPATH=src))
            assert proc.returncode == 0, proc.stderr
            message, peak = proc.stdout.splitlines()
            assert message == f"malformed document: cell dimension must be a non-negative int: {-n}"
            assert int(peak) < 1_000_000

    def test_empty_dimension_adds_nothing_to_the_face_table(self):
        # the table of a huge dimension without cells used to be built in
        # full: 49 MB for this 88-byte document
        compact = ('{"cells": {"0": ["a"], "1000000": []}, "faces": [], '
                   '"format_version": "1", "top_dim": 0}')
        for text in _layouts(json.loads(compact)):
            tracemalloc.start()
            try:
                K = parse(text)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert K.cell_counts() == (1,)
            assert peak < 1_000_000

    def test_tall_canonical_cell_without_faces_reads_in_bounded_memory(self):
        # 114 bytes in the canonical layout, one cell of dimension 10^5 and
        # no record: the fast read leaves a text whose empty face slots
        # outnumber its records to the hooked read.  Writing it back made
        # 4 * 10^5 strings, a 62 MB peak, before serialize skipped a
        # dimension without face entries.
        text = ('{\n  "cells": {\n    "100000": [\n      "x"\n    ]\n  },\n  "faces": [],\n'
                '  "format_version": "1",\n  "top_dim": 100000\n}\n')
        assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"
        tracemalloc.start()
        try:
            K = parse(text, check=False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert K.cell_counts()[-1] == 1 and K.top_dim == 100000
        assert peak < 8_000_000

    def test_parsed_rows_hold_the_labels_below(self, hook_calls):
        # each face entry of a parsed document is the very string of the
        # cell it names, as in a built complex, and a dangling one keeps its
        # own: whether the face rows are cut from the value column, built
        # from the records of a canonical text with one dropped, or read
        # with the hook from a compact text
        K = standard_cube(4)
        tree = json.loads(serialize(K))
        tree["faces"][-1]["value"] = "nowhere"
        dropped = copy.deepcopy(tree)
        del dropped["faces"][3]
        compact, canonical = _layouts(dropped)
        for text in (serialize(K), *_layouts(tree), compact, canonical):
            del hook_calls[:]
            back = parse(text, check=False)
            assert bool(hook_calls) == text.startswith('{"')
            for (dim, i, alpha, label), value in back.face_map.items():
                if value != "nowhere":
                    below = back.cells(dim - 1)
                    assert below[below.index(value)] is value
        assert back.face_label(4, "****", 4, 1) == "nowhere"
        gone = tree["faces"][3]
        assert back.face_label(gone["dim"], gone["cell"], gone["i"], gone["alpha"]) is None

    def test_parsed_cube_holds_what_a_built_cube_holds(self):
        # the face entries used to be strings of their own: a parsed cube 9
        # held 10.3 MB against 3.3 MB for a built one, and a canonical cube 8
        # with one record dropped 3.15 MB against 1.2 MB
        text = serialize(standard_cube(8))
        tree = json.loads(text)
        del tree["faces"][7]

        def held(make):
            tracemalloc.start()
            try:
                K = make()
                return tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()

        built = held(lambda: standard_cube(8))
        for read in (text, *_layouts(tree)):
            assert held(lambda: parse(read, check=False)) < 1.3 * built

    def test_colon_escape_goes_through_the_hook(self, hook_calls):
        K = _pushout_with_colons()
        text = serialize(K).replace('"K:K:***"', '"K:K\\u003a***"')
        assert text != serialize(K)
        assert parse(text) == K
        assert hook_calls
        for check in (True, False):
            assert outcome(parse, text, check) == outcome(parse_records, text, check)

    def test_colon_escape_cannot_hide_a_repeated_key(self):
        # the escape takes one ":" out of the text and the repeated key adds
        # one, so the colon count alone would balance
        text = serialize(_pushout_with_colons())
        text = text.replace('"K:K:***"', '"K:K\\u003a***"', 1)
        text = text.replace('"faces": [\n    {', '"faces": [\n    {"dim": 9, ', 1)
        with pytest.raises(FormatError) as err:
            parse(text)
        assert str(err.value) == "repeated key in a JSON object: 'dim'"

    @pytest.mark.parametrize("K", [standard_cube(3), _pushout_with_colons()],
                             ids=["cube3", "pushout"])
    def test_dangling_value_is_reported_like_the_per_record_pass(self, K, hook_calls):
        tree = json.loads(serialize(K))
        tree["faces"][-1]["value"] = "x:y"
        compact, canonical = _layouts(tree)
        for text in (compact, canonical):
            del hook_calls[:]
            with pytest.raises(FormatError) as fast:
                parse(text)
            with pytest.raises(FormatError) as slow:
                parse_records(text, True)
            assert str(fast.value) == str(slow.value)
            assert fast.value.violations == slow.value.violations
            assert parse(text, check=False) == parse_records(text, False)
            # only the canonical text is read without the hook
            assert bool(hook_calls) == (text == compact)


class TestMalformedMessages:
    def test_square_tree_is_the_canonical_square(self):
        assert json.loads(serialize(standard_cube(2))) == SQUARE_TREE

    @pytest.mark.parametrize("mutate, message", [m[1:] for m in MALFORMED],
                             ids=[m[0] for m in MALFORMED])
    def test_message(self, mutate, message):
        if isinstance(mutate, (str, bytes)):
            document = mutate
        else:
            tree = copy.deepcopy(SQUARE_TREE)
            mutate(tree)
            document = json.dumps(tree)
        with pytest.raises(FormatError) as err:
            parse(document)
        assert str(err.value) == message

    def test_top_level_array(self):
        with pytest.raises(FormatError) as err:
            parse("[1, 2]")
        assert str(err.value) == "document must be a JSON object"

    def test_syntax_error(self):
        with pytest.raises(FormatError) as err:
            parse("{not json")
        assert str(err.value) == (
            "syntax error at position 1: Expecting property name enclosed in double quotes"
        )


def test_tall_cell_serializes_in_linear_time():
    # one cell of dimension 20,000 and no faces: the writer made the 4d
    # record strings of every dimension up to d, 8 * 10^8 of them
    text = ('{"cells": {"20000": ["x"]}, "faces": [], "format_version": "1", '
            '"top_dim": 20000}')
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; from precubical import parse, serialize; "
         "sys.stdout.write(serialize(parse(sys.stdin.read(), check=False)))"],
        input=text, capture_output=True, text=True, timeout=30,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"


def test_tall_cell_without_faces_serializes_in_bounded_memory():
    # one cell of dimension 10^5 and no faces: the writer built the 4 * 10^5
    # record parts of its slots, a 62 MB peak for 114 bytes of output
    K = PrecubicalSet({100000: ["x"]})
    tracemalloc.start()
    try:
        text = serialize(K)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert text == ('{\n  "cells": {\n    "100000": [\n      "x"\n    ]\n  },\n  "faces": [],\n'
                    '  "format_version": "1",\n  "top_dim": 100000\n}\n')
    assert peak < 4_000_000


README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_example_is_the_circle_document():
    readme = README.read_text(encoding="utf-8")
    section = readme.split("## Document format", 1)[1]
    example = section.split("```json\n", 1)[1].split("```", 1)[0]
    assert example == serialize(circle())


def leading_literal(text: str):
    """The value of the shortest start of text that is a Python literal:
    the value a README comment gives before its prose."""
    for end in range(1, len(text) + 1):
        try:
            return ast.literal_eval(text[:end])
        except (SyntaxError, ValueError):
            continue
    raise ValueError(f"no literal at the start of {text!r}")


def test_readme_library_tour_gives_the_commented_values():
    readme = README.read_text(encoding="utf-8")
    tour = readme.split("## Library tour", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    lines = tour.splitlines()
    namespace = {}
    checked = []
    for node in ast.parse(tour).body:
        if not isinstance(node, ast.Expr):
            exec(compile(ast.Module([node], []), "README.md", "exec"), namespace)
            continue
        comment = lines[node.end_lineno - 1][node.end_col_offset:].strip()
        assert comment.startswith("# "), ast.unparse(node)
        expected = leading_literal(comment[2:])
        value = eval(compile(ast.Expression(node.value), "README.md", "eval"), namespace)
        assert value == expected, ast.unparse(node)
        checked.append(expected)
    assert checked == [[], (1, 6), ("*00", "1*0", "11*"), True, (1, 0, 1)]
