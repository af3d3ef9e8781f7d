"""Document format: canonical serialization, parsing, named generators."""

import copy
import json
import random
import tracemalloc

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
    isomorphic,
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

from conftest import glued_circle, outcome, parse_records, reference_text


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
    """parse's one reader: which documents the colon count lets it read
    without the repeated-key hook, and that each choice it makes from the
    input (the hook, the whole-column record checks, face rows from the
    value column) leaves the outcome of every document as it was."""

    @pytest.mark.parametrize("build", [lambda: standard_cube(5), lambda: torus(3),
                                       _pushout_with_colons],
                             ids=["cube5", "torus3", "pushout"])
    def test_canonical_documents_skip_the_hook(self, build, hook_calls):
        K = build()
        text = serialize(K)
        assert parse(text) == K
        assert parse(text.encode("utf-8"), check=False) == K
        assert hook_calls == []

    @pytest.mark.parametrize("name", ["repeated-dim-key", "repeated-face-field"])
    def test_repeated_keys_go_through_the_hook(self, name, hook_calls):
        _, document_text, message = next(m for m in MALFORMED if m[0] == name)
        with pytest.raises(FormatError) as err:
            parse(document_text)
        assert str(err.value) == message
        assert hook_calls

    def test_missing_face_document_skips_the_hook(self, hook_calls):
        tree = json.loads(serialize(standard_cube(3)))
        del tree["faces"][7]
        with pytest.raises(FormatError) as err:
            parse(json.dumps(tree))
        assert [v.kind for v in err.value.violations] == ["missing-face"]
        assert hook_calls == []

    def test_shuffled_records_skip_the_hook(self, corpus_complex, hook_calls):
        _, K = corpus_complex
        tree = json.loads(serialize(K))
        random.Random(len(tree["faces"])).shuffle(tree["faces"])
        assert parse(json.dumps(tree)) == K
        assert hook_calls == []

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
        with pytest.raises(FormatError) as err:
            parse(json.dumps(tree))
        assert str(err.value) == "malformed document: cell dimension must be a non-negative int: -1"

    def test_empty_dimension_adds_nothing_to_the_face_table(self):
        # the table of a huge dimension without cells used to be built in
        # full: 49 MB for this 88-byte document
        text = ('{"cells": {"0": ["a"], "1000000": []}, "faces": [], '
                '"format_version": "1", "top_dim": 0}')
        tracemalloc.start()
        try:
            K = parse(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert K.cell_counts() == (1,)
        assert peak < 1_000_000

    def test_colon_escape_goes_through_the_hook(self, hook_calls):
        K = _pushout_with_colons()
        text = serialize(K).replace('"K:K:***"', '"K:K\\u003a***"')
        assert parse(text) == K
        assert hook_calls

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
    def test_dangling_value_is_reported_like_the_per_record_pass(self, K):
        tree = json.loads(serialize(K))
        tree["faces"][-1]["value"] = "x:y"
        text = json.dumps(tree)
        with pytest.raises(FormatError) as fast:
            parse(text)
        with pytest.raises(FormatError) as slow:
            parse_records(text, True)
        assert str(fast.value) == str(slow.value)
        assert fast.value.violations == slow.value.violations
        assert parse(text, check=False) == parse_records(text, False)


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


def test_readme_example_is_the_circle_document():
    from pathlib import Path

    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Document format", 1)[1]
    example = section.split("```json\n", 1)[1].split("```", 1)[0]
    assert example == serialize(circle())
