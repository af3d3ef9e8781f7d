"""Canonical JSON document format and named complex generators.

A document is a JSON object

    {
      "format_version": "1",
      "top_dim": <int>,
      "cells": {"<dim>": [label, ...], ...},
      "faces": [{"dim": n, "i": i, "alpha": a, "cell": c, "value": v}, ...]
    }

Every dimension key is the decimal form of a non-negative int ("0", not
"00" or " 0") and top_dim is an integer.  serialize writes one fixed
layout, the one json.dumps(tree, indent=2, sort_keys=True) gives the tree
followed by a newline:

- two-space indentation, "," at line ends and ": " after keys, and
  ASCII-only strings with json's escapes (json.dumps of each label);
- top-level keys in the order cells, faces, format_version, top_dim;
- dimension keys sorted as strings (so "10" comes before "2"), only
  dimensions that have cells, each label on its own line in sorted order;
- face records sorted by (dim, cell, i, alpha), each record's keys in the
  order alpha, cell, dim, i, value;
- an empty cells object or faces array written as {} or [].

So serialize(parse(serialize(K))) is byte-identical to serialize(K).

Both directions move each dimension's face records as whole columns.
parse accepts any layout and has one reader.  It reads the text without
json's repeated-key hook and checks the tree's shape, one whole column at
a time.  When the tree has exactly the four top-level keys and the text
has no ":" escape, the number of ":" in the text vouches that no key was
repeated.  Any other document, and any that fails a shape check, is read
again with the hook, so a repeated key is reported before anything else.
When the face columns are the complete face table of the cells in the
order they are listed, the rows come straight from the value column;
otherwise each record goes through the constructor's structural checks.
"""

from __future__ import annotations

import json
from collections import Counter
from itertools import chain, compress, cycle, repeat
from json.encoder import encode_basestring_ascii as _quote
from operator import is_not, itemgetter

from .core import (PrecubicalSet, _face_rows, _tabulate, standard_cube, boundary_cube, tensor,
                   validate)

FORMAT_VERSION = "1"


class FormatError(ValueError):
    """A document that cannot be accepted; carries validation violations if any."""

    def __init__(self, message: str, violations=()):
        super().__init__(message)
        self.violations = tuple(violations)


def serialize(K: PrecubicalSet) -> str:
    """Canonical document text for K (UTF-8 friendly, newline-terminated)."""
    # _quote is what json.dumps calls on a str
    quoted = {d: list(map(_quote, K.cells(d))) for d in range(K.top_dim + 1) if K.cells(d)}
    cells = ['    "%d": [\n      %s\n    ]' % (d, ",\n      ".join(quoted[d]))
             for d in sorted(quoted, key=str)]
    # a record is head, cell, middle, value for its slot (i, alpha); the
    # closing brace goes into the separator.  Walking the sorted labels and
    # each face row in slot order visits the entries in canonical order.
    records = []
    for d in range(1, K.top_dim + 1):
        labels = K.cells(d)
        slots = [(i, alpha) for i in range(1, d + 1) for alpha in (0, 1)]
        heads = ['    {\n      "alpha": %d,\n      "cell": ' % alpha for _, alpha in slots]
        middles = [',\n      "dim": %d,\n      "i": %d,\n      "value": ' % (d, i)
                   for i, _ in slots]
        values = list(chain.from_iterable(map(_face_rows(K, d).__getitem__, labels)))
        present = list(map(is_not, values, repeat(None)))
        column = chain.from_iterable(map(repeat, quoted.get(d, ()), repeat(2 * d)))
        records += map("".join, zip(compress(cycle(heads), present), compress(column, present),
                                    compress(cycle(middles), present),
                                    map(_quote, compress(values, present))))
    return '{\n  "cells": %s,\n  "faces": %s,\n  "format_version": %s,\n  "top_dim": %d\n}\n' % (
        "{\n" + ",\n".join(cells) + "\n  }" if cells else "{}",
        "[\n" + "\n    },\n".join(records) + "\n    }\n  ]" if records else "[]",
        _quote(FORMAT_VERSION),
        K.top_dim,
    )


_TOP_KEYS = frozenset({"cells", "faces", "format_version", "top_dim"})
# the fields of a face record, in canonical order, and the type of each
_FACE_FIELDS = {"dim": int, "i": int, "alpha": int, "cell": str, "value": str}


def _object(pairs: list) -> dict:
    # json.loads would keep the last of two equal keys and drop the other
    obj = dict(pairs)
    if len(obj) < len(pairs):
        key = next(k for k, n in Counter(k for k, _ in pairs).items() if n > 1)
        raise FormatError(f"repeated key in a JSON object: {key!r}")
    return obj


def parse(data, check: bool = True) -> PrecubicalSet:
    """Read a document back into a precubical set.

    With check=True (the default) the result must validate; violations are
    rejected with a FormatError listing them.  check=False returns the raw
    structure so callers can report violations themselves.  Every rejected
    document, from bytes that are not UTF-8 to a violated axiom, raises
    FormatError.
    """
    try:
        if isinstance(data, bytes):
            data = data.decode("utf-8")
        # json.loads reads a bytearray in whatever UTF encoding it detects,
        # so only a str is counted; any other input takes the hooked read
        shape = _unhooked_shape(data) if isinstance(data, str) else None
        if shape is None:
            shape = _shape(json.loads(data, object_pairs_hook=_object))
    except UnicodeDecodeError as exc:
        raise FormatError(f"document is not UTF-8: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise FormatError(f"syntax error at position {exc.pos}: {exc.msg}") from exc
    except RecursionError as exc:
        raise FormatError("document nests arrays or objects too deeply") from exc
    except FormatError:
        raise
    except ValueError as exc:
        # int() refuses a literal longer than sys.get_int_max_str_digits()
        raise FormatError(f"document holds an integer too long to read: {exc}") from exc
    cells, columns, top_dim = shape

    # the face rows go through the constructor's structural checks, unless
    # the columns are the complete face table; duplicate records are
    # reported before any structural failure
    rows = _table_rows(cells, columns)
    try:
        if rows is None:
            cells, rows = _tabulate(cells, zip(zip(*columns[:4]), columns[4]))
        K = PrecubicalSet._adopt(cells, rows, False)
    except ValueError as exc:
        if len(set(zip(*columns[:4]))) != len(columns[4]):
            message = "duplicate face records for the same (dim, i, alpha, cell)"
            raise FormatError(message) from None
        raise FormatError(f"malformed document: {exc}") from exc
    if not isinstance(top_dim, int) or isinstance(top_dim, bool):
        raise FormatError(f"'top_dim' must be an integer: {top_dim!r}")
    if top_dim != K.top_dim:
        raise FormatError(
            f"declared top_dim {top_dim} does not match cells (top dimension {K.top_dim})"
        )
    if check:
        _check(K)
    return K


def _unhooked_shape(text: str):
    """The _shape of text read without the repeated-key hook, when the
    colon count vouches that no key is repeated; None otherwise, and for
    every text that fails a check, so that the hooked read reports it."""
    if "\\u003" in text:
        return None
    try:
        cells, columns, top_dim = _shape(json.loads(text))
    except (ValueError, RecursionError):
        return None
    # json.loads keeps only the last of two equal keys, so count that no
    # pair was dropped.  Every key/value pair of the text has exactly one
    # ":" outside strings, and with no : escape in the text (no "\u003" at
    # all) each string has exactly the colons of its own literal.  The sum
    # below counts the pairs _shape read (the four top-level keys, the
    # dimension keys and five fields a record) and the colons of the
    # strings it read (labels, cell and value columns); none of their keys
    # holds one.  Any other pair or string in the text, such as a fifth
    # top-level key or a pair that json.loads dropped, adds at least one
    # ":" to the text's count and none to the sum.
    pairs = len(_TOP_KEYS) + len(cells) + len(_FACE_FIELDS) * len(columns[4])
    strings = chain(chain.from_iterable(cells.values()), columns[3], columns[4])
    if text.count(":") != pairs + "".join(strings).count(":"):
        return None
    return cells, columns, top_dim


def _shape(tree) -> tuple[dict, list, object]:
    """The cells {dim: labels}, face columns (dim, i, alpha, cell, value)
    and top_dim of a JSON tree, through the document's shape checks in
    order: the first that fails raises FormatError."""
    # each check builds its message only when it fails
    if not isinstance(tree, dict):
        raise FormatError("document must be a JSON object")
    version = tree.get("format_version")
    if version != FORMAT_VERSION:
        raise FormatError(
            f"unknown format version: {version!r} (expected {FORMAT_VERSION!r})"
        )
    for key in ("top_dim", "cells", "faces"):
        if key not in tree:
            raise FormatError(f"document is missing the {key!r} key")
    if not isinstance(tree["cells"], dict):
        raise FormatError("'cells' must be an object")
    if not isinstance(tree["faces"], list):
        raise FormatError("'faces' must be an array")

    cells = {}
    for dim_key, labels in tree["cells"].items():
        try:
            dim = int(dim_key)
        except ValueError:
            raise FormatError(f"cell dimension key is not an integer: {dim_key!r}")
        if str(dim) != dim_key:
            raise FormatError(
                f"cell dimension key is not in canonical form: {dim_key!r} (expected {str(dim)!r})"
            )
        if not isinstance(labels, list):
            raise FormatError(f"cells[{dim_key!r}] must be an array")
        if not set(map(type, labels)) <= {str}:
            label = next(label for label in labels if type(label) is not str)
            raise FormatError(f"cell label is not a string: {label!r}")
        cells[dim] = labels

    # the fields are read and type-checked as whole columns: a record of
    # five keys from which every field can be read has exactly those.  The
    # loop below runs only when that fails, to name the first bad record.
    records, columns = tree["faces"], None
    if set(map(type, records)) <= {dict} and set(map(len, records)) <= {len(_FACE_FIELDS)}:
        try:
            columns = [list(map(itemgetter(field), records)) for field in _FACE_FIELDS]
        except KeyError:
            pass
    if columns is None or not all(set(map(type, column)) <= {kind}
                                  for column, kind in zip(columns, _FACE_FIELDS.values())):
        for record in records:
            if not isinstance(record, dict):
                raise FormatError(f"face record must be an object: {record!r}")
            if record.keys() != _FACE_FIELDS.keys():
                raise FormatError(
                    f"face record must have exactly the keys dim, i, alpha, cell, value: {record!r}"
                )
            # json.loads yields exact int and str objects, so the type
            # tests below reject bools and floats
            for field in ("dim", "i", "alpha"):
                if type(record[field]) is not int:
                    raise FormatError(f"face field {field!r} must be an integer: {record!r}")
            for field in ("cell", "value"):
                if type(record[field]) is not str:
                    raise FormatError(f"face field {field!r} must be a string: {record!r}")
    return cells, columns, tree["top_dim"]


def _table_rows(cells, columns) -> dict | None:
    """The face rows of cells when the columns are their complete face
    table, each cell's 2n entries in slot order and the cells in the order
    cells lists them (canonical order when the labels are sorted); None
    otherwise."""
    # an n-cell has 2n faces; the count is checked before the table is
    # built, so the table is no longer than the document
    if min(cells, default=0) < 0 \
            or len(columns[4]) != sum(2 * d * len(labels) for d, labels in cells.items()):
        return None
    # a dimension without cells has no rows, however large it is
    filled = sorted(d for d, labels in cells.items() if labels)
    dims, indices, signs, owners = [], [], [], []
    for d in filled:
        labels = cells[d]
        dims += [d] * (2 * d * len(labels))
        indices += [i for i in range(1, d + 1) for _ in (0, 1)] * len(labels)
        signs += [0, 1] * (d * len(labels))
        owners += chain.from_iterable(map(repeat, labels, repeat(2 * d)))
    if columns[:4] != [dims, indices, signs, owners]:
        return None
    # an n-cell's row is its next 2n values, and a vertex's row is ()
    entries = iter(columns[4])
    return {d: dict(zip(cells[d], zip(*[entries] * (2 * d)) if d else repeat(())))
            for d in filled}


def _check(K: PrecubicalSet) -> None:
    """Raise FormatError listing the violations of K, if it has any."""
    violations = validate(K)
    if violations:
        summary = "; ".join(str(v) for v in violations[:5])
        more = "" if len(violations) <= 5 else f" (and {len(violations) - 5} more)"
        raise FormatError(
            f"document violates the precubical axioms: {summary}{more}",
            violations=violations,
        )


def circle() -> PrecubicalSet:
    """The directed circle: one vertex, one loop edge."""
    return PrecubicalSet._adopt({0: ["v"], 1: ["loop"]}, {0: {"v": ()}, 1: {"loop": ("v", "v")}},
                                True)


def torus(d: int) -> PrecubicalSet:
    """The d-fold tensor power of the directed circle (a point for d = 0)."""
    if d < 0:
        raise ValueError("torus dimension must be non-negative")
    if d == 0:
        return standard_cube(0)
    K = circle()
    for _ in range(d - 1):
        K = tensor(K, circle())
    return K


def cylinder() -> PrecubicalSet:
    """The directed circle crossed with one edge."""
    return tensor(circle(), standard_cube(1))


def interval(k: int) -> PrecubicalSet:
    """The directed path with k edges and k + 1 vertices."""
    if k < 0:
        raise ValueError("interval length must be non-negative")
    # a vertex's face row is (), an edge's is (source, target)
    vertices = [str(i) for i in range(k + 1)]
    edges = {f"{i}-{i + 1}": (str(i), str(i + 1)) for i in range(k)}
    return PrecubicalSet._adopt({0: vertices, 1: list(edges)},
                                {0: dict.fromkeys(vertices, ()), 1: edges}, True)


_FAMILIES = {
    "cube": (standard_cube, True),
    "boundary": (boundary_cube, True),
    "circle": (circle, False),
    "torus": (torus, True),
    "cylinder": (cylinder, False),
    "interval": (interval, True),
}


def generate(family: str, param: int | None = None) -> PrecubicalSet:
    """Build a named complex: cube n, boundary n, circle, torus d, cylinder,
    interval k."""
    if family not in _FAMILIES:
        known = ", ".join(sorted(_FAMILIES))
        raise ValueError(f"unknown family {family!r} (known: {known})")
    builder, needs_param = _FAMILIES[family]
    if needs_param:
        if param is None:
            raise ValueError(f"family {family!r} needs an integer parameter")
        return builder(param)
    if param is not None:
        raise ValueError(f"family {family!r} takes no parameter")
    return builder()
