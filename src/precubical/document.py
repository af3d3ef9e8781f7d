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

serialize writes each dimension's face records as whole columns, and
parse builds a complex from its face rows alone, as every builder does.
parse accepts any layout and has one reader, with a fast read for the
canonical layout.  A text that starts as every canonical document does is
read by that layout, without decoding it as one JSON tree: json escapes
every newline inside a string, so each newline of a canonical text is
structural.  The cells object ends at the first line that opens with
'  "faces": ', and after that each record holds its value on a line of
its own.  A text that declares a negative dimension goes straight to
the hooked read, since its face slots would offset those of the other
cells.  When a text has as many value lines as its cells have face slots,
the face rows are cut straight from the value column, each entry the very
label of the cell it names; when at most half the face slots are empty,
the alpha, cell, dim and i lines above each value are read too, and the
records go through the constructor's structural checks.  Whatever the
layout read proposes is kept only if writing it back gives the text byte
for byte.  The writer never repeats a key or a label and puts every line
where the layout read looks for it, so a text with a repeated key or
label or a line out of place is never kept, and since
parse(serialize(K)) == K, a kept text gives what the hooked read would.
Every other document is read with the hook, so a repeated key is
reported before anything else, and then goes through the shape checks,
one face record at a time, and the constructor's structural checks.
"""

from __future__ import annotations

import json
import re
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
    return _text(K)


def _text(K: PrecubicalSet) -> str:
    # the writer behind serialize.  parse checks its fast read with this
    # one, not with serialize, because a benchmark or a tracer may replace
    # the public name.  _quote is what json.dumps calls on a str.
    quoted = {d: list(map(_quote, K.cells(d))) for d in range(K.top_dim + 1) if K.cells(d)}
    cells = ['    "%d": [\n      %s\n    ]' % (d, ",\n      ".join(quoted[d]))
             for d in sorted(quoted, key=str)]
    # a record is head, cell, middle, value and its closing brace and comma
    # for its slot (i, alpha).  Walking the sorted labels and each face row
    # in slot order visits the entries in canonical order.  Only the
    # dimensions that have a face entry are walked, so a tall cell without
    # faces costs its row, not 4n record parts.
    records = []
    for d in quoted:
        values = list(chain.from_iterable(map(_face_rows(K, d).__getitem__, K.cells(d))))
        if values.count(None) == len(values):
            continue
        slots = [(i, alpha) for i in range(1, d + 1) for alpha in (0, 1)]
        heads = ['    {\n      "alpha": %d,\n      "cell": ' % alpha for _, alpha in slots]
        middles = [',\n      "dim": %d,\n      "i": %d,\n      "value": ' % (d, i)
                   for i, _ in slots]
        present = list(map(is_not, values, repeat(None)))
        column = chain.from_iterable(map(repeat, quoted[d], repeat(2 * d)))
        records += map("".join, zip(compress(cycle(heads), present), compress(column, present),
                                    compress(cycle(middles), present),
                                    map(_quote, compress(values, present)), repeat("\n    },\n")))
    if records:
        # the last record is followed by the end of the array, not a comma
        records[-1] = records[-1].removesuffix(",\n") + "\n  ]"
    head = '{\n  "cells": %s,\n  "faces": %s' % (
        "{\n" + ",\n".join(cells) + "\n  }" if cells else "{}", "[\n" if records else "[]")
    tail = ',\n  "format_version": %s,\n  "top_dim": %d\n}\n' % (_quote(FORMAT_VERSION), K.top_dim)
    # one join, so that the text is built once
    return "".join(chain([head], records, [tail]))


# the fields of a face record, in canonical order, and the type of each
_FACE_FIELDS = {"dim": int, "i": int, "alpha": int, "cell": str, "value": str}
# the key (dim, i, alpha, cell) of a face record
_FACE_KEY = itemgetter("dim", "i", "alpha", "cell")


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
        if isinstance(data, (bytes, bytearray)):
            data = data.decode("utf-8")
        elif not isinstance(data, str):
            raise TypeError(f"the JSON object must be str, bytes or bytearray, "
                            f"not {type(data).__name__}")
        K = _canonical(data)
        if K is None:
            cells, records, top_dim = _shape(json.loads(data, object_pairs_hook=_object))
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
    if K is None:
        # the face rows go through the constructor's structural checks;
        # duplicate records are reported before any structural failure
        try:
            rows = _tabulate(cells, zip(map(_FACE_KEY, records),
                                        map(itemgetter("value"), records)))
        except ValueError as exc:
            if len(set(map(_FACE_KEY, records))) != len(records):
                message = "duplicate face records for the same (dim, i, alpha, cell)"
                raise FormatError(message) from None
            raise FormatError(f"malformed document: {exc}") from exc
        K = PrecubicalSet._adopt(rows, False)
        if not isinstance(top_dim, int) or isinstance(top_dim, bool):
            raise FormatError(f"'top_dim' must be an integer: {top_dim!r}")
        if top_dim != K.top_dim:
            raise FormatError(
                f"declared top_dim {top_dim} does not match cells (top dimension {K.top_dim})"
            )
    if check:
        _check(K)
    return K


def _canonical(text: str) -> PrecubicalSet | None:
    """The complex of text, proposed from the lines that serialize writes
    and kept only when text is the canonical document of that complex;
    None for every other text, so that the hooked read reports on it.

    The proposal decodes the cells object and the value column, and when
    faces are missing the alpha, cell, dim and i lines too, each with one
    json.loads; the text is never decoded as one JSON tree."""
    if not text.startswith('{\n  "cells": '):
        return None
    # nothing here names a fault: a text this read takes wrongly, such as
    # one with a label that is not a string, a pair that json.loads
    # dropped or a line out of place, either raises or is not what the
    # writer gives back
    try:
        # every newline of a canonical text is structural, so the cells
        # object ends at the first ",\n  "faces": "
        faces = text.index(',\n  "faces": ')
        cells = {int(d): labels for d, labels in json.loads(text[13:faces]).items()}
        if min(cells, default=0) < 0:
            # a negative dimension would offset a positive one in the slot
            # count, and so lift the bound below
            return None
        values = json.loads("[%s]" % ",".join(re.compile(_VALUE).findall(text, faces)))
        slots = sum(2 * d * len(labels) for d, labels in cells.items())
        if slots == len(values):
            # the complete face table, if the write-back agrees: an
            # n-cell's row is its next 2n values, each the very label of
            # the cell below that it names, and a vertex's row is ()
            rows, start = {}, 0
            for d in sorted(d for d, labels in cells.items() if labels):
                end = start + 2 * d * len(cells[d])
                below, part = {label: label for label in cells.get(d - 1, ())}, values[start:end]
                column = map(below.get, part, part)
                rows[d] = dict(zip(cells[d], zip(*[column] * (2 * d)) if d else repeat(())))
                start = end
        elif slots <= 2 * len(values):
            # some faces are missing; the bound keeps the empty slots, and
            # so the work of the write-back, within the size of the text.
            # The lines above each value give its alpha, cell, dim and i.
            keys = json.loads("[%s]" % ",".join(map(",".join,
                                                    re.compile(_HEAD).findall(text, faces))))
            rows = _tabulate(cells, zip(zip(keys[2::4], keys[3::4], keys[::4], keys[1::4]),
                                        values))
            del keys
        else:
            return None
        # the columns are dropped before the write-back, which would
        # otherwise peak on top of them
        del values
        K = PrecubicalSet._adopt(rows, False)
        return K if _text(K) == text else None
    except (ValueError, TypeError, LookupError, AttributeError, RecursionError):
        return None


# the lines of a canonical face record: its value, and above it its
# alpha, cell, dim and i, each up to the comma that ends the line
_VALUE = r'\n      "value": (.*)'
_HEAD = r'\n      "alpha": (.*),\n      "cell": (.*),\n      "dim": (.*),\n      "i": (.*),'


def _shape(tree) -> tuple[dict, list, object]:
    """The cells {dim: labels}, face records and top_dim of a JSON tree,
    through the document's shape checks in order: the first that fails
    raises FormatError."""
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

    records = tree["faces"]
    for record in records:
        if not isinstance(record, dict):
            raise FormatError(f"face record must be an object: {record!r}")
        if record.keys() != _FACE_FIELDS.keys():
            raise FormatError(
                f"face record must have exactly the keys dim, i, alpha, cell, value: {record!r}"
            )
        # json.loads yields exact int and str objects, so the type test
        # below rejects bools and floats
        for field, kind in _FACE_FIELDS.items():
            if type(record[field]) is not kind:
                noun = "an integer" if kind is int else "a string"
                raise FormatError(f"face field {field!r} must be {noun}: {record!r}")
    return cells, records, tree["top_dim"]


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
    return PrecubicalSet._adopt({0: {"v": ()}, 1: {"loop": ("v", "v")}}, True)


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
    vertices = dict.fromkeys(map(str, range(k + 1)), ())
    edges = {f"{i}-{i + 1}": (str(i), str(i + 1)) for i in range(k)}
    return PrecubicalSet._adopt({0: vertices, 1: edges}, True)


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
