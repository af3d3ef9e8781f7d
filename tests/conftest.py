"""Shared test corpus and independent oracles.

The oracles here deliberately avoid the library code paths they are
checking: corners are recomputed over every admissible face order, the
product order is built from vertex words directly, flow morphism counts
come from raw word enumeration, and path classes come from listing every
edge path and saturating it under square moves.
"""

import itertools
import json
import random

import pytest

from precubical import (
    CellId,
    PcsMap,
    PrecubicalSet,
    boundary_cube,
    circle,
    cylinder,
    disjoint_union,
    interval,
    pushout,
    standard_cube,
    torus,
)
from precubical.core import (STAR, Violation, _UnionFind, _face_rows, _require_valid, _tabulate,
                             cube_words)
from precubical.document import FORMAT_VERSION, FormatError, _FACE_FIELDS, _check, _object


def glued_path() -> PrecubicalSet:
    """Two copies of the edge glued end to start."""
    point = standard_cube(0)
    edge = standard_cube(1)
    f = PcsMap(point, edge, {(0, ""): "1"})
    g = PcsMap(point, edge, {(0, ""): "0"})
    return pushout(f, g)


def glued_circle() -> PrecubicalSet:
    """Both endpoints of the edge glued onto a single vertex."""
    two_points = disjoint_union(standard_cube(0), standard_cube(0))
    f = PcsMap(two_points, standard_cube(1), {(0, "K:"): "0", (0, "M:"): "1"})
    g = PcsMap(two_points, standard_cube(0), {(0, "K:"): "", (0, "M:"): ""})
    return pushout(f, g)


def wedge_of_circles() -> PrecubicalSet:
    """Two circles sharing their vertex."""
    point = standard_cube(0)
    f = PcsMap(point, circle(), {(0, ""): "v"})
    g = PcsMap(point, circle(), {(0, ""): "v"})
    return pushout(f, g)


def klein_bottle() -> PrecubicalSet:
    """One vertex v, two loops a and b, and a square s glued along them by
    d[1,0]s = d[2,1]s = a and d[1,1]s = d[2,0]s = b.  Its integer homology
    is (Z, Z + Z/2, 0), the suite's one source of torsion."""
    loops = {(1, 1, alpha, e): "v" for e in ("a", "b") for alpha in (0, 1)}
    square = {(2, 1, 0, "s"): "a", (2, 2, 1, "s"): "a", (2, 1, 1, "s"): "b", (2, 2, 0, "s"): "b"}
    return PrecubicalSet({0: ["v"], 1: ["a", "b"], 2: ["s"]}, {**loops, **square})


def build_corpus() -> list:
    """Every named complex the suite quantifies over."""
    items = [
        ("empty", boundary_cube(0)),
        ("point", standard_cube(0)),
        ("interval3", interval(3)),
        ("circle", circle()),
        ("cylinder", cylinder()),
        ("torus2", torus(2)),
        ("torus3", torus(3)),
        ("glued_path", glued_path()),
        ("glued_circle", glued_circle()),
        ("wedge_circles", wedge_of_circles()),
    ]
    items.extend((f"cube{n}", standard_cube(n)) for n in range(5))
    items.extend((f"boundary{n}", boundary_cube(n)) for n in range(1, 6))
    return items


CORPUS = build_corpus()


@pytest.fixture(params=CORPUS, ids=[name for name, _ in CORPUS])
def corpus_complex(request):
    return request.param


BASE_BUILDERS = (
    lambda: standard_cube(1),
    lambda: standard_cube(2),
    lambda: standard_cube(3),
    lambda: boundary_cube(2),
    lambda: interval(2),
    circle,
)


def _edge_ends(K: PrecubicalSet, e: str):
    return K.face_label(1, e, 1, 0), K.face_label(1, e, 1, 1)


def random_glued_complex(rng: random.Random) -> PrecubicalSet:
    """A random pushout-glued complex: base pieces joined along a shared
    vertex or a shared edge, one to three times."""
    K = rng.choice(BASE_BUILDERS)()
    for _ in range(rng.randint(1, 3)):
        M = rng.choice(BASE_BUILDERS)()
        if rng.random() < 0.5:
            point = standard_cube(0)
            f = PcsMap(point, K, {(0, ""): rng.choice(K.cells(0))})
            g = PcsMap(point, M, {(0, ""): rng.choice(M.cells(0))})
        else:
            edge = standard_cube(1)
            eK = rng.choice(K.cells(1))
            eM = rng.choice(M.cells(1))
            sK, tK = _edge_ends(K, eK)
            sM, tM = _edge_ends(M, eM)
            f = PcsMap(edge, K, {(1, "*"): eK, (0, "0"): sK, (0, "1"): tK})
            g = PcsMap(edge, M, {(1, "*"): eM, (0, "0"): sM, (0, "1"): tM})
        K = pushout(f, g)
    return K


def corner_routes(K: PrecubicalSet, c: CellId, alpha: int) -> set:
    """Every vertex reachable by iterated (i, alpha) faces, over all
    admissible index sequences.  The cubical relations promise a singleton."""
    if c.dim == 0:
        return {c.label}
    out = set()
    for i in range(1, c.dim + 1):
        out |= corner_routes(K, K.face(c, i, alpha), alpha)
    return out


def product_order_pairs(n: int) -> set:
    """The strict product order on {0,1}^n vertex words, built from scratch."""
    vertices = ["".join(bits) for bits in itertools.product("01", repeat=n)]
    return {
        (u, v)
        for u in vertices
        for v in vertices
        if u != v and all(a <= b for a, b in zip(u, v))
    }


def flow_word_count(n: int) -> int:
    """Brute-force morphism count of the n-cube flow: words over the three
    letters 0, 1, star containing at least one star."""
    return sum(
        1
        for word in itertools.product("01*", repeat=n)
        if "*" in word
    )


def _brute_tables(K: PrecubicalSet):
    """The edges leaving each state, and each swappable consecutive edge
    pair mapped to its alternatives, read straight off the face table."""
    outgoing = {s: [] for s in K.cells(0)}
    for e in K.cells(1):
        src, tgt = _edge_ends(K, e)
        outgoing[src].append((e, tgt))
    swap = {}
    for s in K.cells(2):
        low = (K.face_label(2, s, 2, 0), K.face_label(2, s, 1, 1))
        high = (K.face_label(2, s, 1, 0), K.face_label(2, s, 2, 1))
        swap.setdefault(low, set()).add(high)
        swap.setdefault(high, set()).add(low)
    return outgoing, swap


def _brute_paths(outgoing: dict, a: str, max_len: int):
    """Yield (target, path) for every edge tuple out of a of length 1..max_len."""
    stack = [(a, ())]
    while stack:
        at, prefix = stack.pop()
        if len(prefix) >= max_len:
            continue
        for e, tgt in outgoing[at]:
            path = prefix + (e,)
            yield tgt, path
            stack.append((tgt, path))


def _saturate(start: tuple, swap: dict) -> frozenset:
    """All paths reachable from start by square moves."""
    seen = {start}
    frontier = [start]
    while frontier:
        path = frontier.pop()
        for k in range(len(path) - 1):
            for alt in swap.get((path[k], path[k + 1]), ()):
                candidate = path[:k] + alt + path[k + 2:]
                if candidate not in seen:
                    seen.add(candidate)
                    frontier.append(candidate)
    return frozenset(seen)


def _brute_classify(paths, swap: dict) -> list:
    """Split a set of paths closed under square moves into its classes, as
    (length, representative, members) sorted by length and representative."""
    paths = sorted(paths)
    remaining = set(paths)
    classes = []
    # each unassigned path met in sorted order is the least member of its class
    for seed in paths:
        if seed in remaining:
            members = _saturate(seed, swap)
            assert members <= remaining, "square moves left the enumerated paths"
            remaining -= members
            classes.append((len(seed), seed, members))
    return sorted(classes, key=lambda c: c[:2])


def brute_path_classes(K: PrecubicalSet, a: str, max_len: int) -> dict:
    """Every target b reachable from a within max_len edges, mapped to the
    classes of paths from a to b, by listing every path and saturating."""
    outgoing, swap = _brute_tables(K)
    by_target = {}
    for b, path in _brute_paths(outgoing, a, max_len):
        by_target.setdefault(b, []).append(path)
    return {b: _brute_classify(paths, swap) for b, paths in by_target.items()}


def brute_flow_count(K: PrecubicalSet, max_len: int) -> int:
    """Number of path classes over all ordered state pairs, length <= max_len."""
    return sum(
        len(classes)
        for a in K.cells(0)
        for classes in brute_path_classes(K, a, max_len).values()
    )


def matmul(A, B) -> list:
    """Product of two integer matrices given as lists of rows.  Rows must
    have equal lengths and the inner dimensions must agree, as for numpy's @."""
    assert len({len(row) for row in A}) <= 1 and len({len(row) for row in B}) <= 1
    assert all(len(row) == len(B) for row in A), "inner dimensions differ"
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*B)] for row in A]


def is_zero(M) -> bool:
    return not any(any(row) for row in M)


def reference_text(K) -> str:
    """The canonical text by way of the json module's own encoder."""
    tree = {
        "format_version": "1",
        "top_dim": K.top_dim,
        "cells": {str(d): list(K.cells(d)) for d in range(K.top_dim + 1) if K.cells(d)},
        "faces": [
            {"dim": dim, "i": i, "alpha": alpha, "cell": cell, "value": value}
            for (dim, i, alpha, cell), value in K.face_map.items()
        ],
    }
    tree["faces"].sort(key=lambda r: (r["dim"], r["cell"], r["i"], r["alpha"]))
    return json.dumps(tree, indent=2, sort_keys=True) + "\n"


def assert_one_cell_table(K: PrecubicalSet) -> None:
    """The storage of a complex: one row table per dimension that has cells,
    keyed on exactly the declared labels, with a tuple of 2n faces per
    n-cell (so () per vertex), and no second copy of the labels."""
    assert not hasattr(K, "_members")
    assert set(K._rows) == {d for d in range(K.top_dim + 1) if K.cells(d)}
    for dim, table in K._rows.items():
        assert sorted(table) == list(K.cells(dim))
        assert all(type(row) is tuple and len(row) == 2 * dim for row in table.values())


def parse_records(data, check: bool) -> PrecubicalSet:
    """parse, one record at a time, with the repeated-key hook on every
    read: the reference that parse's one reader is tested against."""
    try:
        if isinstance(data, bytes):
            data = data.decode("utf-8")
        tree = json.loads(data, object_pairs_hook=_object)
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
        for label in labels:
            if not isinstance(label, str):
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
        # json.loads yields exact int and str objects, so the type tests
        # below reject bools and floats
        for field in ("dim", "i", "alpha"):
            if type(record[field]) is not int:
                raise FormatError(f"face field {field!r} must be an integer: {record!r}")
        for field in ("cell", "value"):
            if type(record[field]) is not str:
                raise FormatError(f"face field {field!r} must be a string: {record!r}")

    # the records go straight into the face rows, through the constructor's
    # structural checks; duplicate records are reported before any of those
    try:
        cells, rows = _tabulate(cells, (((r["dim"], r["i"], r["alpha"], r["cell"]), r["value"])
                                        for r in records))
    except ValueError as exc:
        if len({(r["dim"], r["i"], r["alpha"], r["cell"]) for r in records}) != len(records):
            message = "duplicate face records for the same (dim, i, alpha, cell)"
            raise FormatError(message) from None
        raise FormatError(f"malformed document: {exc}") from exc
    K = PrecubicalSet._adopt(cells, rows, False)
    top_dim = tree["top_dim"]
    if not isinstance(top_dim, int) or isinstance(top_dim, bool):
        raise FormatError(f"'top_dim' must be an integer: {top_dim!r}")
    if top_dim != K.top_dim:
        raise FormatError(
            f"declared top_dim {top_dim} does not match cells (top dimension {K.top_dim})"
        )
    if check:
        _check(K)
    return K


def outcome(read, data, check):
    """What reading data gives: the complex and whether it is known valid,
    or the message and violations of the FormatError."""
    try:
        K = read(data, check)
    except FormatError as exc:
        return str(exc), exc.violations
    assert_one_cell_table(K)
    return K, K._valid


def reference_standard_cube(n: int) -> PrecubicalSet:
    """standard_cube one word at a time: each word's faces replace its stars,
    left to right, by 0 and by 1.  The reference for the cube grown a face
    row at a time."""
    cells = {k: [] for k in range(n + 1)}
    rows = {k: {} for k in range(n + 1)}
    for word in cube_words(n):
        stars = [pos for pos, ch in enumerate(word) if ch == STAR]
        cells[len(stars)].append(word)
        rows[len(stars)][word] = tuple([word[:pos] + alpha + word[pos + 1:]
                                        for pos in stars for alpha in "01"])
    return PrecubicalSet._adopt(cells, rows, True)


def reference_pushout(f: PcsMap, g: PcsMap) -> PrecubicalSet:
    """pushout naming one face at a time, through a (dim, side, label) ->
    class-name dict: the reference for the renaming by table."""
    if f.source != g.source:
        raise ValueError("pushout feet must share the same source")
    K, M, L = f.target, g.target, f.source
    for X in (K, M, L):
        _require_valid(X)
    for name, h in (("f", f), ("g", g)):
        problems = h.defects()
        if problems:
            raise ValueError(f"{name} is not a precubical morphism: {problems[0]}")
    uf = _UnionFind()
    for cell in L.all_cells():
        key = (cell.dim, cell.label)
        uf.union((cell.dim, "K", f.mapping[key]), (cell.dim, "M", g.mapping[key]))
    tags = {}
    for node in uf.parent:
        tags.setdefault(uf.find(node), []).append(f"{node[1]}:{node[2]}")
    least = {root: min(group) for root, group in tags.items()}
    renamed = {node: least[uf.find(node)] for node in uf.parent}
    cells, rows = {}, {}
    for dim in range(max(K.top_dim, M.top_dim) + 1):
        named = set()
        out = cells[dim] = []
        for side, complex_ in (("K", K), ("M", M)):
            tag, table = side + ":", _face_rows(complex_, dim)
            for label in complex_.cells(dim):
                name = renamed.get((dim, side, label))
                if name is None:
                    name = tag + label
                elif name in named:
                    continue
                else:
                    named.add(name)
                out.append(name)
                rows.setdefault(dim, {})[name] = tuple([
                    renamed.get((dim - 1, side, value)) or tag + value
                    for value in table[label]])
    return PrecubicalSet._adopt(cells, rows, True)


def reference_validate(K: PrecubicalSet) -> list:
    """validate one relation instance at a time, for every cell, without
    the route test; leaves K's verdict alone.  The reference for the
    report's contents and order."""
    faults, relations = [], []
    for dim in range(1, K.top_dim + 1):
        low, mid, table = _face_rows(K, dim - 2), _face_rows(K, dim - 1), _face_rows(K, dim)
        for label in K.cells(dim):
            row = table[label]
            for slot, value in enumerate(row):
                i, alpha = slot // 2 + 1, slot % 2
                if value is None:
                    faults.append(Violation("missing-face", dim, label, i, alpha))
                elif value not in mid:
                    faults.append(Violation("dangling-face", dim, label, i, alpha,
                                            detail=f"points at undeclared cell {value!r}"))
            for j in range(1, dim + 1):
                for i in range(1, j):
                    for alpha in (0, 1):
                        ia = row[2 * i - 2 + alpha]
                        if ia not in mid:
                            continue
                        for beta in (0, 1):
                            jb = row[2 * j - 2 + beta]
                            if jb not in mid:
                                continue
                            left = mid[jb][2 * i - 2 + alpha]
                            right = mid[ia][2 * j - 4 + beta]
                            if left != right and left in low and right in low:
                                relations.append(Violation(
                                    "cubical-relation", dim, label, i, alpha, j, beta,
                                    f"d[{i},{alpha}]d[{j},{beta}] = {left!r} "
                                    f"but d[{j-1},{beta}]d[{i},{alpha}] = {right!r}"))
    return faults + relations
