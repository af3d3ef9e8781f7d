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
