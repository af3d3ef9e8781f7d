"""Shared test corpus and independent oracles.

The oracles here deliberately avoid the library code paths they are
checking: corners are recomputed over every admissible face order, the
product order is built from vertex words directly, and flow morphism
counts come from raw word enumeration.
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
