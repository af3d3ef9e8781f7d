"""standard_cube, pushout and validate work a whole face row at a time;
here each is checked against its one-entry-at-a-time reference in
conftest, down to document bytes and report order."""

import itertools
import random
import tracemalloc

import pytest

from precubical import (
    CellId,
    PcsMap,
    PrecubicalSet,
    apply_cube_map,
    boundary_cube,
    pushout,
    serialize,
    standard_cube,
    tensor,
    torus,
    validate,
)
from precubical import core
from precubical.core import _face_rows, _routes

from conftest import (BASE_BUILDERS, CORPUS, _edge_ends, isomorphic, klein_bottle,
                      random_glued_complex, reference_pushout, reference_standard_cube,
                      reference_validate)


def square_glued_to_two_loops(pattern: str):
    """The feet that glue the four edges of the square onto the loops a
    and b of a one-vertex complex: pattern names the loop that takes
    d[1,0], d[2,1], d[1,1] and d[2,0] of the square, in that order.
    "aabb" gives the Klein bottle, "abab" the torus."""
    square = standard_cube(2)
    loops = PrecubicalSet({0: ["v"], 1: ["a", "b"]},
                          {(1, 1, alpha, e): "v" for e in "ab" for alpha in (0, 1)})
    edges = ["0*", "*1", "1*", "*0"]
    L = PrecubicalSet({0: [f"s{k}" for k in range(4)] + [f"t{k}" for k in range(4)],
                       1: [f"e{k}" for k in range(4)]},
                      {**{(1, 1, 0, f"e{k}"): f"s{k}" for k in range(4)},
                       **{(1, 1, 1, f"e{k}"): f"t{k}" for k in range(4)}})
    f, g = {}, {}
    for k, (edge, loop) in enumerate(zip(edges, pattern)):
        f[1, f"e{k}"], g[1, f"e{k}"] = edge, loop
        f[0, f"s{k}"], f[0, f"t{k}"] = _edge_ends(square, edge)
        g[0, f"s{k}"] = g[0, f"t{k}"] = "v"
    return PcsMap(L, square, f), PcsMap(L, loops, g)


def random_feet(rng: random.Random, K: PrecubicalSet):
    """The feet of one step of conftest.random_glued_complex on K."""
    M = rng.choice(BASE_BUILDERS)()
    if rng.random() < 0.5:
        point = standard_cube(0)
        return (PcsMap(point, K, {(0, ""): rng.choice(K.cells(0))}),
                PcsMap(point, M, {(0, ""): rng.choice(M.cells(0))}))
    edge = standard_cube(1)
    eK, eM = rng.choice(K.cells(1)), rng.choice(M.cells(1))
    (sK, tK), (sM, tM) = _edge_ends(K, eK), _edge_ends(M, eM)
    return (PcsMap(edge, K, {(1, "*"): eK, (0, "0"): sK, (0, "1"): tK}),
            PcsMap(edge, M, {(1, "*"): eM, (0, "0"): sM, (0, "1"): tM}))


def chain_feet(rng: random.Random, K: PrecubicalSet):
    """The feet that glue a fresh n-cube to K along one m-face of each, as
    the build-roundtrip benchmark's gluings do."""
    n = rng.randint(1, 3)
    m = rng.randint(0, min(n - 1, K.top_dim))
    L, M = standard_cube(m), standard_cube(n)
    target = CellId(m, rng.choice(K.cells(m)))
    # an m-face of the n-cube: m stars among n letters
    face = [rng.choice("01") for _ in range(n)]
    for pos in rng.sample(range(n), m):
        face[pos] = "*"
    words = [(d, w) for d in range(m + 1) for w in L.cells(d)]

    def substitute(word):
        letters = iter(word)
        return "".join(next(letters) if ch == "*" else ch for ch in face)

    return (PcsMap(L, K, {(d, w): apply_cube_map(K, target, w).label for d, w in words}),
            PcsMap(L, M, {(d, w): substitute(w) for d, w in words}))


class TestStandardCube:
    @pytest.mark.parametrize("n", range(9))
    def test_matches_the_per_word_cube(self, n):
        K, R = standard_cube(n), reference_standard_cube(n)
        assert K.face_map == R.face_map
        assert serialize(K) == serialize(R)


def assert_same_pushout(f, g):
    P, R = pushout(f, g), reference_pushout(f, g)
    assert P == R and serialize(P) == serialize(R)
    return P


class TestPushout:
    @pytest.mark.parametrize("seed", range(30))
    def test_random_gluings(self, seed):
        rng = random.Random(seed)
        K = rng.choice(BASE_BUILDERS)()
        for _ in range(rng.randint(1, 3)):
            K = assert_same_pushout(*random_feet(rng, K))

    @pytest.mark.parametrize("pattern", ["aabb", "abab"])
    def test_square_glued_to_two_loops(self, pattern):
        P = assert_same_pushout(*square_glued_to_two_loops(pattern))
        assert P.cell_counts() == (1, 2, 1) and validate(P) == []

    def test_the_klein_bottle_gluing_is_the_klein_bottle(self):
        assert isomorphic(pushout(*square_glued_to_two_loops("aabb")), klein_bottle())

    @pytest.mark.parametrize("seed", range(12))
    def test_glue_chains(self, seed):
        rng = random.Random(seed)
        K = standard_cube(rng.randint(1, 4))
        for _ in range(rng.randint(2, 6)):
            K = assert_same_pushout(*chain_feet(rng, K))
        assert validate(K) == []


def corrupted(K: PrecubicalSet, rng: random.Random, edits: int) -> PrecubicalSet:
    """K with some face entries missing, dangling, or replaced by another
    declared label of the same dimension (the last gives relation
    violations)."""
    table = K.face_map
    keys = list(table)
    for key in rng.sample(keys, min(edits, len(keys))):
        mode = rng.choice(["missing", "dangling", "swapped", "swapped"])
        if mode == "missing":
            del table[key]
        elif mode == "dangling":
            table[key] = "undeclared"
        else:
            others = [c for c in K.cells(key[0] - 1) if c != table[key]]
            if others:
                table[key] = rng.choice(others)
    return PrecubicalSet({d: K.cells(d) for d in range(K.top_dim + 1)}, table)


def validate_bases(rng: random.Random):
    bases = [standard_cube(n) for n in range(2, 6)] + [boundary_cube(n) for n in range(3, 6)]
    bases += [torus(3), klein_bottle(), pushout(*square_glued_to_two_loops("aabb"))]
    for _ in range(3):
        K = rng.choice(BASE_BUILDERS)()
        for _ in range(rng.randint(1, 3)):
            K = pushout(*random_feet(rng, K))
        bases.append(K)
    return bases


class TestValidate:
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_the_per_instance_report(self, seed):
        rng = random.Random(seed)
        kinds = set()
        for base in validate_bases(rng):
            for edits in (1, 2, 5):
                K = corrupted(base, rng, edits)
                report = validate(K)
                assert report == reference_validate(K)
                kinds.update(v.kind for v in report)
        assert kinds == {"missing-face", "dangling-face", "cubical-relation"}

    def test_valid_cells_pass_the_route_test(self):
        # a route that reads a wrong entry would send valid cells on to the
        # per-instance walk, which gives the same report only slower
        for K in validate_bases(random.Random(1)):
            for dim in range(2, K.top_dim + 1):
                lhs, rhs = _routes(dim)
                mid = _face_rows(K, dim - 1)
                for row in _face_rows(K, dim).values():
                    faces = tuple(itertools.chain.from_iterable(map(mid.__getitem__, row)))
                    assert lhs(faces) == rhs(faces)

    @pytest.mark.parametrize("n", range(2, 7))
    def test_routes_read_the_two_sides_of_every_instance(self, n):
        # entry t of the face row at slot s, laid end to end, is (s, t)
        width = 2 * n - 2
        faces = tuple((s, t) for s in range(2 * n) for t in range(width))
        lhs, rhs = _routes(n)
        expected = [((2 * j - 2 + beta, 2 * i - 2 + alpha), (2 * i - 2 + alpha, 2 * j - 4 + beta))
                    for j in range(2, n + 1) for i in range(1, j)
                    for alpha in (0, 1) for beta in (0, 1)]
        assert sorted(zip(lhs(faces), rhs(faces))) == sorted(expected)

    def test_tall_cell_over_faces_without_faces_builds_no_route_table(self):
        # one 2000-cell whose faces are all y, a declared 1999-cell with no
        # face entries: routes for it would hold 2 * 2000 * 1999 entries
        d = 2000
        K = PrecubicalSet({d - 1: ["y"], d: ["x"]},
                          {(d, i, alpha, "x"): "y" for i in range(1, d + 1) for alpha in (0, 1)})
        tracemalloc.start()
        try:
            report = validate(K)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(report) == 2 * (d - 1)
        assert {v.kind for v in report} == {"missing-face"} and {v.cell for v in report} == {"y"}
        assert peak < 1 << 20

    def test_valid_dimensions_pass_the_whole_dimension_test(self, monkeypatch):
        # the routes are built only for a dimension that failed the test
        def walked(dim):
            raise AssertionError(f"dimension {dim} was walked a cell at a time")

        rng = random.Random(5)
        complexes = [K for _, K in CORPUS] + [random_glued_complex(rng) for _ in range(8)]
        complexes += [standard_cube(6), tensor(boundary_cube(4), boundary_cube(4))]
        monkeypatch.setattr(core, "_routes", walked)
        for K in complexes:
            assert validate(K) == []

    @staticmethod
    def walked_dimensions(monkeypatch) -> list:
        """The dimensions, in order, that validate will walk a cell at a time
        with routes: those that failed the whole-dimension test."""
        walked = []
        monkeypatch.setattr(core, "_routes", lambda dim: walked.append(dim) or _routes(dim))
        return walked

    @staticmethod
    def glued(rng: random.Random) -> PrecubicalSet:
        K = standard_cube(3)
        for _ in range(3):
            K = pushout(*chain_feet(rng, K))
        return K

    @staticmethod
    def edited(K: PrecubicalSet, key, value) -> PrecubicalSet:
        """K with the face entry at key set to value, or dropped for None."""
        table = K.face_map
        if value is None:
            del table[key]
        else:
            table[key] = value
        return PrecubicalSet({d: K.cells(d) for d in range(K.top_dim + 1)}, table)

    @pytest.mark.parametrize("seed", range(4))
    def test_one_swapped_entry_fails_one_dimension(self, seed, monkeypatch):
        # an edge given another declared vertex breaks the relations of the
        # squares over it, and nothing in the dimensions above
        rng = random.Random(seed)
        walked = self.walked_dimensions(monkeypatch)
        for base in (standard_cube(5), self.glued(rng)):
            table = base.face_map
            over = {e for row in _face_rows(base, 2).values() for e in row}
            key = rng.choice([k for k in table if k[0] == 1 and k[3] in over])
            value = rng.choice([v for v in base.cells(0) if v != table[key]])
            K = self.edited(base, key, value)
            walked.clear()
            report = validate(K)
            assert report == reference_validate(K)
            assert {v.kind for v in report} == {"cubical-relation"}
            assert walked == [2]

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("seed", range(3))
    def test_missing_entry_fails_its_dimension_and_the_next(self, dim, seed, monkeypatch):
        # the cells above read the missing entry as None on one side of a
        # relation, so they are walked too, and report nothing more
        rng = random.Random(seed)
        walked = self.walked_dimensions(monkeypatch)
        base = standard_cube(5)
        K = self.edited(base, rng.choice([k for k in base.face_map if k[0] == dim]), None)
        report = validate(K)
        assert report == reference_validate(K)
        assert [v.kind for v in report] == ["missing-face"]
        assert walked == [dim, dim + 1]

    @pytest.mark.parametrize("place", ["first", "end of block", "next block", "last"])
    def test_every_block_is_tested(self, place):
        # the 1792 3-cells of cube 8 take more than one block, of 682 cells
        # with 24 faces of faces each
        base = standard_cube(8)
        step = core._BLOCK // 24
        assert step < base.n_cells(3)
        index = {"first": 0, "end of block": step - 1, "next block": step, "last": -1}[place]
        K = self.edited(base, (3, 1, 0, base.cells(3)[index]), None)
        report = validate(K)
        assert report == reference_validate(K) and len(report) == 1

    @pytest.mark.parametrize("n", [8, 9])
    def test_memory_stays_bounded(self, n):
        # the faces of faces of a dimension are laid end to end a block at
        # a time: whole, those of cube 9 would take about 1.6 MB
        K = standard_cube(n)
        tracemalloc.start()
        try:
            report = validate(K)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report == [] and peak < 1 << 20
