"""Flow realization: states, corners, staircases, path classes, state order."""

import itertools
import math
import random
import re
import subprocess
import sys
import tracemalloc

import pytest

from precubical import (
    CellId,
    LoopReport,
    PathClass,
    PcsMap,
    PrecubicalSet,
    StatePoset,
    boundary_cube,
    circle,
    corner,
    count_flow_morphisms,
    edge_path,
    enumerate_path_classes,
    globular_decomposition,
    interval,
    path_equal,
    pushout,
    realize_states,
    skeleton,
    staircase,
    standard_cube,
    state_order,
    tensor,
    torus,
)

from conftest import (
    brute_flow_count,
    brute_path_classes,
    corner_routes,
    flow_word_count,
    klein_bottle,
    map_path,
    product_order_pairs,
    random_glued_complex,
    wedge_of_circles,
)


class TestRealizeStates:
    def test_square_has_four(self):
        assert len(realize_states(standard_cube(2))) == 4

    def test_empty_boundary(self):
        assert realize_states(boundary_cube(0)) == frozenset()

    def test_circle_has_one(self):
        assert realize_states(circle()) == frozenset({"v"})

    def test_equals_vertex_set(self, corpus_complex):
        _, K = corpus_complex
        assert realize_states(K) == frozenset(K.cells(0))


class TestCorner:
    def test_square_zero_corner(self):
        assert corner(standard_cube(2), CellId(2, "**"), 0) == "00"

    def test_cube_one_corner(self):
        assert corner(standard_cube(3), CellId(3, "***"), 1) == "111"

    def test_edge_base_case(self):
        K = standard_cube(2)
        for e in K.cells(1):
            for alpha in (0, 1):
                assert corner(K, CellId(1, e), alpha) == K.face_label(1, e, 1, alpha)

    def test_all_face_orders_agree(self, corpus_complex):
        # the oracle walks every admissible sequence of face indices
        _, K = corpus_complex
        for c in K.all_cells():
            for alpha in (0, 1):
                assert corner_routes(K, c, alpha) == {corner(K, c, alpha)}

    def test_bad_sign_rejected(self):
        with pytest.raises(ValueError):
            corner(standard_cube(1), CellId(1, "*"), 2)

    @pytest.mark.parametrize("alpha", [0.0, 1.0, True, False])
    def test_float_and_bool_signs_rejected(self, alpha):
        # face refuses these; corner gave a bare TypeError on a float and "11" on True
        with pytest.raises(ValueError, match=r"^corner sign must be 0 or 1: %s$" % alpha):
            corner(standard_cube(2), CellId(2, "**"), alpha)

    @pytest.mark.parametrize("dim, alpha", [(1, 0), (2, 1), (0, 0)])
    def test_undeclared_cell_is_named(self, dim, alpha):
        # the vertex used to come back as its own corner, the others gave a bare KeyError
        with pytest.raises(ValueError, match=r"^undeclared cell \(%d, 'x'\)$" % dim):
            corner(standard_cube(1), CellId(dim, "x"), alpha)


class TestRealizeFlow:
    def test_one_atom_per_positive_cell(self, corpus_complex):
        _, K = corpus_complex
        flow = globular_decomposition(K)
        assert set(flow.vertices) == set(K.cells(0))
        expected = sum(K.n_cells(d) for d in range(1, K.top_dim + 1))
        assert len(flow.cells()) == expected
        for atom in flow.cells():
            assert atom.source in flow.vertices and atom.target in flow.vertices
            assert atom.source == corner(K, atom.cube, 0)
            assert atom.target == corner(K, atom.cube, 1)


# A 2-cell s whose fourth face e4 runs between the two vertices given on
# the command line; with e4 from c to d the square is valid.
BROKEN_SQUARE = """
import sys
from precubical import PrecubicalSet, enumerate_path_classes, validate

ends = {"e1": ("a", "b"), "e2": ("b", "d"), "e3": ("a", "c"), "e4": tuple(sys.argv[1:3])}
faces = {(1, 1, alpha, e): ends[e][alpha] for e in ends for alpha in (0, 1)}
faces.update({(2, 2, 0, "s"): "e1", (2, 1, 1, "s"): "e2",
              (2, 1, 0, "s"): "e3", (2, 2, 1, "s"): "e4"})
K = PrecubicalSet({0: list("abcdxy"), 1: sorted(ends), 2: ["s"]}, faces)
if len(validate(K)) != 1:
    sys.exit("expected exactly one violation")
try:
    enumerate_path_classes(K, "a", "d", 2)
except ValueError as exc:
    print(f"ValueError: {exc}")
"""


class TestBrokenSquare:
    """A square whose boundary composites disagree at a vertex gets an
    error naming the violated cubical relation, also under python -O,
    which strips assert statements."""

    @pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimized"])
    @pytest.mark.parametrize("e4, message", [
        (("c", "x"), "cell (2, 's'): d[1,1]d[2,1] = 'x' but d[1,1]d[1,1] = 'd'"),
        (("y", "d"), "cell (2, 's'): d[1,0]d[2,1] = 'y' but d[1,1]d[1,0] = 'c'"),
    ], ids=["outer-end", "middle"])
    def test_value_error(self, flags, e4, message):
        proc = subprocess.run(
            [sys.executable, *flags, "-c", BROKEN_SQUARE, *e4],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == f"ValueError: {message}\n"


class TestStaircase:
    def test_edge_is_its_own_staircase(self):
        K = standard_cube(1)
        assert staircase(K, CellId(1, "*")).edges == ("*",)

    def test_square_staircase(self):
        p = staircase(standard_cube(2), CellId(2, "**"))
        assert p.edges == ("*0", "1*")
        assert (p.source, p.target) == ("00", "11")

    def test_cube_staircase_vertices(self):
        K = standard_cube(3)
        p = staircase(K, CellId(3, "***"))
        visited = [p.source]
        for e in p.edges:
            visited.append(K.face_label(1, e, 1, 1))
        assert visited == ["000", "100", "110", "111"]

    def test_endpoints_are_corners(self, corpus_complex):
        _, K = corpus_complex
        for c in K.all_cells():
            if c.dim < 1:
                continue
            p = staircase(K, c)
            assert len(p.edges) == c.dim
            assert p.source == corner(K, c, 0)
            assert p.target == corner(K, c, 1)

    def test_vertex_rejected(self):
        with pytest.raises(ValueError):
            staircase(standard_cube(1), CellId(0, "0"))


def square_boundary_pair(K, s):
    """The two boundary composites of a 2-cell: (d[2,0], d[1,1]) and
    (d[1,0], d[2,1])."""
    low = (K.face_label(2, s, 2, 0), K.face_label(2, s, 1, 1))
    high = (K.face_label(2, s, 1, 0), K.face_label(2, s, 2, 1))
    return low, high


class TestPathEqual:
    def test_square_merges_its_boundary(self):
        K = standard_cube(2)
        low, high = square_boundary_pair(K, "**")
        assert path_equal(K, low, high)

    def test_boundary_square_does_not(self):
        K = boundary_cube(2)
        assert not path_equal(K, ("*0", "1*"), ("0*", "*1"))

    def test_reflexive(self, corpus_complex):
        _, K = corpus_complex
        for e in K.cells(1):
            assert path_equal(K, (e,), (e,))

    def test_symmetric_and_transitive_on_cube(self):
        K = standard_cube(3)
        classes = enumerate_path_classes(K, "000", "111", 3)
        members = sorted(m for c in classes for m in c.members)
        for p in members:
            for q in members:
                assert path_equal(K, p, q) == path_equal(K, q, p)
        # all six monotone paths collapse, so transitivity is exercised
        assert len(classes) == 1 and len(classes[0].members) == 6

    def test_different_endpoints_or_length_unequal(self):
        K = standard_cube(2)
        assert not path_equal(K, ("*0",), ("*1",))
        assert not path_equal(K, ("*0",), ("*0", "1*"))

    def test_malformed_path_raises(self):
        K = standard_cube(2)
        with pytest.raises(ValueError, match="endpoint mismatch"):
            path_equal(K, ("*0", "0*"), ("*0", "0*"))
        with pytest.raises(ValueError):
            path_equal(K, (), ())
        with pytest.raises(ValueError, match=r"^not a 1-cell: 'nope'$"):
            edge_path(K, ["nope"])

    @pytest.mark.parametrize("call", [
        lambda K: edge_path(K, "loop"),
        lambda K: edge_path(K, "l"),
        lambda K: path_equal(K, "loop", ["loop"]),
        lambda K: path_equal(K, ["loop"], "loop"),
    ], ids=["edge_path", "edge_path-one-letter", "path_equal-first", "path_equal-second"])
    def test_string_path_is_named(self, call):
        # a string is iterable: "loop" was read as the edges l, o, o, p and
        # raised "not a 1-cell: 'l'", and a one-letter label passed by accident
        with pytest.raises(ValueError, match=r"^edge path must be a sequence of edge labels, "
                                             r"not a string: '(loop|l)'$"):
            call(circle())

    def test_congruence_under_concatenation(self):
        K = standard_cube(3)
        low, high = square_boundary_pair(K, "**0")
        tail = ("11*",)
        assert path_equal(K, low, high)
        assert path_equal(K, low + tail, high + tail)
        head = ("*00",)
        low2, high2 = square_boundary_pair(K, "1**")
        assert path_equal(K, head + low2, head + high2)


class TestEnumeratePathClasses:
    def test_square_diagonal_is_one_class(self):
        classes = enumerate_path_classes(standard_cube(2), "00", "11", 2)
        assert len(classes) == 1
        assert classes[0].members == frozenset({("*0", "1*"), ("0*", "*1")})
        assert classes[0].representative == ("*0", "1*")

    def test_boundary_square_keeps_two(self):
        classes = enumerate_path_classes(boundary_cube(2), "00", "11", 2)
        assert len(classes) == 2
        assert all(len(c.members) == 1 for c in classes)

    def test_boundary_cube_staircases_collapse(self):
        classes = enumerate_path_classes(boundary_cube(3), "000", "111", 3)
        assert len(classes) == 1
        assert len(classes[0].members) == 6

    def test_unknown_state_rejected(self):
        with pytest.raises(ValueError, match="unknown state"):
            enumerate_path_classes(standard_cube(1), "0", "zz", 1)

    def test_nonpositive_bound_rejected(self):
        with pytest.raises(ValueError):
            enumerate_path_classes(standard_cube(1), "0", "1", 0)

    @pytest.mark.parametrize("max_len", [2.5, 2.0, True, "2"])
    def test_bound_that_is_not_an_int_is_named(self, max_len):
        # 2.5 raised a bare TypeError from range
        with pytest.raises(ValueError, match=r"^max_len must be a positive int: %s$"
                                             % re.escape(repr(max_len))):
            enumerate_path_classes(standard_cube(2), "00", "11", max_len)

    def test_classes_are_length_and_endpoint_uniform(self):
        for c in enumerate_path_classes(standard_cube(3), "000", "111", 3):
            K = standard_cube(3)
            for member in c.members:
                p = edge_path(K, member)
                assert len(member) == c.length
                assert (p.source, p.target) == (c.source, c.target)


class TestCountFlowMorphisms:
    def test_square(self):
        assert count_flow_morphisms(standard_cube(2), 2) == 5

    def test_cube(self):
        assert count_flow_morphisms(standard_cube(3), 3) == 19

    def test_boundary_square(self):
        assert count_flow_morphisms(boundary_cube(2), 2) == 6

    @pytest.mark.parametrize("n", range(0, 5))
    def test_matches_word_enumeration(self, n):
        assert count_flow_morphisms(standard_cube(n), n) == flow_word_count(n)
        assert flow_word_count(n) == 3**n - 2**n

    def test_negative_bound_rejected(self):
        with pytest.raises(ValueError):
            count_flow_morphisms(standard_cube(1), -1)

    @pytest.mark.parametrize("max_len", [True, False, 2.0, 2.5, "2"])
    def test_bound_that_is_not_an_int_is_named(self, max_len):
        # True was read as 1 and counted the square's 4 edges
        with pytest.raises(ValueError, match=r"^max_len must be a nonnegative int: %s$"
                                             % re.escape(repr(max_len))):
            count_flow_morphisms(standard_cube(2), max_len)

    def test_circle_counts_loops_up_to_bound(self):
        assert count_flow_morphisms(circle(), 4) == 4

    def test_wedge_count_keeps_no_representatives(self):
        # 4 + 16 + ... + 4**8 singleton classes; a least member kept for
        # each of them took the tracemalloc peak above 12 MB
        loops = ["a", "b", "c", "d"]
        faces = {(1, 1, alpha, e): "v" for e in loops for alpha in (0, 1)}
        W = PrecubicalSet({0: ["v"], 1: loops}, faces)
        tracemalloc.start()
        try:
            count = count_flow_morphisms(W, 8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert count == 87_380
        assert peak < 6_000_000


class TestStaircaseInvariance:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_every_monotone_path_in_a_cube_cell(self, n):
        # inside any cell all corner-to-corner paths along its own edges
        # are one class
        K = standard_cube(n)
        for c in K.all_cells():
            if c.dim < 1:
                continue
            self.check_cell(K, c)

    def test_torus_cells(self):
        K = torus(2)
        for c in K.all_cells():
            if c.dim >= 1:
                self.check_cell(K, c)

    @staticmethod
    def check_cell(K, c):
        # a monotone path inside c raises one coordinate per step, in the
        # order of some permutation; all of them must equal the staircase
        from precubical import apply_cube_map

        n = c.dim
        canonical = staircase(K, c)
        for sigma in itertools.permutations(range(1, n + 1)):
            edges = []
            for k in range(n):
                raised = set(sigma[:k])
                word = "".join(
                    "*" if j == sigma[k] else ("1" if j in raised else "0")
                    for j in range(1, n + 1)
                )
                edges.append(apply_cube_map(K, c, word).label)
            p = edge_path(K, edges)
            assert p.source == corner(K, c, 0)
            assert p.target == corner(K, c, 1)
            assert path_equal(K, edges, canonical.edges)


class TestStateOrder:
    @pytest.mark.parametrize("n", range(4))
    def test_cube_gives_product_order(self, n):
        poset = state_order(standard_cube(n))
        assert isinstance(poset, StatePoset)
        assert poset.pairs == frozenset(product_order_pairs(n))

    def test_circle_reports_its_loop(self):
        report = state_order(circle())
        assert isinstance(report, LoopReport)
        assert report.cycle == ("loop",)
        assert report.states == ("v",)

    def test_less_reads_the_pairs(self):
        poset = state_order(standard_cube(2))
        assert poset.less("00", "11") and poset.less("00", "01")
        assert not poset.less("11", "00")
        assert not poset.less("01", "10")
        assert not poset.less("00", "00")

    def test_vertices_only_give_empty_order(self):
        poset = state_order(skeleton(standard_cube(2), 0))
        assert poset.pairs == frozenset()

    def test_loop_report_is_a_directed_cycle(self):
        for _, K in [("circle", circle()), ("torus2", torus(2))]:
            report = state_order(K)
            assert isinstance(report, LoopReport)
            ends = [
                (K.face_label(1, e, 1, 0), K.face_label(1, e, 1, 1))
                for e in report.cycle
            ]
            for (_, t), (s, _) in zip(ends, ends[1:]):
                assert t == s
            assert ends[-1][1] == ends[0][0]

    def test_poset_axioms_on_loopless_corpus(self, corpus_complex):
        _, K = corpus_complex
        result = state_order(K)
        if isinstance(result, LoopReport):
            return
        pairs = result.pairs
        for a, b in pairs:
            assert a != b
            assert (b, a) not in pairs
        for a, b in pairs:
            for c, d in pairs:
                if b == c:
                    assert (a, d) in pairs


class TestNaturality:
    def test_inclusion_preserves_equality(self):
        K = boundary_cube(2)
        L = standard_cube(2)
        f = PcsMap.inclusion(K, L)
        assert f.is_valid
        p = edge_path(K, ("*0", "1*"))
        q = edge_path(K, ("0*", "*1"))
        # equal paths stay equal; these are unequal in K but may merge in L
        assert path_equal(K, p, p)
        assert path_equal(L, map_path(f, p), map_path(f, p))
        assert path_equal(L, map_path(f, p), map_path(f, q))

    def test_quotient_to_torus_preserves_equality(self):
        K = standard_cube(2)
        L = torus(2)
        mapping = {(0, v): "v|v" for v in K.cells(0)}
        mapping.update({(1, "0*"): "v|loop", (1, "1*"): "v|loop"})
        mapping.update({(1, "*0"): "loop|v", (1, "*1"): "loop|v"})
        mapping[(2, "**")] = "loop|loop"
        f = PcsMap(K, L, mapping)
        assert f.is_valid
        p = edge_path(K, ("*0", "1*"))
        q = edge_path(K, ("0*", "*1"))
        assert path_equal(K, p, q)
        assert path_equal(L, map_path(f, p), map_path(f, q))

    def test_fold_edge_onto_circle(self):
        K = standard_cube(1)
        f = PcsMap(K, circle(), {(0, "0"): "v", (0, "1"): "v", (1, "*"): "loop"})
        assert f.is_valid
        assert {f.mapping[(0, v)] for v in K.cells(0)} <= set(circle().cells(0))


def assert_classes_match_brute_force(K, max_len):
    """The level pass and the path-listing oracle agree on every ordered
    state pair: length, representative, size and members of each class."""
    for a in K.cells(0):
        expected = brute_path_classes(K, a, max_len)
        for b in K.cells(0):
            got = [
                (c.source, c.target, c.length, c.representative, c.size, c.members)
                for c in enumerate_path_classes(K, a, b, max_len)
            ]
            want = [(a, b, n, rep, len(m), m) for n, rep, m in expected.get(b, [])]
            assert got == want, (a, b)


class TestLevelPassAgainstBruteForce:
    def test_corpus_pairs(self, corpus_complex):
        _, K = corpus_complex
        assert_classes_match_brute_force(K, min(K.n_cells(1), 5) or 1)

    def test_klein_bottle(self):
        assert_classes_match_brute_force(klein_bottle(), 5)

    @pytest.mark.parametrize("name, K", [
        ("cube3", standard_cube(3)), ("boundary4", boundary_cube(4)),
        ("torus3", torus(3)), ("klein", klein_bottle()),
    ])
    def test_path_equal_matches_brute_force(self, name, K):
        # a few members of every class between every pair of states: equal
        # exactly when the oracle put them in one class
        for a in K.cells(0):
            for classes in brute_path_classes(K, a, 3).values():
                tagged = [(k, p) for k, (_, _, members) in enumerate(classes)
                          for p in sorted(members)[:3]]
                for (k, p), (l, q) in itertools.product(tagged, repeat=2):
                    if len(p) == len(q):
                        assert path_equal(K, p, q) == (k == l), (p, q)

    @pytest.mark.parametrize("block", range(10))
    def test_random_gluings(self, block):
        # 200 gluings in blocks of 20, each seed its own complex
        for seed in range(20 * block, 20 * block + 20):
            assert_classes_match_brute_force(random_glued_complex(random.Random(seed)), 4)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_cube_and_boundary_counts(self, n):
        for K in (standard_cube(n), boundary_cube(n)):
            assert count_flow_morphisms(K, n) == brute_flow_count(K, n)

    @pytest.mark.parametrize("name, K", [
        ("torus3", torus(3)),
        ("torus-circle", tensor(torus(2), circle())),
        ("klein", klein_bottle()),
    ])
    def test_looping_counts(self, name, K):
        for bound in range(5):
            assert count_flow_morphisms(K, bound) == brute_flow_count(K, bound)

    def test_cube9_corners_by_size(self):
        n = 9
        K = standard_cube(n)
        (c,) = enumerate_path_classes(K, "0" * n, "1" * n, n)
        assert c.size == math.factorial(n)
        assert c.representative == staircase(K, CellId(n, "*" * n)).edges

    def test_long_line_expands_members_without_recursion(self):
        # a directed line of 3,000 edges ending in a filled square: the one
        # corner-to-corner class has two members, each 3,002 edges long,
        # far deeper than the default recursion limit
        n = 3000
        states = [f"v{k}" for k in range(n + 1)] + ["p", "q", "r"]
        ends = {f"e{k}": (f"v{k}", f"v{k + 1}") for k in range(n)}
        ends.update({"x": (f"v{n}", "p"), "y": ("p", "r"),
                     "x2": (f"v{n}", "q"), "y2": ("q", "r")})
        faces = {(1, 1, alpha, e): ends[e][alpha] for e in ends for alpha in (0, 1)}
        faces.update({(2, 2, 0, "s"): "x", (2, 1, 1, "s"): "y",
                      (2, 1, 0, "s"): "x2", (2, 2, 1, "s"): "y2"})
        K = PrecubicalSet({0: states, 1: sorted(ends), 2: ["s"]}, faces)
        (c,) = enumerate_path_classes(K, "v0", "r", n + 2)
        line = tuple(f"e{k}" for k in range(n))
        assert c.size == 2
        assert c.members == frozenset({line + ("x", "y"), line + ("x2", "y2")})
        assert c.representative == line + ("x", "y")
        assert path_equal(K, line + ("x", "y"), line + ("x2", "y2"))


class TestPathClassValue:
    def test_equality_ignores_the_level_tables(self):
        K = standard_cube(2)
        (c,) = enumerate_path_classes(K, "00", "11", 2)
        hand = PathClass(("*0", "1*"), "00", "11", 2, 2)
        assert c == hand and hash(c) == hash(hand)
        assert c.members == frozenset({("*0", "1*"), ("0*", "*1")})

    def test_hand_built_singleton_knows_its_member(self):
        assert PathClass(("*",), "0", "1", 1, 1).members == frozenset({("*",)})

    def test_hand_built_class_cannot_invent_members(self):
        with pytest.raises(ValueError, match="hand-built"):
            PathClass(("*0", "1*"), "00", "11", 2, 2).members


def dangling_edge(missing: bool = False) -> PrecubicalSet:
    """Edges a -> b and b -> z, where z is not a declared state, or where
    the second edge's d[1,1] entry is absent altogether."""
    faces = {(1, 1, 0, "e0"): "a", (1, 1, 1, "e0"): "b", (1, 1, 0, "e"): "b"}
    if not missing:
        faces[(1, 1, 1, "e")] = "z"
    return PrecubicalSet({0: ["a", "b"], 1: ["e", "e0"]}, faces)


DANGLING = "cell (1, 'e'): face d[1,1] points at undeclared cell 'z'"
MISSING = "cell (1, 'e'): face d[1,1] is missing"


def test_map_path_names_an_edge_without_image():
    K = standard_cube(1)
    with pytest.raises(ValueError, match=r"^cell \(1, '\*'\) has no image$"):
        map_path(PcsMap(K, K, {}), edge_path(K, ["*"]))


class TestDanglingEndpoint:
    """An edge whose endpoint is undeclared or absent gets a named error,
    not a bare KeyError or a silent answer."""

    def test_state_order(self):
        with pytest.raises(ValueError, match=f"^{re.escape(DANGLING)}$"):
            state_order(dangling_edge())

    def test_count_flow_morphisms(self):
        with pytest.raises(ValueError, match=f"^{re.escape(DANGLING)}$"):
            count_flow_morphisms(dangling_edge(), 2)

    def test_path_equal(self):
        with pytest.raises(ValueError, match=f"^{re.escape(DANGLING)}$"):
            path_equal(dangling_edge(), ("e0",), ("e0",))

    def test_enumerate_path_classes(self):
        with pytest.raises(ValueError, match=f"^{re.escape(DANGLING)}$"):
            enumerate_path_classes(dangling_edge(), "a", "b", 2)

    def test_missing_endpoint(self):
        for call in (lambda K: state_order(K),
                     lambda K: count_flow_morphisms(K, 1),
                     lambda K: enumerate_path_classes(K, "a", "b", 1),
                     lambda K: edge_path(K, ("e",))):
            with pytest.raises(ValueError, match=f"^{re.escape(MISSING)}$"):
                call(dangling_edge(missing=True))


def pushout_leg(f: PcsMap, g: PcsMap, P: PrecubicalSet) -> PcsMap:
    """The map K -> P of the pushout P of K <- L -> M: each cell of K goes
    to the least tagged label of its identification class, as pushout
    names them.  Computed here from the identifications alone."""
    K, M = f.target, g.target
    parent = {}

    def find(x):
        while parent.get(x, x) != x:
            x = parent[x]
        return x

    for cell in f.source.all_cells():
        key = (cell.dim, cell.label)
        a = find((cell.dim, f"K:{f.mapping[key]}"))
        b = find((cell.dim, f"M:{g.mapping[key]}"))
        if a != b:
            parent[max(a, b)] = min(a, b)
    classes = {}
    for side, X in (("K", K), ("M", M)):
        for cell in X.all_cells():
            node = (cell.dim, f"{side}:{cell.label}")
            root = find(node)
            classes[root] = min(classes.get(root, node[1]), node[1])
    mapping = {
        (cell.dim, cell.label): classes[find((cell.dim, f"K:{cell.label}"))]
        for cell in K.all_cells()
    }
    return PcsMap(K, P, mapping)


class TestFunctoriality:
    """Along a pushout inclusion, paths that are equal in the source flow
    stay equal in the target flow."""

    @pytest.mark.parametrize("seed", range(30))
    def test_pushout_leg_preserves_path_equality(self, seed):
        # glue a second random complex along a vertex or along an edge; an
        # edge glued onto the circle's loop folds its two ends together, so
        # the leg need not be injective
        rng = random.Random(seed)
        K = random_glued_complex(rng)
        M = random_glued_complex(rng) if seed % 3 else circle()
        if seed % 3 == 1:
            L = standard_cube(0)
            f = PcsMap(L, K, {(0, ""): rng.choice(K.cells(0))})
            g = PcsMap(L, M, {(0, ""): rng.choice(M.cells(0))})
        else:
            L = standard_cube(1)
            f, g = (PcsMap(L, X, {(1, "*"): e, (0, "0"): X.face_label(1, e, 1, 0),
                                  (0, "1"): X.face_label(1, e, 1, 1)})
                    for X, e in ((K, rng.choice(K.cells(1))), (M, rng.choice(M.cells(1)))))
        P = pushout(f, g)
        leg = pushout_leg(f, g, P)
        assert leg.is_valid
        if seed % 3 == 0 and f.mapping[(0, "0")] != f.mapping[(0, "1")]:
            assert leg.mapping[(0, f.mapping[(0, "0")])] == leg.mapping[(0, f.mapping[(0, "1")])]
        checked = 0
        for a in K.cells(0):
            for b in K.cells(0):
                for c in enumerate_path_classes(K, a, b, 3):
                    members = sorted(c.members)
                    for p in members[:3]:
                        for q in members[-2:]:
                            assert path_equal(K, p, q)
                            mp = map_path(leg, edge_path(K, p))
                            mq = map_path(leg, edge_path(K, q))
                            assert path_equal(P, mp, mq)
                            checked += 1
        assert checked > 0


def classes_by_length(K, a, b, max_len):
    """c(a, b, n) for n = 0..max_len: the number of path classes of each
    length from a to b, with the empty path counted at length 0."""
    counts = [int(a == b)] + [0] * max_len
    for c in enumerate_path_classes(K, a, b, max_len):
        counts[c.length] += 1
    return counts


def commutation_complex(letters, pairs) -> PrecubicalSet:
    """One vertex v, one loop per letter, and for each commuting pair ab a
    square s with d[2,0]s = d[2,1]s = a and d[1,0]s = d[1,1]s = b."""
    faces = {(1, 1, alpha, x): "v" for x in letters for alpha in (0, 1)}
    for a, b in pairs:
        faces.update({(2, 2, 0, a + b): a, (2, 2, 1, a + b): a,
                      (2, 1, 0, a + b): b, (2, 1, 1, a + b): b})
    return PrecubicalSet({0: ["v"], 1: list(letters), 2: list(pairs)}, faces)


def cartier_foata_counts(K, max_len):
    """c_0..c_max_len for a one-vertex K whose squares are all commutations:
    c_0 = 1 and c_n = sum over r >= 1 of (-1)^(r+1) mu_r c_(n-r), mu_r the
    number of r-cliques of the graph that joins the two loops of each square
    (Cartier and Foata, LNM 85, 1969).  Read from the face table alone."""
    independent = set()
    for s in K.cells(2):
        a, b = K.face_label(2, s, 2, 0), K.face_label(2, s, 1, 0)
        assert (a, b) == (K.face_label(2, s, 2, 1), K.face_label(2, s, 1, 1)) and a != b, s
        independent.add(frozenset((a, b)))
    letters = K.cells(1)
    mu = [sum(all(frozenset(pair) in independent for pair in itertools.combinations(clique, 2))
              for clique in itertools.combinations(letters, r))
          for r in range(len(letters) + 1)]
    counts = [1]
    for n in range(1, max_len + 1):
        counts.append(sum((-1) ** (r + 1) * mu[r] * counts[n - r]
                          for r in range(1, min(n, len(letters)) + 1)))
    return counts


class TestClosedForms:
    """Path-class counts against closed forms that share no code with the
    class pass."""

    @pytest.mark.parametrize("name, K", [
        ("torus3", torus(3)),
        ("torus4", torus(4)),
        ("path-abc", commutation_complex("abc", ["ab", "bc"])),
        ("cycle4", commutation_complex("abcd", ["ab", "bc", "cd", "da"])),
        ("star4", commutation_complex("oabcd", ["oa", "ob", "oc", "od"])),
    ])
    def test_cartier_foata(self, name, K):
        # every square is a commutation of two loops at the one vertex, so
        # the classes are the traces of the independence graph; cubes of
        # dimension 3 and up add no relation
        n = 6
        (v,) = K.cells(0)
        expected = cartier_foata_counts(K, n)
        assert classes_by_length(K, v, v, n) == expected
        assert count_flow_morphisms(K, n) == sum(expected[1:])

    @pytest.mark.parametrize("letters, pairs", [
        ("abc", ["ab", "bc"]),
        ("abcd", ["ab", "bc", "cd", "da"]),
        ("oabc", ["oa", "ob", "oc"]),
    ], ids=["path-abc", "cycle4", "star3"])
    def test_path_equal_is_trace_equality(self, letters, pairs):
        # two words are equal as traces when they have the same letters and
        # the same projection onto every pair of letters that do not commute
        # (Diekert and Rozenberg, The Book of Traces, 1995); words with
        # different letters are never equal, so only those with the same
        # letters are paired
        K = commutation_complex(letters, pairs)
        dependent = [set(pair) for pair in itertools.combinations(letters, 2)
                     if "".join(pair) not in pairs and "".join(pair)[::-1] not in pairs]
        anagrams = {}
        for word in itertools.product(letters, repeat=4):
            anagrams.setdefault("".join(sorted(word)), []).append(word)
        verdicts = set()
        for words in anagrams.values():
            for p, q in itertools.combinations(words, 2):
                trace_equal = all([x for x in p if x in pair] == [x for x in q if x in pair]
                                  for pair in dependent)
                assert path_equal(K, p, q) == trace_equal, (p, q)
                verdicts.add(trace_equal)
        assert verdicts == {True, False}

    def test_cartier_foata_recurrence(self):
        # all d loops of torus(d) commute, so a trace is a multiset of
        # letters; the path a-b-c reaches lengths no class pass can
        for d in (3, 4):
            assert cartier_foata_counts(torus(d), 6) == [math.comb(n + d - 1, d - 1)
                                                          for n in range(7)]
        path = commutation_complex("abc", ["ab", "bc"])
        assert sum(cartier_foata_counts(path, 40)[1:]) == 4_398_046_511_060

    FACTORS = {
        "circle": circle(),
        "wedge": wedge_of_circles(),
        "boundary3": boundary_cube(3),
        "square": standard_cube(2),
        "glued1": random_glued_complex(random.Random(1)),
        "glued2": random_glued_complex(random.Random(2)),
    }

    @pytest.mark.parametrize("left, right", itertools.combinations(FACTORS, 2))
    def test_product_law(self, left, right):
        # the trace space of a product is the product of the trace spaces:
        # a class of K (x) L of length n is a pair of classes of lengths
        # i + j = n, one in each factor
        n = 4
        K, L = self.FACTORS[left], self.FACTORS[right]
        counts_K = {(a, x): classes_by_length(K, a, x, n) for a in K.cells(0) for x in K.cells(0)}
        counts_L = {(b, y): classes_by_length(L, b, y, n) for b in L.cells(0) for y in L.cells(0)}
        P = tensor(K, L)
        for (a, x), ck in counts_K.items():
            for (b, y), cl in counts_L.items():
                expected = [sum(ck[i] * cl[k - i] for i in range(k + 1)) for k in range(n + 1)]
                assert classes_by_length(P, f"{a}|{b}", f"{x}|{y}", n) == expected, (a, b, x, y)

    PROJECTION_FACTORS = {
        "circle": circle(),
        "I1": standard_cube(1),
        "I2": standard_cube(2),
        "wedge": wedge_of_circles(),
        "klein": klein_bottle(),
        "interval2": interval(2),
        "boundary3": boundary_cube(3),
    }

    @pytest.mark.parametrize("left, right", [
        ("boundary3", "klein"), ("klein", "klein"), ("boundary3", "wedge"),
        ("circle", "wedge"), ("interval2", "wedge"), ("I1", "klein"), ("I2", "wedge"),
    ])
    def test_path_equal_is_projection_equality(self, left, right):
        # a step of K (x) L moves in one factor and stays put in the other,
        # so a path projects to a path of K and one of L; two paths with
        # the same ends are equal exactly when both projections are, where
        # an empty projection equals only an empty one.  Same-end pairs of
        # length <= 4 are sampled, half of them with identical projections.
        K, L = self.PROJECTION_FACTORS[left], self.PROJECTION_FACTORS[right]
        P = tensor(K, L)
        steps = {f"{e}|{v}": (e, None) for e in K.cells(1) for v in L.cells(0)}
        steps.update({f"{v}|{e}": (None, e) for v in K.cells(0) for e in L.cells(1)})
        assert sorted(steps) == sorted(P.cells(1))

        def projections(path):
            return tuple(tuple(steps[e][k] for e in path if steps[e][k] is not None)
                         for k in (0, 1))

        def equal(M, p, q):
            return path_equal(M, p, q) if p and q else p == q

        out = {v: [e for e in P.cells(1) if P.face_label(1, e, 1, 0) == v] for v in P.cells(0)}
        groups = {}
        frontier = [((), v, v) for v in P.cells(0)]
        for _ in range(4):
            frontier = [(path + (e,), a, P.face_label(1, e, 1, 1))
                        for path, a, b in frontier for e in out[b]]
            for path, a, b in frontier:
                groups.setdefault((a, b, len(path)), []).append(path)
        pool = [paths for paths in groups.values() if len(paths) > 1]
        rng = random.Random(f"{left}|{right}")
        verdicts = set()
        for n in range(400):
            paths = rng.choice(pool)
            p = rng.choice(paths)
            if n % 2:
                q = rng.choice(paths)
            else:
                q = rng.choice([q for q in paths if projections(q) == projections(p)])
            (pk, pl), (qk, ql) = projections(p), projections(q)
            verdict = equal(K, pk, qk) and equal(L, pl, ql)
            assert path_equal(P, p, q) == verdict, (p, q)
            verdicts.add(verdict)
        assert verdicts == {True, False}
