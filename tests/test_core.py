"""Presheaf kernel: constructors, validation, the cube category, gluing."""

import itertools
import math
import random

import pytest

from precubical import (
    CellId,
    CubeWord,
    PcsMap,
    PrecubicalSet,
    apply_cube_map,
    boundary_cube,
    cube_category,
    disjoint_union,
    find_isomorphism,
    interval,
    isomorphic,
    pushout,
    skeleton,
    standard_cube,
    tensor,
    validate,
)

from conftest import CORPUS, random_glued_complex


def brute_words(n, stars=None):
    # enumerator independent of the library's cube_words
    for tup in itertools.product("01*", repeat=n):
        word = "".join(tup)
        if stars is None or word.count("*") == stars:
            yield word


class TestStandardCube:
    def test_point(self):
        K = standard_cube(0)
        assert K.cell_counts() == (1,)
        assert K.cells(0) == ("",)

    def test_square(self):
        K = standard_cube(2)
        assert K.cell_counts() == (4, 4, 1)

    def test_cube3(self):
        assert standard_cube(3).cell_counts() == (8, 12, 6, 1)

    @pytest.mark.parametrize("n", range(7))
    def test_cell_count_formula(self, n):
        K = standard_cube(n)
        for k in range(n + 1):
            assert K.n_cells(k) == math.comb(n, k) * 2 ** (n - k)

    @pytest.mark.parametrize("n", range(5))
    def test_cells_are_words(self, n):
        K = standard_cube(n)
        for k in range(n + 1):
            assert K.cells(k) == tuple(sorted(brute_words(n, stars=k)))

    def test_face_sets_ith_star(self):
        K = standard_cube(3)
        assert K.face_label(3, "***", 2, 1) == "*1*"
        assert K.face_label(2, "*0*", 2, 0) == "*00"
        assert K.face_label(1, "1*1", 1, 0) == "101"

    @pytest.mark.parametrize("n", range(5))
    def test_validates(self, n):
        assert validate(standard_cube(n)) == []

    def test_negative_dimension_rejected(self):
        with pytest.raises(ValueError):
            standard_cube(-1)


class TestBoundaryCube:
    def test_dimension_zero_is_empty(self):
        K = boundary_cube(0)
        assert K.cell_counts() == ()
        assert K.top_dim == -1

    def test_square_boundary(self):
        assert boundary_cube(2).cell_counts() == (4, 4)

    def test_cube3_boundary(self):
        assert boundary_cube(3).cell_counts() == (8, 12, 6)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_is_skeleton_of_cube(self, n):
        assert boundary_cube(n) == skeleton(standard_cube(n), n - 1)


class TestValidate:
    def test_corpus_is_valid(self, corpus_complex):
        _, K = corpus_complex
        assert validate(K) == []

    def test_relation_oracle_agrees(self, corpus_complex):
        # direct re-check of every relation instance, bypassing validate
        _, K = corpus_complex
        for dim in range(2, K.top_dim + 1):
            for c in K.cells(dim):
                for j in range(2, dim + 1):
                    for i in range(1, j):
                        for alpha in (0, 1):
                            for beta in (0, 1):
                                left = K.face_label(dim - 1, K.face_label(dim, c, j, beta), i, alpha)
                                right = K.face_label(dim - 1, K.face_label(dim, c, i, alpha), j - 1, beta)
                                assert left == right

    def test_corrupted_cube_names_the_cell(self):
        K = standard_cube(3)
        faces = K.face_map
        faces[(3, 1, 0, "***")] = "*0*"  # wrong square: the true face is 0**
        broken = PrecubicalSet({d: K.cells(d) for d in range(4)}, faces)
        report = validate(broken)
        assert any(v.kind == "cubical-relation" and v.cell == "***" for v in report)

    def test_dangling_face_reported(self):
        K = PrecubicalSet(
            {0: ["a", "b"], 1: ["e"]},
            {(1, 1, 0, "e"): "a", (1, 1, 1, "e"): "missing"},
        )
        report = validate(K)
        assert [v.kind for v in report] == ["dangling-face"]
        assert report[0].cell == "e" and report[0].i == 1 and report[0].alpha == 1

    def test_missing_face_reported(self):
        K = PrecubicalSet({0: ["a"], 1: ["e"]}, {(1, 1, 0, "e"): "a"})
        report = validate(K)
        assert [v.kind for v in report] == ["missing-face"]
        assert (report[0].dim, report[0].i, report[0].alpha, report[0].cell) == (1, 1, 1, "e")

    def test_structural_errors_rejected_at_construction(self):
        with pytest.raises(ValueError):
            PrecubicalSet({0: ["a", "a"]})
        with pytest.raises(ValueError):
            PrecubicalSet({0: ["a"], 1: ["e"]}, {(1, 2, 0, "e"): "a"})
        with pytest.raises(ValueError):
            PrecubicalSet({0: ["a"]}, {(1, 1, 0, "ghost"): "a"})

    @pytest.mark.parametrize("cells, faces, message", [
        ({True: ["a"]}, {}, "cell dimension must be a non-negative int: True"),
        ({0: ["a"], 1: ["e"]}, {(True, 1, 0, "e"): "a"}, "face dimension must be an int >= 1: True"),
        ({0: ["a"], 1: ["e"]}, {(1, True, 0, "e"): "a"}, "face index True out of range 1..1"),
        ({0: ["a"], 1: ["e"]}, {(1, 1, False, "e"): "a"}, "face sign must be 0 or 1: False"),
    ], ids=["cell-dim", "face-dim", "index", "sign"])
    def test_booleans_are_not_indices(self, cells, faces, message):
        with pytest.raises(ValueError) as err:
            PrecubicalSet(cells, faces)
        assert str(err.value) == message


def brute_violations(K):
    """Every defect validate should report, as (kind, dim, cell, i, alpha,
    j, beta, detail) tuples: face defects over (dim, cell, i, alpha), then
    relation failures over (dim, cell, j, i, alpha, beta)."""
    table = K.face_map
    declared = {(d, c) for d in range(K.top_dim + 1) for c in K.cells(d)}

    def step(dim, cell, i, alpha):
        value = table.get((dim, i, alpha, cell))
        return value if (dim - 1, value) in declared else None

    faces_out, relations_out = [], []
    for dim, cell in sorted(declared):
        for i, alpha in itertools.product(range(1, dim + 1), (0, 1)):
            value = table.get((dim, i, alpha, cell))
            if value is None:
                faces_out.append(("missing-face", dim, cell, i, alpha, None, None, ""))
            elif (dim - 1, value) not in declared:
                faces_out.append(("dangling-face", dim, cell, i, alpha, None, None,
                                  "points at undeclared cell %r" % (value,)))
        for j in range(2, dim + 1):
            for i, alpha, beta in itertools.product(range(1, j), (0, 1), (0, 1)):
                jb, ia = step(dim, cell, j, beta), step(dim, cell, i, alpha)
                if jb is None or ia is None:
                    continue
                left, right = step(dim - 1, jb, i, alpha), step(dim - 1, ia, j - 1, beta)
                if left is not None and right is not None and left != right:
                    detail = "d[%d,%d]d[%d,%d] = %r but d[%d,%d]d[%d,%d] = %r" % (
                        i, alpha, j, beta, left, j - 1, beta, i, alpha, right)
                    relations_out.append(
                        ("cubical-relation", dim, cell, i, alpha, j, beta, detail))
    return faces_out + relations_out


def corrupt(K, rng, edits):
    """K with some face entries removed, pointed at undeclared cells, or
    swapped with another entry of the same dimension."""
    table = K.face_map
    keys = sorted(table)
    for _ in range(edits):
        key = rng.choice(keys)
        if key not in table:
            continue
        roll = rng.random()
        if roll < 0.3:
            del table[key]
        elif roll < 0.5:
            table[key] = rng.choice(["ghost", "*", ""])
        else:
            other = rng.choice([k for k in keys if k[0] == key[0] and k in table])
            table[key], table[other] = table[other], table[key]
    return PrecubicalSet({d: K.cells(d) for d in range(K.top_dim + 1)}, table)


class TestValidateAgainstBruteForce:
    @pytest.mark.parametrize("seed", range(40))
    def test_seeded_corruptions(self, seed):
        rng = random.Random(seed)
        base = rng.choice([standard_cube(3), standard_cube(4), boundary_cube(4),
                           random_glued_complex(rng)])
        K = corrupt(base, rng, rng.randint(1, 6))
        got = [(v.kind, v.dim, v.cell, v.i, v.alpha, v.j, v.beta, v.detail) for v in validate(K)]
        assert got == brute_violations(K)

    def test_every_kind_is_exercised(self):
        kinds = set()
        for seed in range(40):
            rng = random.Random(seed)
            base = rng.choice([standard_cube(3), standard_cube(4), boundary_cube(4),
                               random_glued_complex(rng)])
            kinds.update(v[0] for v in brute_violations(corrupt(base, rng, rng.randint(1, 6))))
        assert kinds == {"missing-face", "dangling-face", "cubical-relation"}

    def test_valid_corpus_agrees(self, corpus_complex):
        _, K = corpus_complex
        assert brute_violations(K) == []


class TestSkeleton:
    def test_square_skeleton_is_its_boundary(self):
        assert skeleton(standard_cube(2), 1) == boundary_cube(2)

    def test_full_skeleton_is_identity(self):
        K = standard_cube(3)
        assert skeleton(K, 3) == K
        assert skeleton(K, 7) == K

    def test_vertices_only(self):
        assert skeleton(boundary_cube(3), 0).cell_counts() == (8,)

    @pytest.mark.parametrize("m,n", [(0, 1), (1, 0), (2, 3), (3, 2), (1, 1), (0, 0)])
    def test_min_rule(self, corpus_complex, m, n):
        _, K = corpus_complex
        assert skeleton(skeleton(K, m), n) == skeleton(K, min(m, n))


class TestCubeWord:
    def test_identity(self):
        w = CubeWord.identity(3)
        assert w.letters == "***" and w.is_identity

    def test_compose_substitutes_stars(self):
        assert CubeWord("*0*").compose("1*").letters == "10*"
        assert CubeWord("**").compose("01").letters == "01"

    def test_compose_length_mismatch(self):
        with pytest.raises(ValueError):
            CubeWord("*0").compose("01")

    def test_bad_letters_rejected(self):
        with pytest.raises(ValueError):
            CubeWord("0x1")

    def test_associativity_exhaustive(self):
        for n in range(4):
            for u in brute_words(n):
                wu = CubeWord(u)
                for v in brute_words(wu.stars):
                    wv = CubeWord(v)
                    for w in brute_words(wv.stars):
                        left = wu.compose(wv).compose(w)
                        right = wu.compose(wv.compose(w))
                        assert left == right


class TestApplyCubeMap:
    def test_identity_word(self):
        K = standard_cube(2)
        top = CellId(2, "**")
        assert apply_cube_map(K, top, "**") == top

    def test_single_face(self):
        K = standard_cube(2)
        assert apply_cube_map(K, CellId(2, "**"), "0*") == CellId(1, "0*")

    def test_both_face_orders_agree(self):
        # the word 01* factors through cofaces two ways; both must land on
        # the edge 01*
        K = standard_cube(3)
        top = CellId(3, "***")
        assert apply_cube_map(K, top, "01*") == CellId(1, "01*")
        route_a = K.face(K.face(top, 1, 0), 1, 1)
        route_b = K.face(K.face(top, 2, 1), 1, 0)
        assert route_a == route_b == CellId(1, "01*")

    @pytest.mark.parametrize("n", range(4))
    def test_representable_action_is_composition(self, n):
        # on the standard cube, acting by w is composing words
        K = standard_cube(n)
        for c in K.all_cells():
            for w in brute_words(c.dim):
                expected = CubeWord(c.label).compose(w).letters
                assert apply_cube_map(K, c, w).label == expected

    @pytest.mark.parametrize("n", range(5))
    def test_functoriality_exhaustive(self, n):
        K = standard_cube(n)
        for c in K.all_cells():
            for u in brute_words(c.dim):
                wu = CubeWord(u)
                cu = apply_cube_map(K, c, wu)
                for v in brute_words(wu.stars):
                    assert apply_cube_map(K, c, wu.compose(v)) == apply_cube_map(K, cu, v)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            apply_cube_map(standard_cube(2), CellId(2, "**"), "*")

    @pytest.mark.parametrize("cell, word", [(CellId(1, "x"), "0"), (CellId(0, "x"), "")])
    def test_undeclared_cell_is_named(self, cell, word):
        # the vertex used to come back unchanged and the edge gave a bare KeyError
        message = r"^undeclared cell \(%d, 'x'\)$" % cell.dim
        with pytest.raises(ValueError, match=message):
            apply_cube_map(standard_cube(1), cell, word)


class TestFace:
    @staticmethod
    def edge(*ends) -> PrecubicalSet:
        """One vertex a and an edge e whose d[1,0], d[1,1], ... are ends."""
        return PrecubicalSet({0: ["a"], 1: ["e"]},
                             {(1, 1, alpha, "e"): v for alpha, v in enumerate(ends)})

    def test_valid_faces(self):
        K = standard_cube(2)
        assert K.face(CellId(2, "**"), 2, 1) == CellId(1, "*1")
        assert K.face(CellId(1, "*1"), 1, 0) == CellId(0, "01")

    def test_missing_entry_is_named(self):
        K = self.edge("a")
        with pytest.raises(ValueError, match=r"^cell \(1, 'e'\): face d\[1,1\] is missing$"):
            K.face(CellId(1, "e"), 1, 1)
        with pytest.raises(ValueError, match=r"^cell \(1, 'e'\): face d\[2,0\] is missing$"):
            K.face(CellId(1, "e"), 2, 0)

    def test_dangling_entry_is_named(self):
        K = self.edge("a", "z")
        with pytest.raises(
            ValueError, match=r"^cell \(1, 'e'\): face d\[1,1\] points at undeclared cell 'z'$"
        ):
            K.face(CellId(1, "e"), 1, 1)
        assert K.face(CellId(1, "e"), 1, 0) == CellId(0, "a")

    def test_undeclared_cell_is_named(self):
        with pytest.raises(ValueError, match=r"^undeclared cell \(1, 'x'\)$"):
            standard_cube(1).face(CellId(1, "x"), 1, 0)


class TestFaceStorage:
    """Faces are stored one row per cell, so the face table reads back in
    canonical order whatever order the entries came in."""

    CELLS = {0: ["b", "a"], 1: ["f", "e"], 2: ["s"]}
    # d[1,1] of e and d[1,1] of s are missing; the order is not canonical
    ENTRIES = [((2, 2, 1, "s"), "f"), ((1, 1, 1, "f"), "b"), ((2, 1, 0, "s"), "e"),
               ((1, 1, 0, "e"), "a"), ((2, 2, 0, "s"), "e"), ((1, 1, 0, "f"), "a")]
    CANONICAL = [((1, 1, 0, "e"), "a"), ((1, 1, 0, "f"), "a"), ((1, 1, 1, "f"), "b"),
                 ((2, 1, 0, "s"), "e"), ((2, 2, 0, "s"), "e"), ((2, 2, 1, "s"), "f")]

    def test_hand_built_complex_round_trips_in_canonical_order(self):
        orders = [self.ENTRIES, self.ENTRIES[::-1]]
        for seed in range(5):
            orders.append(random.Random(seed).sample(self.ENTRIES, len(self.ENTRIES)))
        for entries in orders:
            K = PrecubicalSet(self.CELLS, dict(entries))
            assert list(K.face_map.items()) == self.CANONICAL
            assert PrecubicalSet(self.CELLS, K.face_map) == K
            assert K == PrecubicalSet(self.CELLS, dict(self.CANONICAL))
            assert [v.kind for v in validate(K)] == ["missing-face", "missing-face"]

    def test_absent_entries_read_as_none(self):
        K = PrecubicalSet(self.CELLS, dict(self.ENTRIES))
        assert K.face_label(1, "e", 1, 1) is None
        assert K.face_label(1, "e", 2, 0) is None
        assert K.face_label(1, "e", 0, 1) is None
        assert K.face_label(0, "a", 1, 0) is None
        assert K.face_label(1, "ghost", 1, 0) is None
        assert K.face_label(2, "s", 2, 1) == "f"

    def test_missing_entries_are_part_of_equality(self):
        K = PrecubicalSet(self.CELLS, dict(self.ENTRIES))
        fuller = PrecubicalSet(self.CELLS, {**dict(self.ENTRIES), (1, 1, 1, "e"): "b"})
        assert K != fuller
        assert K == PrecubicalSet({1: ["e", "f"], 2: ["s"], 0: ["a", "b"], 3: []},
                                  dict(self.ENTRIES))


class TestPcsMapImages:
    def test_cell_without_image_is_named(self):
        K = standard_cube(1)
        with pytest.raises(ValueError, match=r"^cell \(0, '0'\) has no image$"):
            PcsMap(K, K, {})(CellId(0, "0"))
        assert PcsMap.identity(K)(CellId(1, "*")) == CellId(1, "*")


class TestPcsMapDefects:
    def test_dangling_source_face_is_a_defect(self):
        # a mapping entry for the undeclared z made both feet of d[1,1]
        # agree, so this map passed as a morphism
        L = PrecubicalSet({0: ["a"], 1: ["e"]}, {(1, 1, 0, "e"): "a", (1, 1, 1, "e"): "z"})
        h = PcsMap(L, standard_cube(1), {(1, "e"): "*", (0, "a"): "0", (0, "z"): "1"})
        assert not h.is_valid
        assert h.defects() == ["source cell (1, 'e'): face d[1,1] points at undeclared cell 'z'"]

    def test_missing_faces_on_both_sides_are_defects(self):
        # None == None used to pass as commuting faces
        half = PrecubicalSet({0: ["a"], 1: ["e"]}, {(1, 1, 0, "e"): "a"})
        h = PcsMap(half, half, {(0, "a"): "a", (1, "e"): "e"})
        assert h.defects() == [
            "source cell (1, 'e'): face d[1,1] is missing",
            "target cell (1, 'e'): face d[1,1] is missing",
        ]

    def test_dangling_target_face_is_a_defect(self):
        T = PrecubicalSet({0: ["0", "1"], 1: ["*"]}, {(1, 1, 0, "*"): "0", (1, 1, 1, "*"): "q"})
        h = PcsMap(standard_cube(1), T, {(0, "0"): "0", (0, "1"): "1", (1, "*"): "*"})
        assert h.defects() == [
            "target cell (1, '*'): face d[1,1] points at undeclared cell 'q'"
        ]

    def test_valid_maps_have_no_defects(self, corpus_complex):
        _, K = corpus_complex
        assert PcsMap.identity(K).defects() == []
        assert PcsMap.inclusion(skeleton(K, 1), K).defects() == []

    def test_non_commuting_faces_keep_their_message(self):
        edge = standard_cube(1)
        bad = PcsMap(edge, edge, {(0, "0"): "0", (0, "1"): "0", (1, "*"): "*"})
        assert bad.defects() == ["faces do not commute at (1, '*'), d[1,1]: '0' != '1'"]
        with pytest.raises(ValueError) as info:
            pushout(bad, PcsMap.identity(edge))
        assert str(info.value) == (
            "f is not a precubical morphism: faces do not commute at (1, '*'), d[1,1]: '0' != '1'"
        )


class TestCubeCategory:
    @staticmethod
    def non_identity(arrows):
        return [a for a in arrows if not a[2].is_identity]

    def test_edge(self):
        K = standard_cube(1)
        arrows = cube_category(K)
        assert len(list(K.all_cells())) == 3
        assert len(self.non_identity(arrows)) == 2

    def test_point(self):
        K = standard_cube(0)
        arrows = cube_category(K)
        assert len(list(K.all_cells())) == 1
        assert len(self.non_identity(arrows)) == 0

    def test_square(self):
        K = standard_cube(2)
        arrows = cube_category(K)
        assert len(list(K.all_cells())) == 9
        assert len(self.non_identity(arrows)) == 16

    def test_identities_present(self):
        K = standard_cube(2)
        arrows = set(cube_category(K))
        for obj in K.all_cells():
            assert (obj, obj, CubeWord.identity(obj.dim)) in arrows
        # and the identities are exactly the all-stars arrows on each object
        identities = [a for a in arrows if a[2].is_identity]
        assert len(identities) == 9 and all(a[0] == a[1] for a in identities)

    def test_closed_under_composition(self):
        K = standard_cube(2)
        arrows = cube_category(K)
        assert list(arrows) == sorted(arrows, key=lambda a: (a[0], a[1], a[2].letters))
        arrows = set(arrows)
        for src_a, tgt_a, w_a in arrows:
            for src_b, tgt_b, w_b in arrows:
                if tgt_a == src_b:
                    assert (src_a, tgt_b, w_b.compose(w_a)) in arrows


class TestPushout:
    def test_coproduct(self):
        K = standard_cube(2)
        M = interval(1)
        union = disjoint_union(K, M)
        assert union.cell_counts() == (6, 5, 1)
        assert validate(union) == []

    def test_two_edges_glued_end_to_start(self):
        point, edge = standard_cube(0), standard_cube(1)
        f = PcsMap(point, edge, {(0, ""): "1"})
        g = PcsMap(point, edge, {(0, ""): "0"})
        P = pushout(f, g)
        assert P.cell_counts() == (3, 2)
        assert isomorphic(P, interval(2))

    def test_edge_endpoints_glued_to_vertex_gives_circle(self):
        from precubical import circle

        two_points = disjoint_union(standard_cube(0), standard_cube(0))
        f = PcsMap(two_points, standard_cube(1), {(0, "K:"): "0", (0, "M:"): "1"})
        g = PcsMap(two_points, standard_cube(0), {(0, "K:"): "", (0, "M:"): ""})
        P = pushout(f, g)
        assert P.cell_counts() == (1, 1)
        assert isomorphic(P, circle())

    def test_non_commuting_map_rejected(self):
        edge = standard_cube(1)
        bad = PcsMap(edge, edge, {(0, "0"): "0", (0, "1"): "0", (1, "*"): "*"})
        with pytest.raises(ValueError, match="not a precubical morphism"):
            pushout(bad, PcsMap.identity(edge))

    def test_mismatched_feet_rejected(self):
        from precubical import empty_map

        f = empty_map(standard_cube(1))
        g = PcsMap(standard_cube(0), standard_cube(1), {(0, ""): "0"})
        with pytest.raises(ValueError, match="same source"):
            pushout(f, g)

    def test_random_gluings_validate(self):
        rng = random.Random(20260819)
        for _ in range(20):
            assert validate(random_glued_complex(rng)) == []

    def test_labels_and_face_order_are_fixed(self):
        # two squares glued along an edge: untouched cells keep their own
        # tag, each glued class takes its least tagged member, and the face
        # table lists classes by dimension, K's cells before M's, in label order
        square, edge = standard_cube(2), standard_cube(1)
        f = PcsMap(edge, square, {(1, "*"): "*1", (0, "0"): "01", (0, "1"): "11"})
        g = PcsMap(edge, square, {(1, "*"): "*0", (0, "0"): "00", (0, "1"): "10"})
        P = pushout(f, g)
        assert {d: P.cells(d) for d in range(3)} == {
            0: ("K:00", "K:01", "K:10", "K:11", "M:01", "M:11"),
            1: ("K:*0", "K:*1", "K:0*", "K:1*", "M:*1", "M:0*", "M:1*"),
            2: ("K:**", "M:**"),
        }
        assert list(P.face_map.items()) == [
            ((1, 1, 0, "K:*0"), "K:00"), ((1, 1, 1, "K:*0"), "K:10"),
            ((1, 1, 0, "K:*1"), "K:01"), ((1, 1, 1, "K:*1"), "K:11"),
            ((1, 1, 0, "K:0*"), "K:00"), ((1, 1, 1, "K:0*"), "K:01"),
            ((1, 1, 0, "K:1*"), "K:10"), ((1, 1, 1, "K:1*"), "K:11"),
            ((1, 1, 0, "M:*1"), "M:01"), ((1, 1, 1, "M:*1"), "M:11"),
            ((1, 1, 0, "M:0*"), "K:01"), ((1, 1, 1, "M:0*"), "M:01"),
            ((1, 1, 0, "M:1*"), "K:11"), ((1, 1, 1, "M:1*"), "M:11"),
            ((2, 1, 0, "K:**"), "K:0*"), ((2, 1, 1, "K:**"), "K:1*"),
            ((2, 2, 0, "K:**"), "K:*0"), ((2, 2, 1, "K:**"), "K:*1"),
            ((2, 1, 0, "M:**"), "M:0*"), ((2, 1, 1, "M:**"), "M:1*"),
            ((2, 2, 0, "M:**"), "K:*1"), ((2, 2, 1, "M:**"), "M:*1"),
        ]

    def test_glued_cells_of_two_dimensions_may_share_a_label(self):
        # labels are unique only within a dimension: the glued vertex a and
        # the glued edge a both name their class "K:a", and both are kept
        K = PrecubicalSet({0: ["a", "b"], 1: ["a", "c"]}, {
            (1, 1, 0, "a"): "a", (1, 1, 1, "a"): "b",
            (1, 1, 0, "c"): "b", (1, 1, 1, "c"): "a",
        })
        f = PcsMap(standard_cube(1), K, {(0, "0"): "a", (0, "1"): "b", (1, "*"): "a"})
        P = pushout(f, f)
        assert {d: P.cells(d) for d in range(2)} == {
            0: ("K:a", "K:b"),
            1: ("K:a", "K:c", "M:c"),
        }
        assert list(P.face_map.items()) == [
            ((1, 1, 0, "K:a"), "K:a"), ((1, 1, 1, "K:a"), "K:b"),
            ((1, 1, 0, "K:c"), "K:b"), ((1, 1, 1, "K:c"), "K:a"),
            ((1, 1, 0, "M:c"), "K:b"), ((1, 1, 1, "M:c"), "K:a"),
        ]
        loop = PrecubicalSet({0: ["a"], 1: ["a"]}, {(1, 1, 0, "a"): "a", (1, 1, 1, "a"): "a"})
        identity = PcsMap(loop, loop, {(0, "a"): "a", (1, "a"): "a"})
        assert pushout(identity, identity) == PrecubicalSet(
            {0: ["K:a"], 1: ["K:a"]}, {(1, 1, 0, "K:a"): "K:a", (1, 1, 1, "K:a"): "K:a"}
        )

    def test_dangling_face_of_the_common_source_is_rejected(self):
        # a mapping entry for the undeclared z would let f and g commute,
        # but the images of z would never be identified
        L = PrecubicalSet({0: ["a"], 1: ["e"]}, {(1, 1, 0, "e"): "a", (1, 1, 1, "e"): "z"})
        edge = standard_cube(1)
        mapping = {(1, "e"): "*", (0, "a"): "0", (0, "z"): "1"}
        with pytest.raises(ValueError, match=r"^cell \(1, 'e'\): face d\[1,1\] points at undeclared cell 'z'$"):
            pushout(PcsMap(L, edge, mapping), PcsMap(L, edge, mapping))


class TestTensor:
    def test_square_from_two_edges(self):
        T = tensor(standard_cube(1), standard_cube(1))
        assert T.cell_counts() == (4, 4, 1)
        assert isomorphic(T, standard_cube(2))

    def test_point_is_a_unit(self):
        for _, K in CORPUS[:8]:
            assert isomorphic(tensor(K, standard_cube(0)), K)
            assert isomorphic(tensor(standard_cube(0), K), K)

    def test_cylinder_counts(self):
        from precubical import circle

        T = tensor(circle(), standard_cube(1))
        assert T.cell_counts() == (2, 3, 1)

    @pytest.mark.parametrize("p,q", [(0, 3), (1, 1), (1, 2), (2, 2), (1, 3), (3, 1), (4, 0)])
    def test_cubes_add(self, p, q):
        assert isomorphic(tensor(standard_cube(p), standard_cube(q)), standard_cube(p + q))

    def test_results_validate(self, corpus_complex):
        _, K = corpus_complex
        assert validate(tensor(K, standard_cube(1))) == []

    def test_missing_face_is_named_in_either_factor(self):
        # without the check the product had faces labeled "None|0", and a
        # dangling face became one dangling product face per cell of the
        # other factor ('z|0', 'z|1', 'z|*')
        missing = PrecubicalSet({0: ["a"], 1: ["e"]}, {(1, 1, 0, "e"): "a"})
        dangling = PrecubicalSet({0: ["a"], 1: ["e"]}, {(1, 1, 0, "e"): "z", (1, 1, 1, "e"): "a"})
        for broken, message in (
            (missing, r"^cell \(1, 'e'\): face d\[1,1\] is missing$"),
            (dangling, r"^cell \(1, 'e'\): face d\[1,0\] points at undeclared cell 'z'$"),
        ):
            with pytest.raises(ValueError, match=message):
                tensor(broken, standard_cube(1))
            with pytest.raises(ValueError, match=message):
                tensor(standard_cube(1), broken)


class TestIsomorphism:
    def test_distinguishes_counts(self):
        assert find_isomorphism(standard_cube(1), standard_cube(2)) is None

    def test_distinguishes_structure(self):
        from precubical import circle

        # same cell vector (1 vertex, 1 edge) cannot exist twice differently,
        # so compare circle against a two-vertex edge instead
        assert find_isomorphism(circle(), standard_cube(1)) is None

    def test_mapping_is_a_morphism(self):
        K = tensor(standard_cube(1), standard_cube(1))
        mapping = find_isomorphism(K, standard_cube(2))
        assert mapping is not None
        assert PcsMap(K, standard_cube(2), mapping).is_valid

    @staticmethod
    def two_edges(first, second):
        ends = {"a": first, "b": second}
        vertices = sorted({v for pair in ends.values() for v in pair})
        faces = {(1, 1, alpha, e): ends[e][alpha] for e in ends for alpha in (0, 1)}
        return PrecubicalSet({0: vertices, 1: ["a", "b"]}, faces)

    def test_backtracks_out_of_a_wrong_first_choice(self):
        # a -> a is tried first and only fails one cell later, at b
        K = self.two_edges(("p", "q"), ("q", "r"))
        L = self.two_edges(("y", "z"), ("x", "y"))
        assert find_isomorphism(K, L) == {
            (1, "a"): "b", (1, "b"): "a", (0, "p"): "x", (0, "q"): "y", (0, "r"): "z",
        }

    def test_exhausted_search_gives_none(self):
        K = self.two_edges(("p", "q"), ("q", "r"))
        L = self.two_edges(("x", "y"), ("x", "z"))
        assert find_isomorphism(K, L) is None

    def test_cube7_against_itself(self):
        # 2,187 cells: one recursive call per cell overran the recursion limit
        K = standard_cube(7)
        assert find_isomorphism(K, standard_cube(7)) == {
            (c.dim, c.label): c.label for c in K.all_cells()
        }

    def test_many_isolated_vertices_against_themselves(self):
        # every vertex is a free choice, so the search is 3,000 levels deep
        K = PrecubicalSet({0: [f"v{k}" for k in range(3000)]}, {})
        assert find_isomorphism(K, K) == {(0, v): v for v in K.cells(0)}

    def test_free_choices_do_not_rescan_taken_labels(self):
        # each candidate skipped as taken is a set lookup that hashes an L
        # label; scanning every frame from the first label took n(n+1)/2
        # lookups (4.5 million here), a scan that goes on from the previous
        # frame's start takes a few per label
        hashes = [0]

        class Label(str):
            def __hash__(self):
                hashes[0] += 1
                return str.__hash__(self)

        n = 3000
        K = PrecubicalSet({0: [f"v{k}" for k in range(n)]}, {})
        L = PrecubicalSet({0: [Label(f"v{k}") for k in range(n)]}, {})
        hashes[0] = 0
        assert find_isomorphism(K, L) == {(0, v): v for v in K.cells(0)}
        assert hashes[0] <= 10 * n

    def test_free_choices_between_forced_ones(self):
        # isolated vertices are free choices, chosen around the endpoints
        # that the edges force; labels are taken in sorted order
        def complex_(ends):
            faces = {(1, 1, a, e): ends[e][a] for e in ends for a in (0, 1)}
            return PrecubicalSet({0: list("abcdefgh"), 1: list(ends)}, faces)

        K = complex_({"x": ("b", "d"), "y": ("e", "a"), "z": ("f", "f")})
        L = complex_({"p": ("h", "c"), "q": ("a", "a"), "r": ("g", "b")})
        assert find_isomorphism(K, L) == {
            (1, "x"): "p", (1, "y"): "r", (1, "z"): "q",
            (0, "a"): "b", (0, "b"): "h", (0, "c"): "d", (0, "d"): "c",
            (0, "e"): "g", (0, "f"): "a", (0, "g"): "e", (0, "h"): "f",
        }
