"""Chain complexes, Smith normal form, Betti numbers, Euler characteristics."""

import copy
import math
import random

import numpy as np
import pytest
import sympy
from sympy.matrices.normalforms import smith_normal_form as sympy_snf

from precubical import (
    PcsMap,
    PrecubicalSet,
    boundary_cube,
    chain_complex,
    circle,
    disjoint_union,
    euler_characteristic,
    homology,
    interval,
    pushout,
    smith_normal_form,
    standard_cube,
    tensor,
    torus,
    validate,
)

from precubical.homology import ChainComplex, _boundary_factors, _coreduce, _split_pivots

from conftest import (
    CORPUS,
    is_zero,
    klein_bottle,
    matmul,
    modp_homology,
    random_glued_complex,
    wedge_of_circles,
)


def oracle_invariant_factors(matrix) -> tuple:
    """Nonzero diagonal of sympy's Smith normal form over the integers."""
    M = sympy.Matrix(matrix.tolist() if isinstance(matrix, np.ndarray) else matrix)
    if M.rows == 0 or M.cols == 0:
        return ()
    S = sympy_snf(M, domain=sympy.ZZ)
    diag = [abs(S[k, k]) for k in range(min(S.rows, S.cols))]
    return tuple(int(d) for d in diag if d != 0)


def dense_boundary(K, d) -> list:
    """The boundary of dimension d filled densely straight from the face
    table: d[i,alpha] of column c adds (-1)^(i+alpha+1) to its face's row."""
    index = {label: r for r, label in enumerate(K.cells(d - 1))}
    M = [[0] * K.n_cells(d) for _ in K.cells(d - 1)]
    for c, label in enumerate(K.cells(d)):
        for i in range(1, d + 1):
            for alpha in (0, 1):
                M[index[K.face_label(d, label, i, alpha)]][c] += (-1) ** (i + alpha + 1)
    return M


def klein_power(p):
    K = klein_bottle()
    for _ in range(p - 1):
        K = tensor(K, klein_bottle())
    return K


def sparse_matrices():
    """60 seeded boundary-shaped matrices: few nonzeros per column, small
    entries, so both the divisible-pivot sweep and the remainder step see
    work."""
    rng = random.Random(43)
    for _ in range(60):
        rows, cols = rng.randint(1, 15), rng.randint(1, 15)
        matrix = [[0] * cols for _ in range(rows)]
        for c in range(cols):
            for r in rng.sample(range(rows), min(rows, rng.randint(0, 3))):
                matrix[r][c] = rng.choice((1, -1, 2, -2, 3, -3))
        yield matrix


def dict_rows(matrix) -> list:
    return [{c: v for c, v in enumerate(row) if v} for row in matrix]


def oracle_homology(K):
    """Betti and torsion recomputed from the same matrices with sympy only."""
    complex_ = chain_complex(K)
    top = complex_.top_dim
    betti, torsion = [], []
    for d in range(top + 1):
        inbound = oracle_invariant_factors(complex_.matrix(d))
        outbound = oracle_invariant_factors(complex_.matrix(d + 1))
        betti.append(complex_.rank_of_chains(d) - len(inbound) - len(outbound))
        torsion.append(tuple(f for f in outbound if f > 1))
    return tuple(betti), tuple(torsion)


def z4_complex():
    """One vertex v, loops a, b and c, and two squares: s with d[1,0] =
    d[2,1] = a, d[1,1] = b and d[2,0] = c, and t with d[1,0] = d[2,1] = b
    and d[1,1] = d[2,0] = c.  Then d(s) = 2a - b - c and d(t) = 2b - 2c,
    whose invariant factors are 1 and 4, so H_1 is Z + Z/4."""
    faces = {(1, 1, alpha, e): "v" for e in "abc" for alpha in (0, 1)}
    for square, (low, high, right) in (("s", "abc"), ("t", "bcc")):
        faces.update({(2, 1, 0, square): low, (2, 2, 1, square): low,
                      (2, 1, 1, square): high, (2, 2, 0, square): right})
    return PrecubicalSet({0: ["v"], 1: ["a", "b", "c"], 2: ["s", "t"]}, faces)


def remainder_complex():
    """One vertex v, one loop a, three squares t, u and w with every face a,
    and two 3-cells c1 and c2.  Its d_3 has rows {0: -3, 1: -2} and
    {0: 3, 1: 2}: no entry divides its row and column, so a remainder step
    must run before any pivot is found.  Homology Z, Z, Z^2, Z."""
    faces = {(1, 1, alpha, "a"): "v" for alpha in (0, 1)}
    faces.update({(2, i, alpha, s): "a" for s in "tuw" for i in (1, 2) for alpha in (0, 1)})
    for cell, placed in (("c1", {"t": ((1, 1), (2, 0), (3, 1)), "u": ((1, 0), (2, 1), (3, 0))}),
                         ("c2", {"t": ((1, 1), (2, 0)), "u": ((1, 0), (2, 1)),
                                 "w": ((3, 0), (3, 1))})):
        faces.update({(3, i, alpha, cell): s for s, slots in placed.items() for i, alpha in slots})
    return PrecubicalSet({0: ["v"], 1: ["a"], 2: ["t", "u", "w"], 3: ["c1", "c2"]}, faces)


def random_chain_complex(rng) -> ChainComplex:
    """A random integer chain complex with torsion, not cubical: diagonal
    boundaries D_n with entries 1, 2, 3, 4 or 6 on disjoint coordinates (so
    D_n D_{n+1} = 0), each put in random bases as P_{n-1} D_n P_n^-1 by
    products of elementary unimodular operations.  About a third of its
    boundaries need a remainder step, where clearing must turn off."""
    top = rng.randint(1, 3)
    sizes = [rng.randint(1, 6) for _ in range(top + 1)]
    ranks = [0] * (top + 2)
    for d in range(top, 0, -1):
        ranks[d] = rng.randint(0, min(sizes[d] - ranks[d + 1], sizes[d - 1]))
    bases, inverses = [], []
    for n in sizes:
        P = [[int(i == j) for j in range(n)] for i in range(n)]
        Pinv = [row[:] for row in P]
        for _ in range(2 * n if n > 1 else 0):
            i, j = rng.sample(range(n), 2)
            q = rng.choice((-2, -1, 1, 2))
            for row in P:  # P E with E = I + q e_i e_j^T
                row[j] += q * row[i]
            Pinv[i] = [a - q * b for a, b in zip(Pinv[i], Pinv[j])]  # E^-1 Pinv
        bases.append(P)
        inverses.append(Pinv)
    boundary = {}
    for d in range(1, top + 1):
        D = [[0] * sizes[d] for _ in range(sizes[d - 1])]
        for k in range(ranks[d]):
            D[k][sizes[d] - 1 - k] = rng.choice((1, 2, 3, 4, 6))
        boundary[d] = dict_rows(matmul(matmul(bases[d - 1], D), inverses[d]))
    return ChainComplex({d: [f"e{k}" for k in range(n)] for d, n in enumerate(sizes)}, boundary)


class TestChainComplex:
    def test_edge_boundary_column(self):
        complex_ = chain_complex(standard_cube(1))
        assert complex_.basis[0] == ("0", "1")
        assert complex_.matrix(1) == [[1], [-1]]

    def test_point_is_concentrated_in_degree_zero(self):
        complex_ = chain_complex(standard_cube(0))
        assert complex_.top_dim == 0
        matrix = complex_.matrix(1)
        assert (len(matrix), len(matrix[0])) == (1, 0)

    def test_square_composite_vanishes(self):
        complex_ = chain_complex(standard_cube(2))
        product = matmul(complex_.matrix(1), complex_.matrix(2))
        assert is_zero(product)

    def test_boundary_squared_is_zero_on_corpus(self, corpus_complex):
        _, K = corpus_complex
        complex_ = chain_complex(K)
        for d in range(1, complex_.top_dim + 1):
            product = matmul(complex_.matrix(d), complex_.matrix(d + 1))
            assert is_zero(product)

    def test_boundary_squared_is_zero_on_random_gluings(self):
        rng = random.Random(771)
        for _ in range(30):
            complex_ = chain_complex(random_glued_complex(rng))
            for d in range(1, complex_.top_dim + 1):
                assert is_zero(matmul(complex_.matrix(d), complex_.matrix(d + 1)))

    def test_circle_loop_has_zero_boundary(self):
        complex_ = chain_complex(circle())
        assert complex_.matrix(1) == [[0]]

    def test_matrix_is_the_dense_face_table(self):
        rng = random.Random(907)
        complexes = [K for _, K in CORPUS] + [klein_power(p) for p in (1, 2, 3)]
        complexes += [random_glued_complex(rng) for _ in range(200)]
        for K in complexes:
            complex_ = chain_complex(K)
            for d in range(K.top_dim + 2):
                assert complex_.matrix(d) == dense_boundary(K, d)

    def test_rows_hold_no_zero(self):
        for K in (circle(), wedge_of_circles(), klein_bottle(), klein_power(2)):
            complex_ = chain_complex(K)
            for d in range(K.top_dim + 2):
                assert all(v != 0 for row in complex_.rows(d) for v in row.values())

    def test_missing_face_is_named(self):
        K = PrecubicalSet({0: ["a"], 1: ["e"]}, {(1, 1, 0, "e"): "a"})
        with pytest.raises(ValueError, match=r"^cell \(1, 'e'\): face d\[1,1\] is missing$"):
            chain_complex(K)
        with pytest.raises(ValueError, match=r"d\[1,1\] is missing"):
            homology(K)

    def test_dangling_face_is_named(self):
        K = PrecubicalSet({0: ["a"], 1: ["e"]}, {(1, 1, 0, "e"): "z", (1, 1, 1, "e"): "a"})
        with pytest.raises(
            ValueError, match=r"^cell \(1, 'e'\): face d\[1,0\] points at undeclared cell 'z'$"
        ):
            chain_complex(K)


class TestSmithNormalForm:
    def test_frozen_cases(self):
        assert smith_normal_form([[1]]) == (1,)
        assert smith_normal_form([[2]]) == (2,)
        assert smith_normal_form([[0, 0], [0, 0]]) == ()
        assert smith_normal_form([[1, 0], [0, 2]]) == (1, 2)
        # unit pivots only; the Klein bottle's square, a divisible non-unit
        # pivot; no divisible pivot, so the remainder step starts; non-unit
        # pivots merged by gcd and lcm
        assert smith_normal_form([[1, 1], [0, 1]]) == (1, 1)
        assert smith_normal_form([[2], [-2]]) == (2,)
        assert smith_normal_form([[2, 3], [3, 2]]) == (1, 5)
        assert smith_normal_form([[2, 0], [0, 3]]) == (1, 6)
        # gcd and lcm of coprime-free diagonal entries
        assert smith_normal_form([[4, 0], [0, 6]]) == (2, 12)
        # the remainder step (expected values from sympy): a row, then a
        # column, the pivot does not divide; gcd 1 only after two rounds
        assert smith_normal_form([[2, 3]]) == (1,)
        assert smith_normal_form([[2], [3]]) == (1,)
        assert smith_normal_form([[6, 10, 15]]) == (1,)
        # a block with no divisible pivot next to a divisible one, whose
        # factors are merged with the block's; a row left after a split
        assert smith_normal_form([[2, 3, 0], [3, 2, 0], [0, 0, 4]]) == (1, 1, 20)
        assert smith_normal_form([[4, 6, 0], [0, 0, 2]]) == (2, 2)
        # all entries negative, so every remainder is taken mod a negative pivot
        assert smith_normal_form([[-4, -6], [-6, -4]]) == (2, 10)
        assert smith_normal_form([[-6, -10, -15]]) == (1,)

    def test_divisibility_chain(self):
        rng = random.Random(41)
        for _ in range(40):
            rows, cols = rng.randint(1, 6), rng.randint(1, 6)
            matrix = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
            factors = smith_normal_form(matrix)
            assert all(f > 0 for f in factors)
            for a, b in zip(factors, factors[1:]):
                assert b % a == 0

    def test_against_sympy(self):
        rng = random.Random(42)
        for _ in range(40):
            rows, cols = rng.randint(1, 6), rng.randint(1, 7)
            matrix = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
            assert smith_normal_form(matrix) == oracle_invariant_factors(matrix)

    def test_sparse_against_sympy(self):
        for matrix in sparse_matrices():
            assert smith_normal_form(matrix) == oracle_invariant_factors(matrix)

    def test_larger_entries_against_sympy(self):
        # entries up to 50 in size make several remainder steps per matrix
        rng = random.Random(45)
        for _ in range(200):
            rows, cols = rng.randint(1, 9), rng.randint(1, 9)
            matrix = [[rng.randint(-50, 50) if rng.random() < 0.5 else 0 for _ in range(cols)]
                      for _ in range(rows)]
            factors = oracle_invariant_factors(matrix)
            assert smith_normal_form(matrix) == factors
            rows = dict_rows(matrix)
            assert smith_normal_form(rows) == factors
            assert rows == dict_rows(matrix)  # the remainder step works on a copy

    def test_dict_rows_match_dense_rows(self):
        # a column permutation changes the order the sparse pass sweeps in
        rng = random.Random(44)
        for matrix in sparse_matrices():
            factors = smith_normal_form(matrix)
            rows = dict_rows(matrix)
            assert smith_normal_form(rows) == factors
            assert rows == dict_rows(matrix)  # the input is left alone
            order = list(range(len(matrix[0])))
            rng.shuffle(order)
            permuted = [[row[c] for c in order] for row in matrix]
            assert smith_normal_form(permuted) == factors
            assert smith_normal_form(dict_rows(permuted)) == factors

    def test_empty_shapes(self):
        assert smith_normal_form(np.zeros((0, 3), dtype=np.int64)) == ()
        assert smith_normal_form(np.zeros((3, 0), dtype=np.int64)) == ()


class TestHomology:
    def test_boundary_square_is_a_circle(self):
        result = homology(boundary_cube(2))
        assert result.betti == (1, 1)
        assert result.torsion == ((), ())

    def test_boundary_4cube_is_a_3sphere(self):
        result = homology(boundary_cube(4))
        assert result.betti == (1, 0, 0, 1)
        assert all(t == () for t in result.torsion)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_boundary_cubes_are_spheres(self, n):
        result = homology(boundary_cube(n + 1))
        expected = [0] * (n + 1)
        expected[0] += 1
        expected[n] += 1
        assert list(result.betti) == expected
        assert all(t == () for t in result.torsion)

    @pytest.mark.parametrize("n", range(6))
    def test_cubes_are_contractible(self, n):
        result = homology(standard_cube(n))
        assert result.betti == (1,) + (0,) * n
        assert all(t == () for t in result.torsion)

    @pytest.mark.parametrize("d", range(4))
    def test_torus_betti_numbers(self, d):
        import math

        result = homology(torus(d))
        assert list(result.betti) == [math.comb(d, k) for k in range(d + 1)]
        assert all(t == () for t in result.torsion)

    def test_empty_complex(self):
        result = homology(boundary_cube(0))
        assert result.betti == () and result.torsion == ()

    def test_matches_sympy_oracle(self, corpus_complex):
        name, K = corpus_complex
        if sum(K.cell_counts()) > 150:
            pytest.skip("oracle reserved for small complexes")
        result = homology(K)
        betti, torsion = oracle_homology(K)
        assert result.betti == betti
        assert result.torsion == torsion

    def test_gluings_and_klein_powers_match_sympy_oracle(self):
        rng = random.Random(1501)
        for K in [klein_power(1), klein_power(2)] + [random_glued_complex(rng) for _ in range(40)]:
            assert sum(K.cell_counts()) <= 150
            result = homology(K)
            assert (result.betti, result.torsion) == oracle_homology(K)

    def test_smith_normal_form_agrees_with_homology(self):
        # the rank of d_{n+1} is c_n - betti_n - rank d_n, from rank d_0 = 0
        rng = random.Random(1502)
        complexes = [K for _, K in CORPUS] + [klein_power(p) for p in (1, 2, 3)]
        complexes += [random_glued_complex(rng) for _ in range(20)]
        for K in complexes:
            result = homology(K)
            complex_ = chain_complex(K)
            rank = 0
            for d in range(K.top_dim + 1):
                factors = smith_normal_form(complex_.rows(d + 1))
                rank = complex_.rank_of_chains(d) - result.betti[d] - rank
                assert len(factors) == rank
                assert tuple(f for f in factors if f > 1) == result.torsion[d]

    def test_remainder_step_turns_clearing_off(self):
        K = remainder_complex()
        assert validate(K) == []
        rows = chain_complex(K).rows(3)
        assert rows == [{0: -3, 1: -2}, {0: 3, 1: 2}, {}]
        assert _split_pivots([dict(row) for row in rows])[1]  # a remainder step ran
        result = homology(K)
        assert (result.betti, result.torsion) == ((1, 1, 2, 1), ((), (), (), ()))
        assert (result.betti, result.torsion) == oracle_homology(K)

    def test_split_reports_pivot_rows(self):
        # rows 2 and 0 hold the unit pivots of a sweep; [[2, 3]] needs a remainder step
        assert _split_pivots([{0: 1, 1: 1}, {}, {1: 1}]) == ({2: 1, 0: 1}, False)
        assert _split_pivots([{0: 2, 1: 3}]) == ({0: 1}, True)

    def test_clearing_on_random_chain_complexes(self):
        rng = random.Random(1503)
        for _ in range(150):
            complex_ = random_chain_complex(rng)
            factors = _boundary_factors(complex_, all_live(complex_))
            for d in range(1, complex_.top_dim + 1):
                assert is_zero(matmul(complex_.matrix(d - 1), complex_.matrix(d)))
                assert factors[d] == oracle_invariant_factors(complex_.matrix(d))

    def test_cylinder_invariance(self):
        for K in (circle(), boundary_cube(2), torus(2), interval(3)):
            base = homology(K)
            thick = homology(tensor(K, standard_cube(1)))
            padded = base.betti + (0,) * (len(thick.betti) - len(base.betti))
            assert thick.betti == padded
            assert all(t == () for t in thick.torsion)


def primary_parts(orders) -> list:
    """The prime powers of a direct sum of cyclic groups Z/m, sorted."""
    parts = []
    for m in orders:
        p = 2
        while m > 1:
            q = 1
            while m % p == 0:
                m //= p
                q *= p
            if q > 1:
                parts.append(q)
            p += 1
    return sorted(parts)


def kunneth(HX, HY) -> list:
    """Integer homology of a product by the Kunneth formula.

    Each group is (rank, torsion orders).  Z/m (x) Z/n and Tor(Z/m, Z/n)
    are both Z/gcd(m, n); Z (x) A is A, and Tor vanishes on free parts.
    """
    out = []
    for n in range(len(HX) + len(HY) - 1):
        rank, torsion = 0, []
        for i, (rx, tx) in enumerate(HX):
            if 0 <= n - i < len(HY):
                ry, ty = HY[n - i]
                rank += rx * ry
                torsion += tx * ry + ty * rx + [math.gcd(a, b) for a in tx for b in ty]
            if 0 <= n - 1 - i < len(HY):
                torsion += [math.gcd(a, b) for a in tx for b in HY[n - 1 - i][1]]
        out.append((rank, primary_parts(torsion)))
    return out


def groups(K) -> list:
    result = homology(K)
    return [(b, primary_parts(t)) for b, t in zip(result.betti, result.torsion)]


KLEIN = [(1, []), (1, [2]), (0, [])]
CIRCLE = [(1, []), (1, [])]
SPHERE3 = [(1, []), (0, []), (0, []), (1, [])]


def cells_left(K) -> int:
    """Cells that coreduction leaves for the split."""
    return sum(map(sum, _coreduce(chain_complex(K))[0]))


def all_live(complex_) -> list:
    """Every cell marked live, as _coreduce marks them."""
    return [[True] * complex_.rank_of_chains(d) for d in range(complex_.top_dim + 1)]


def live_matrix(complex_, live, d) -> list:
    """The boundary d_d restricted to the live cells, as dense rows."""
    columns = [c for c, alive in enumerate(live[d]) if alive]
    return [[row.get(c, 0) for c in columns]
            for row, alive in zip(complex_.rows(d), live[d - 1]) if alive]


def vertex_wedge(X, Y):
    """X and Y glued at their first vertices."""
    point = standard_cube(0)
    return pushout(PcsMap(point, X, {(0, ""): X.cells(0)[0]}),
                   PcsMap(point, Y, {(0, ""): Y.cells(0)[0]}))


def wedge_of_loops(k):
    return PrecubicalSet({0: ["v"], 1: [f"a{j}" for j in range(k)]},
                         {(1, 1, alpha, f"a{j}"): "v" for j in range(k) for alpha in (0, 1)})


class TestCoreduction:
    @pytest.mark.parametrize("n", range(8))
    def test_cubes_and_hollow_cubes_leave_at_most_one_cell(self, n):
        assert cells_left(standard_cube(n)) == 0
        assert cells_left(boundary_cube(n)) == (n > 1)

    def test_components_and_isolated_vertices(self):
        points = PrecubicalSet({0: ["a", "b", "c"]})
        edge_and_point = PrecubicalSet({0: ["a", "b", "c"], 1: ["e"]},
                                       {(1, 1, 0, "e"): "a", (1, 1, 1, "e"): "b"})
        three = disjoint_union(disjoint_union(circle(), standard_cube(2)), boundary_cube(3))
        for K, components in ((points, 3), (edge_and_point, 2), (three, 3),
                              (disjoint_union(klein_bottle(), klein_bottle()), 2)):
            live, removed = _coreduce(chain_complex(K))
            assert removed == components
            assert not any(live[0])
            result = homology(K)
            assert result.betti[0] == components
            assert (result.betti, result.torsion) == oracle_homology(K)

    def test_a_two_is_never_paired(self):
        # vertices v and w, loops a and b, an edge e from v to w; d(t) = b
        # and d(s) = 2a + b.  Pairing (w, e) and then (b, t) leaves s with
        # the one live face a, at coefficient 2
        complex_ = ChainComplex({0: ["v", "w"], 1: ["a", "b", "e"], 2: ["s", "t"]},
                                {1: [{2: -1}, {2: 1}], 2: [{0: 2}, {0: 1, 1: 1}, {}]})
        live, components = _coreduce(complex_)
        assert components == 1
        assert live == [[False, False], [True, False, False], [True, False]]
        assert live_matrix(complex_, live, 2) == [[2]]
        assert _boundary_factors(complex_, live) == {2: (2,), 1: ()}

    def test_klein_bottle_and_its_square_keep_their_twos(self):
        for K, left in ((klein_bottle(), 3), (klein_power(2), 15)):
            assert cells_left(K) == left
            result = homology(K)
            assert (result.betti, result.torsion) == oracle_homology(K)

    @pytest.mark.parametrize("k", range(1, 5))
    def test_wedge_of_loops(self, k):
        K = wedge_of_loops(k)
        assert cells_left(K) == k
        assert homology(K).betti == (1, k)

    def test_empty_complex(self):
        assert _coreduce(chain_complex(boundary_cube(0))) == ([], 0)
        assert homology(boundary_cube(0)) == homology(PrecubicalSet({}))

    def test_split_leaves_the_chain_complex_alone(self):
        # the split changes its own copy of each boundary, never the rows
        # chain_complex shares, whether coreduction removed cells or not
        rng = random.Random(1507)
        for K in (klein_power(2), tensor(klein_bottle(), boundary_cube(3)), boundary_cube(4),
                  remainder_complex(), *(random_glued_complex(rng) for _ in range(10))):
            complex_ = chain_complex(K)
            dims = range(1, complex_.top_dim + 1)
            before = [copy.deepcopy(complex_.rows(d)) for d in dims]
            for live in (_coreduce(complex_)[0], all_live(complex_)):
                _boundary_factors(complex_, live)
                assert [complex_.rows(d) for d in dims] == before

    def test_random_gluings_against_sympy(self):
        rng = random.Random(1505)
        for _ in range(40):
            K = random_glued_complex(rng)
            complex_ = chain_complex(K)
            live, _ = _coreduce(complex_)
            # the quotient by the removed cells is a chain complex
            for d in range(1, complex_.top_dim):
                assert is_zero(matmul(live_matrix(complex_, live, d),
                                      live_matrix(complex_, live, d + 1)))
            # and a removed cell has no entry in a live row, so the split,
            # which leaves the dead rows out, never sees a dead column
            for d in range(1, complex_.top_dim + 1):
                for row, alive in zip(complex_.rows(d), live[d - 1]):
                    assert not alive or all(live[d][c] for c in row)
            result = homology(K)
            assert (result.betti, result.torsion) == oracle_homology(K)


def even_torsion(result) -> tuple:
    return tuple(sum(f % 2 == 0 for f in t) for t in result.torsion)


class TestModPOracle:
    """homology at full size against ranks mod primes (conftest.modp_homology)."""

    def test_oracle_by_hand(self):
        assert modp_homology(klein_bottle()) == ((1, 1, 0), (0, 1, 0))
        assert modp_homology(boundary_cube(3)) == ((1, 0, 1), (0, 0, 0))
        assert modp_homology(boundary_cube(0)) == ((), ())

    def test_corpus(self, corpus_complex):
        _, K = corpus_complex
        result = homology(K)
        assert (result.betti, even_torsion(result)) == modp_homology(K)

    def test_large_gluings(self):
        rng = random.Random(1506)
        for _ in range(20):
            K = random_glued_complex(rng, min_cells=150)
            assert sum(K.cell_counts()) > 150
            result = homology(K)
            assert (result.betti, even_torsion(result)) == modp_homology(K)

    @pytest.mark.parametrize("build", [
        lambda: klein_power(3), lambda: klein_power(4), lambda: klein_power(5),
        lambda: boundary_cube(6),
        lambda: tensor(boundary_cube(3), boundary_cube(3)),
        lambda: vertex_wedge(klein_power(4), tensor(boundary_cube(2), boundary_cube(3))),
    ], ids=["klein3", "klein4", "klein5", "boundary6", "spheres2x2", "wedge"])
    def test_full_size(self, build):
        K = build()
        result = homology(K)
        assert (result.betti, even_torsion(result)) == modp_homology(K)


class TestTorsion:
    def test_klein_bottle(self):
        K = klein_bottle()
        assert validate(K) == []
        result = homology(K)
        assert result.betti == (1, 1, 0)
        assert result.torsion == ((), (2,), ())

    def test_oracle_by_hand(self):
        assert kunneth(KLEIN, CIRCLE) == [(1, []), (2, [2]), (1, [2]), (0, [])]
        assert kunneth(KLEIN, KLEIN) == [(1, []), (2, [2, 2]), (1, [2, 2, 2]), (0, [2]), (0, [])]

    @pytest.mark.parametrize("factor, factor_groups", [
        (circle, CIRCLE), (klein_bottle, KLEIN), (lambda: boundary_cube(4), SPHERE3),
    ], ids=["circle", "klein", "sphere3"])
    def test_products_match_kunneth(self, factor, factor_groups):
        assert groups(tensor(klein_bottle(), factor())) == kunneth(KLEIN, factor_groups)

    def test_fourth_power_matches_kunneth(self):
        K, H = klein_bottle(), KLEIN
        for _ in range(3):
            K, H = tensor(K, klein_bottle()), kunneth(H, KLEIN)
        assert groups(K) == H

    def test_z4(self):
        K = z4_complex()
        assert validate(K) == []
        assert chain_complex(K).matrix(2) == [[2, 0], [-1, 2], [-1, -2]]
        for X, betti, torsion in ((K, (1, 1, 0), ((), (4,), ())),
                                  (tensor(K, boundary_cube(2)), (1, 2, 1, 0),
                                   ((), (4,), (4,), ()))):
            result = homology(X)
            assert (result.betti, result.torsion) == (betti, torsion)
            assert (result.betti, result.torsion) == oracle_homology(X)
            # mod p sees one even summand per Z/4, as it sees a Z/2, so the
            # mod-p oracle cannot stand in for sympy on the order
            assert modp_homology(X) == (betti, tuple(len(t) for t in torsion))
        assert modp_homology(K) == modp_homology(klein_bottle()) == ((1, 1, 0), (0, 1, 0))

    def test_tor_term_of_klein_squared(self):
        # H_3 of K (x) K is Tor(H_1 K, H_1 K) = Tor(Z/2, Z/2) = Z/2 alone
        result = homology(tensor(klein_bottle(), klein_bottle()))
        assert result.betti[3] == 0 and result.torsion[3] == (2,)


class TestEulerCharacteristic:
    @pytest.mark.parametrize("n", range(7))
    def test_cubes(self, n):
        assert euler_characteristic(standard_cube(n)) == 1

    def test_boundary_cube3(self):
        assert euler_characteristic(boundary_cube(3)) == 2

    def test_circle(self):
        assert euler_characteristic(circle()) == 0

    def test_equals_alternating_betti_sum(self, corpus_complex):
        # the whole corpus is torsion-free, so the two sums must agree
        _, K = corpus_complex
        result = homology(K)
        assert all(t == () for t in result.torsion)
        alternating = sum((-1) ** d * b for d, b in enumerate(result.betti))
        assert euler_characteristic(K) == alternating
