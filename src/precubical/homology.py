"""Integer cubical homology of the geometric realization.

The chain complex has one free generator per cell and boundary

    d(c) = sum over i of (-1)^i (d[i,1]c - d[i,0]c),

a fixed sign convention under which d o d = 0 follows from the cubical
relations (the two ways of removing a pair of coordinates cancel).  Betti
numbers and torsion coefficients come from Smith normal form over
arbitrary-precision integers, so results are exact; matrices are plain
lists of rows of Python ints, which cannot overflow.

Bases are ordered lexicographically by cell label, making every matrix and
report reproducible bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import PrecubicalSet


class ChainComplex:
    """Ordered cell bases plus one integer boundary matrix per dimension.

    matrix(n) is a list of rows, one row per (n-1)-cell and one column per
    n-cell, indices following the lexicographic bases.
    """

    def __init__(self, basis: dict, boundary: dict):
        self.basis = {d: tuple(b) for d, b in basis.items()}
        self.boundary = boundary

    @property
    def top_dim(self) -> int:
        return max(self.basis, default=-1)

    def rank_of_chains(self, n: int) -> int:
        return len(self.basis.get(n, ()))

    def matrix(self, n: int) -> list[list[int]]:
        if n in self.boundary:
            return self.boundary[n]
        cols = self.rank_of_chains(n)
        return [[0] * cols for _ in range(self.rank_of_chains(n - 1))]


def chain_complex(K: PrecubicalSet) -> ChainComplex:
    """The cubical chain complex of a finite valid precubical set."""
    basis = {d: K.cells(d) for d in range(K.top_dim + 1)}
    boundary = {}
    for d in range(1, K.top_dim + 1):
        index = {label: r for r, label in enumerate(basis[d - 1])}
        cols = len(basis[d])
        matrix = [[0] * cols for _ in basis[d - 1]]
        for col, label in enumerate(basis[d]):
            for i in range(1, d + 1):
                sign = -1 if i % 2 else 1
                matrix[index[K.face_label(d, label, i, 1)]][col] += sign
                matrix[index[K.face_label(d, label, i, 0)]][col] -= sign
        boundary[d] = matrix
    return ChainComplex(basis, boundary)


def smith_normal_form(matrix) -> tuple[int, ...]:
    """Invariant factors of an integer matrix (positive, each dividing the next).

    The matrix is any sequence of integer rows.  Row and column operations
    over Z only; entries are converted to Python ints, so
    intermediate growth cannot overflow.  The number of factors returned is
    the rank.
    """
    A = [[int(x) for x in row] for row in matrix]
    m = len(A)
    n = len(A[0]) if m else 0
    factors = []
    t = 0
    while True:
        # locate the smallest nonzero entry in the remaining block
        pivot = None
        best = None
        for r in range(t, m):
            row = A[r]
            for c in range(t, n):
                v = abs(row[c])
                if v and (best is None or v < best):
                    best, pivot = v, (r, c)
        if pivot is None:
            break
        r, c = pivot
        A[t], A[r] = A[r], A[t]
        for row in A:
            row[t], row[c] = row[c], row[t]
        if A[t][t] < 0:
            A[t] = [-x for x in A[t]]

        dirty = False
        for r in range(t + 1, m):
            q = A[r][t] // A[t][t]
            if q:
                A[r] = [x - q * y for x, y in zip(A[r], A[t])]
            if A[r][t]:
                dirty = True
        for c in range(t + 1, n):
            q = A[t][c] // A[t][t]
            if q:
                for row in A:
                    row[c] -= q * row[t]
            if A[t][c]:
                dirty = True
        if dirty:
            continue  # remainders survive; pick a smaller pivot next round

        # pivot divides its row and column; enforce divisibility of the rest
        d = A[t][t]
        offender = None
        for r in range(t + 1, m):
            for c in range(t + 1, n):
                if A[r][c] % d:
                    offender = r
                    break
            if offender is not None:
                break
        if offender is not None:
            A[t] = [x + y for x, y in zip(A[t], A[offender])]
            continue
        factors.append(d)
        t += 1
    return tuple(factors)


@dataclass(frozen=True)
class HomologyResult:
    """Betti numbers and torsion coefficients, indexed by dimension 0..top."""

    betti: tuple[int, ...]
    torsion: tuple[tuple[int, ...], ...]

    def rows(self) -> list[dict]:
        return [
            {"dim": d, "betti": b, "torsion": list(t)}
            for d, (b, t) in enumerate(zip(self.betti, self.torsion))
        ]


def homology(K: PrecubicalSet) -> HomologyResult:
    """Integer homology of the cell complex underlying K.

    H_n is Z^betti plus one finite cyclic summand per torsion coefficient;
    the coefficients are the invariant factors > 1 of the boundary matrix
    one dimension up.
    """
    complex_ = chain_complex(K)
    top = complex_.top_dim
    if top < 0:
        return HomologyResult((), ())
    factors = {d: smith_normal_form(complex_.matrix(d)) for d in range(1, top + 2)}
    betti = []
    torsion = []
    for d in range(top + 1):
        rank_in = len(factors.get(d, ()))
        rank_out = len(factors.get(d + 1, ()))
        betti.append(complex_.rank_of_chains(d) - rank_in - rank_out)
        torsion.append(tuple(f for f in factors.get(d + 1, ()) if f > 1))
    return HomologyResult(tuple(betti), tuple(torsion))


def euler_characteristic(K: PrecubicalSet) -> int:
    """Alternating sum of cell counts; equals the alternating Betti sum."""
    return sum((-1) ** d * K.n_cells(d) for d in range(K.top_dim + 1))
