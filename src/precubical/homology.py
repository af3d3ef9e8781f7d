"""Integer cubical homology of the geometric realization.

The chain complex has one free generator per cell and boundary

    d(c) = sum over i of (-1)^i (d[i,1]c - d[i,0]c),

a fixed sign convention under which d o d = 0 follows from the cubical
relations (the two ways of removing a pair of coordinates cancel).  Betti
numbers and torsion coefficients come from Smith normal form over
arbitrary-precision integers, so results are exact and cannot overflow.

Boundaries are sparse from the face table on: one dict row per cell of
the dimension below, holding only nonzero coefficients, so building them
costs one step per face entry.  Dense rows are made only when asked for.

The Smith normal form is one sparse elimination.  It sweeps the columns
from last to first and eliminates pivots that divide their whole row and
column (every +-1, and the +-2 of a Klein bottle), which splits the pivot
off by unimodular row and column operations and so keeps the answer exact
over Z; boundary matrices of cubical complexes are usually consumed by
the sweeps entirely.  When a sweep finds no such pivot, a remainder step
reduces the column and then the row of the least entry by floor
division, which leaves a smaller entry for the next sweep.

homology splits the boundaries from the top dimension down and clears:
the split of d_{n+1} reports the n-cells it pivoted on, and d_n is split
without those columns.  This is the clearing step of persistent homology
(Chen and Kerber 2011; Bauer, Kerber and Reininghaus 2014), and it stays
exact over Z.  The row operations of d_{n+1} change the basis of C_n.
In a sweep only pivot rows are ever the source of a row operation, so
every other basis vector e_r is left alone, and the new vector b of a
pivot row with pivot p satisfies p.b = d(something).  Then p.d(b) = 0,
so d(b) = 0 because C_{n-1} is free.  In the new basis the columns of
d_n at the pivot rows are zero and the others are unchanged, so d_n has
the invariant factors, the rank included, of its uncleared columns.
That holds for non-unit pivots such as the 2s of Klein-bottle powers
too.  A remainder step can take as source a row that never becomes a
pivot, so when one ran in d_{n+1}, d_n is split whole.

Before the split, homology coreduces (Mrozek and Batko, "Coreduction
homology algorithm", 2009; Kaczynski, Mischaikow and Mrozek,
Computational Homology, 2004).  It quotients out one vertex per
connected component, which leaves H_n alone for n > 0 and takes one Z
per component off H_0, added back after the split.  It then removes
coreduction pairs: an n-cell b whose only live face is a, with
coefficient +-1.  Then d(a) = +-d(d(b)) = 0, so a and b span an acyclic
subcomplex, the quotient by it is a quasi-isomorphism, and it only
restricts the other boundaries to the cells still live.  So the answer
stays exact over Z.  A +-2 is never paired: Klein-bottle powers have no
unit pivot at all.  A loop's two ends cancel, so it has no face to pair
with.  On cubes and hollow cubes at most one cell is left to split; on
Klein-bottle powers only the vertex goes, and the boundaries above it
are split as built.

Coreduction only marks cells dead; there is no reduced complex.  The
split's working copy of each boundary is made straight from the chain
complex, with the rows of dead cells left empty and the columns of
cleared cells left out, so every index stays a basis index and the pivot
rows of one split name the columns of the next.  The columns of dead
cells are then empty too: a removed b has no live face, and a removed a
has d(a) = 0 on the cells still live, as above.  Restricting to live
cells keeps the order of the indices, so sweeps, tie-breaks and the
remainder step choose as they would on the quotient written out.

Bases are ordered lexicographically by cell label, making every matrix and
report reproducible bit for bit.
"""

from __future__ import annotations

import math
from itertools import compress, count

from .core import PrecubicalSet, _Value, _face_rows, _require_valid, _slots


class ChainComplex:
    """Ordered cell bases plus one sparse integer boundary per dimension.

    rows(n) is a list of dicts, one per (n-1)-cell, each mapping the index
    of an n-cell to its nonzero coefficient; matrix(n) is the same boundary
    as dense rows, built on each call.  Indices follow the lexicographic
    bases.  The rows are shared, not copied: treat them as read-only.
    """

    def __init__(self, basis: dict, boundary: dict):
        self.basis = {d: tuple(b) for d, b in basis.items()}
        self.boundary = boundary

    @property
    def top_dim(self) -> int:
        return max(self.basis, default=-1)

    def rank_of_chains(self, n: int) -> int:
        return len(self.basis.get(n, ()))

    def rows(self, n: int) -> list[dict]:
        if n in self.boundary:
            return self.boundary[n]
        return [{} for _ in range(self.rank_of_chains(n - 1))]

    def matrix(self, n: int) -> list[list[int]]:
        cols = range(self.rank_of_chains(n))
        return [[row.get(c, 0) for c in cols] for row in self.rows(n)]


def chain_complex(K: PrecubicalSet) -> ChainComplex:
    """The cubical chain complex of a finite precubical set; an invalid
    one raises ValueError naming its first violation."""
    _require_valid(K)
    basis = {d: K.cells(d) for d in range(K.top_dim + 1)}
    boundary = {}
    for d in range(1, K.top_dim + 1):
        rows = [{} for _ in basis[d - 1]]
        row_of = dict(zip(basis[d - 1], rows))
        faces = _face_rows(K, d)
        # (slot of d[i, alpha] in a face row, sign of that face)
        signs = [(2 * i - 2 + alpha, (-1) ** (i + alpha + 1))
                 for i in range(1, d + 1) for alpha in (1, 0)]
        for col, label in enumerate(basis[d]):
            face = faces[label]
            for slot, sign in signs:
                row = row_of[face[slot]]
                # a loop's two ends cancel: drop the 0, never store it
                v = row.get(col, 0) + sign
                if v:
                    row[col] = v
                else:
                    del row[col]
        boundary[d] = rows
    return ChainComplex(basis, boundary)


def smith_normal_form(matrix) -> tuple[int, ...]:
    """Invariant factors of an integer matrix (positive, each dividing the next).

    The matrix is any sequence of integer rows, each either dense or a
    dict from column index to entry, as ChainComplex.rows gives them; the
    number of factors returned is its rank.  Entries are copied as Python
    ints, so the input is left alone and intermediate growth cannot
    overflow.

    One sparse elimination copies the nonzero entries into row dicts and
    column row-sets and splits the matrix, by unimodular row and column
    operations, into a diagonal of pivots, so the pass is exact.  Its
    invariant factors are the matrix's: the unit pivots give leading 1s,
    and the other pivots are merged into divisibility order by gcd and
    lcm, since diag(p) plus a block has the merged factors of the two.
    """
    # compress picks out a dense row's nonzero entries without a Python-level test each
    rows = [{c: int(v) for c, v in row.items() if v} if isinstance(row, dict)
            else {c: int(row[c]) for c in compress(count(), row)} for row in matrix]
    return _invariant_factors(_split_pivots(rows)[0].values())


def _invariant_factors(pivots) -> tuple[int, ...]:
    """Invariant factors of a diagonal of positive pivots: leading 1s for
    the units, then the others merged into divisibility order."""
    factors = [p for p in pivots if p > 1]
    return (1,) * (len(pivots) - len(factors)) + _diagonal_factors(factors)


def _split_pivots(rows: list[dict]) -> tuple[dict, bool]:
    """Split sparse rows into a diagonal of pivots in place; the |value| of
    each pivot by its row, and whether a remainder step ran.

    Sweeps the columns from last to first, an order that creates fewer new
    entries on cubical boundaries, and takes each pivot p that divides
    every entry of its row and its column (a +-1 always does).  Row
    operations that subtract multiples of the pivot row clear its column
    and, since p divides the row, column operations would clear the row
    without touching anything else, so the matrix is equivalent over Z to
    diag(p) plus the block left when the pivot's row and column are
    dropped.  In each column the pivot is an entry of least absolute value
    from the row with the fewest entries, the first such row on ties.
    That order and tie-break keep fill-in low: on boundary 8 they create
    59,266 new entries where a first-to-last sweep taking any fewest-entry
    row created 188,943.  Boundary matrices of cubical complexes are
    usually consumed by the sweeps alone.

    When a whole sweep finds no pivot, a remainder step takes the entry p
    of least absolute value (the first by row, then column, on ties) and
    reduces its column by floor-quotient row operations.  If p is then
    alone in its column, a column operation changes only p's row, so the
    row is reduced mod p.  Since p did not divide both its row and its
    column, one of them now holds a remainder smaller than |p|.  Each
    sweep that finds pivots empties rows and each remainder step shrinks
    the least entry without filling a row, so the loop ends.

    Only pivot rows are the source of a sweep's row operations; a
    remainder step may take as source a row that never becomes a pivot.
    Clearing, in the module docstring, rests on the difference.
    """
    cols: dict[int, set] = {}
    for r, row in enumerate(rows):
        for c in row:
            cols.setdefault(c, set()).add(r)
    pivots = {}
    remainder = False
    while cols:
        found = False
        for c in sorted(cols, reverse=True):
            col = cols.get(c)
            if col is None:
                continue
            size = min(abs(rows[r][c]) for r in col)
            if size > 1 and any(rows[r][c] % size for r in col):
                continue
            pivot = None
            for r in sorted(col):
                row = rows[r]
                if (abs(row[c]) == size and (pivot is None or len(row) < len(rows[pivot]))
                        and (size == 1 or all(v % size == 0 for v in row.values()))):
                    pivot = r
            if pivot is None:
                continue
            _reduce_column(rows, cols, pivot, c)
            for j in rows[pivot]:
                members = cols[j]
                members.discard(pivot)
                if not members:
                    del cols[j]
            rows[pivot] = {}
            pivots[pivot] = size
            found = True
        if found:
            continue
        # the remainder step: p divides at most one of its row and column
        remainder = True
        _, pivot, c = min((abs(v), r, c) for r, row in enumerate(rows) for c, v in row.items())
        _reduce_column(rows, cols, pivot, c)
        if len(cols[c]) == 1:
            prow = rows[pivot]
            p = prow[c]
            for j in [j for j in prow if j != c]:
                prow[j] %= p
                if not prow[j]:
                    del prow[j]
                    cols[j].discard(pivot)
                    if not cols[j]:
                        del cols[j]
    return pivots, remainder


def _reduce_column(rows: list[dict], cols: dict, pivot: int, c: int) -> None:
    """Subtract from every other row of column c the pivot row times the
    floor quotient of the row's entry by the pivot's; the remainders stay."""
    prow = rows[pivot]
    p = prow[c]
    for r in cols[c] - {pivot}:
        row = rows[r]
        q = row[c] // p
        for j, v in prow.items():
            w = row.get(j, 0) - q * v
            if w:
                if j not in row:
                    cols[j].add(r)
                row[j] = w
            else:
                del row[j]
                cols[j].discard(r)


def _diagonal_factors(entries: list[int]) -> tuple[int, ...]:
    """Invariant factors of a diagonal matrix with these positive entries.

    Sorted entries that already form a divisibility chain, such as the 2s
    of a Klein-bottle power, are the answer.  Otherwise diag(a, b) is
    equivalent to diag(gcd, lcm); after pairing entry i with every later
    one it is the gcd of them all, and the later ones stay its multiples,
    so the result is a divisibility chain.
    """
    d = sorted(entries)
    if all(b % a == 0 for a, b in zip(d, d[1:])):
        return tuple(d)
    for i in range(len(d)):
        for j in range(i + 1, len(d)):
            g = math.gcd(d[i], d[j])
            d[i], d[j] = g, d[i] // g * d[j]
    return tuple(d)


def _boundary_factors(complex_: ChainComplex, live: list) -> dict[int, tuple[int, ...]]:
    """Invariant factors of each boundary d_n, n = top .. 1, restricted to
    the cells marked live, split from the top down, each without the
    columns the one above cleared (see the module docstring)."""
    factors = {}
    cleared = {}
    # every dead row is this one empty dict: no column holds one, so the
    # split never writes it
    empty = {}
    for d in range(complex_.top_dim, 0, -1):
        # the working copy the split changes in place, in basis indices,
        # without the columns of cleared d-cells; a dead d-cell has no
        # entry in a live row (see the module docstring)
        rows = [{c: v for c, v in row.items() if c not in cleared} if alive else empty
                for row, alive in zip(complex_.rows(d), live[d - 1])]
        pivots, remainder = _split_pivots(rows)
        factors[d] = _invariant_factors(pivots.values())
        cleared = {} if remainder else pivots
    return factors


class HomologyResult(_Value):
    """Betti numbers and torsion coefficients, indexed by dimension 0..top."""

    _fields = ("betti", "torsion")
    __slots__ = _slots(_fields)

    def __init__(self, betti: tuple[int, ...], torsion: tuple[tuple[int, ...], ...]):
        self._betti = betti
        self._torsion = torsion


def _coreduce(complex_: ChainComplex) -> tuple[list, int]:
    """The cells left live when one vertex per connected component and then
    every coreduction pair are removed, one bool per cell in basis order
    for each dimension, and the number of components.

    Works a dimension at a time from the bottom: pairs of (d-1)-cells and
    d-cells change the live faces of d-cells only, and remove d-cells,
    which the next dimension reads.  Each d-cell keeps the count of its
    live faces and the sum of their indices, which is the face itself
    when the count is 1.  A queue, seeded in basis order, holds the cells
    whose count fell to 1; one is paired when its face's coefficient is
    +-1.  Each coordinate puts a +1 and a -1 into a boundary, so its
    coefficients sum to 0 and a cell has one live face only after another
    was removed: a dimension whose faces all stay live has no pair and is
    skipped.
    """
    top = complex_.top_dim
    if top == 0:
        return [[False] * complex_.rank_of_chains(0)], complex_.rank_of_chains(0)
    live = [[True] * complex_.rank_of_chains(d) for d in range(top + 1)]
    components = 0
    for d in range(1, top + 1):
        rows, lo, hi = complex_.rows(d), live[d - 1], live[d]
        if d > 1 and all(lo):
            continue
        live_faces = [0] * len(hi)
        face_sum = [0] * len(hi)
        for r in compress(range(len(lo)), lo):
            for c in rows[r]:
                live_faces[c] += 1
                face_sum[c] += r
        queue = [c for c, n in enumerate(live_faces) if n == 1]

        def drop(r):
            lo[r] = False
            for c in rows[r]:
                if hi[c]:
                    live_faces[c] -= 1
                    face_sum[c] -= r
                    if live_faces[c] == 1:
                        queue.append(c)

        def drain():
            # the queue grows while it is read
            for c in queue:
                r = face_sum[c]
                if live_faces[c] == 1 and rows[r][c] in (1, -1):
                    hi[c] = False
                    drop(r)
            queue.clear()

        drain()
        if d == 1:
            # a vertex not yet removed is the first of a new component
            for v, alive in enumerate(lo):
                if alive:
                    components += 1
                    drop(v)
                    drain()
    return live, components


def homology(K: PrecubicalSet) -> HomologyResult:
    """Integer homology of the cell complex underlying K.

    H_n is Z^betti plus one finite cyclic summand per torsion coefficient;
    the coefficients are the invariant factors > 1 of the boundary matrix
    one dimension up.  The boundaries are split after coreduction, each
    removed component adding one Z to H_0 (see the module docstring).
    """
    complex_ = chain_complex(K)
    top = complex_.top_dim
    if top < 0:
        return HomologyResult((), ())
    live, components = _coreduce(complex_)
    factors = _boundary_factors(complex_, live)
    betti = []
    torsion = []
    for d in range(top + 1):
        rank_in = len(factors.get(d, ()))
        rank_out = len(factors.get(d + 1, ()))
        betti.append(live[d].count(True) - rank_in - rank_out)
        torsion.append(tuple(f for f in factors.get(d + 1, ()) if f > 1))
    betti[0] += components
    return HomologyResult(tuple(betti), tuple(torsion))


def euler_characteristic(K: PrecubicalSet) -> int:
    """Alternating sum of cell counts; equals the alternating Betti sum."""
    return sum((-1) ** d * K.n_cells(d) for d in range(K.top_dim + 1))
