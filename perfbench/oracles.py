"""Expected answers for the benchmark, computed without the code under test.

Homology answers come from closed forms (cubes, spheres, the Klein bottle)
combined by the Kunneth formula for tensor products and by Mayer-Vietoris
for vertex and edge wedges.  Path-class answers come from word counts, cell
counts from binomials, and order sizes from 3^n - 2^n.  Nothing here
imports precubical.

A homology answer is a list indexed by dimension of (rank, torsion) pairs,
torsion being the invariant factors greater than 1 in increasing order, the
same shape as HomologyResult.betti / HomologyResult.torsion.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter


def cube_counts(n: int) -> list[int]:
    """Cells per dimension of the standard n-cube: C(n, k) 2^(n-k)."""
    return [math.comb(n, k) * 2 ** (n - k) for k in range(n + 1)]


def boundary_counts(n: int) -> list[int]:
    """Cells per dimension of the n-cube without its top cell."""
    return cube_counts(n)[:-1] if n > 0 else []


def glued_counts(pieces) -> list[int]:
    """Cells of cubes attached one after another, each along one m-face.

    pieces is [(n0, None), (n1, m1), (n2, m2), ...]: every later cube of
    dimension n is glued along one of its m-faces onto an embedded m-cell,
    so each gluing adds the cube's cells minus the cells of an m-cube.
    """
    counts: list[int] = []
    for n, m in pieces:
        add = cube_counts(n)
        sub = cube_counts(m) if m is not None else []
        width = max(len(counts), len(add))
        counts = [
            (counts[d] if d < len(counts) else 0)
            + (add[d] if d < len(add) else 0)
            - (sub[d] if d < len(sub) else 0)
            for d in range(width)
        ]
    return counts


def euler(counts) -> int:
    return sum((-1) ** d * c for d, c in enumerate(counts))


def total_faces(counts) -> int:
    """Face records of a complex whose every cell has all its faces."""
    return sum(2 * d * c for d, c in enumerate(counts))


# --- homology -----------------------------------------------------------

def _prime_powers(n: int):
    p = 2
    while p * p <= n:
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        if e:
            yield p, e
        p += 1
    if n > 1:
        yield n, 1


def invariant_factors(orders) -> tuple[int, ...]:
    """Invariant factors (> 1, increasing) of a direct sum of cyclic groups."""
    by_prime: dict[int, list[int]] = {}
    for order in orders:
        for p, e in _prime_powers(order):
            by_prime.setdefault(p, []).append(e)
    width = max((len(v) for v in by_prime.values()), default=0)
    factors = [1] * width
    for p, exps in by_prime.items():
        for k, e in enumerate(sorted(exps, reverse=True)):
            factors[k] *= p ** e
    return tuple(sorted(f for f in factors if f > 1))


def point(n: int = 0) -> list:
    """A contractible complex of top dimension n."""
    return [(1, ())] + [(0, ())] * n


def sphere(n: int) -> list:
    """boundary_cube(n), an (n-1)-sphere; boundary_cube(1) is two points."""
    if n == 1:
        return [(2, ())]
    out = [(0, ())] * n
    out[0] = (1, ())
    out[n - 1] = (1, ())
    return out


KLEIN = [(1, ()), (1, (2,)), (0, ())]


def kunneth(hx: list, hy: list) -> list:
    """Homology of a tensor product from the homology of its factors."""
    top = (len(hx) - 1) + (len(hy) - 1)
    out = []
    for n in range(top + 1):
        rank = 0
        orders: list[int] = []
        for i, (rx, tx) in enumerate(hx):
            j = n - i
            if 0 <= j < len(hy):
                ry, ty = hy[j]
                rank += rx * ry
                orders += list(tx) * ry + list(ty) * rx
                orders += [math.gcd(s, t) for s in tx for t in ty]
            j = n - 1 - i
            if 0 <= j < len(hy):
                orders += [math.gcd(s, t) for s in tx for t in hy[j][1]]
        out.append((rank, invariant_factors(orders)))
    return out


def wedge(hx: list, hy: list) -> list:
    """Union along a contractible subcomplex (a vertex, or an edge with two
    distinct endpoints): reduced homology adds (Mayer-Vietoris)."""
    out = []
    for n in range(max(len(hx), len(hy))):
        rx, tx = hx[n] if n < len(hx) else (0, ())
        ry, ty = hy[n] if n < len(hy) else (0, ())
        out.append((rx + ry - (1 if n == 0 else 0), invariant_factors(tx + ty)))
    return out


# --- flows -------------------------------------------------------------

def wedge_class_lengths(k: int, max_len: int) -> Counter:
    """Path classes v -> v on a wedge of k circles: k^j singletons of length j."""
    return Counter({j: k ** j for j in range(1, max_len + 1)})


def torus_class_sizes(d: int, max_len: int) -> dict[int, list[int]]:
    """Class sizes v -> v on torus(d), per length j.

    Square moves commute distinct circle directions, so a class is a
    multiset of j directions and its size is the multinomial coefficient.
    """
    out = {}
    for j in range(1, max_len + 1):
        sizes = []
        for combo in itertools.combinations_with_replacement(range(d), j):
            size = math.factorial(j)
            for mult in Counter(combo).values():
                size //= math.factorial(mult)
            sizes.append(size)
        out[j] = sorted(sizes)
    return out


def cube_pairs(n: int) -> int:
    """Comparable vertex pairs of the n-cube in the product order, and its
    morphism count: each coordinate is 0->0, 1->1 or 0->1, not all equal."""
    return 3 ** n - 2 ** n


def cube_order_pairs(n: int) -> list[list[str]]:
    """The strictly increasing vertex pairs of the n-cube, sorted."""
    words = ["".join(w) for w in itertools.product("01", repeat=n)]
    return sorted(
        [a, b] for a in words for b in words
        if a != b and all(x <= y for x, y in zip(a, b))
    )


def cube_corner(word: str, alpha: int) -> str:
    """The all-alpha corner of a standard-cube cell given by its word."""
    return word.replace("*", str(alpha))


def _replace_free(parts: list[str], free: str, i: int, value: str):
    seen = 0
    for pos, part in enumerate(parts):
        if part == free:
            seen += 1
            if seen == i:
                return parts[:pos] + [value] + parts[pos + 1:]
    return None


def cube_face(word: str, i: int, alpha: int):
    """d[i, alpha] of a standard-cube cell: its i-th star becomes alpha."""
    parts = _replace_free(list(word), "*", i, str(alpha))
    return None if parts is None else "".join(parts)


def torus_face(label: str, i: int, alpha: int):
    """d[i, alpha] of a torus cell "x|y|...": its i-th loop becomes v."""
    parts = _replace_free(label.split("|"), "loop", i, "v")
    return None if parts is None else "|".join(parts)


def cube_dim(word: str) -> int:
    return word.count("*")


def torus_dim(label: str) -> int:
    return label.split("|").count("loop")
