"""Combinatorial flow realization of a precubical set.

The realized flow has the vertices K_0 as its states, one generating
morphism per positive-dimensional cell (the diagonal of that cube, running
from its all-zeros corner to its all-ones corner), and execution paths
given by edge paths modulo the square relation: inside every 2-cell s the
two boundary composites

    d[2,0]s then d[1,1]s      and      d[1,0]s then d[2,1]s

are equal, both being the diagonal of s.  Square moves preserve length,
source and target, so every equivalence class of paths is finite and path
equality is decidable by saturation.

States and morphisms are referred to by cell label throughout: a state is
a 0-cell label and a path step is a 1-cell label.  The generating
morphisms themselves, with their corners, are the cells of
globular.globular_decomposition.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import CellId, PrecubicalSet, apply_cube_map


@dataclass(frozen=True)
class EdgePath:
    """A non-empty composable sequence of 1-cells, with its endpoints."""

    edges: tuple[str, ...]
    source: str
    target: str

    def __len__(self) -> int:
        return len(self.edges)


@dataclass(frozen=True)
class PathClass:
    """An equivalence class of edge paths under square moves.

    All members share source, target and length; the representative is the
    lexicographically least member.
    """

    representative: tuple[str, ...]
    members: frozenset
    source: str
    target: str
    length: int


@dataclass(frozen=True)
class StatePoset:
    """A strict partial order on the states: pairs (a, b) with a strictly below b."""

    states: tuple[str, ...]
    pairs: frozenset

    def less(self, a: str, b: str) -> bool:
        return (a, b) in self.pairs


@dataclass(frozen=True)
class LoopReport:
    """Witness that the edge graph is not loopless: a directed cycle of edges."""

    cycle: tuple[str, ...]
    states: tuple[str, ...]


def realize_states(K: PrecubicalSet) -> frozenset:
    """The states of the realized flow: exactly the 0-cells of K."""
    return frozenset(K.cells(0))


def corner(K: PrecubicalSet, c: CellId, alpha: int) -> str:
    """The all-alpha corner vertex of a cell, by applying d[1, alpha] dim times.

    The cubical relations make the result independent of which face index
    is peeled at each step; index 1 throughout is the canonical route.
    """
    if alpha not in (0, 1):
        raise ValueError(f"corner sign must be 0 or 1: {alpha!r}")
    while c.dim > 0:
        c = K.face(c, 1, alpha)
    return c.label


def staircase(K: PrecubicalSet, c: CellId) -> EdgePath:
    """The canonical edge decomposition of the diagonal of a cell.

    Coordinates are raised in increasing index order: step k walks the edge
    whose word fixes coordinates 1..k-1 at 1, leaves coordinate k free, and
    fixes coordinates k+1..n at 0.  The result has length dim(c) and runs
    from corner(c, 0) to corner(c, 1).
    """
    n = c.dim
    if n < 1:
        raise ValueError("staircase requires a cell of dimension >= 1")
    edges = []
    for k in range(1, n + 1):
        word = "1" * (k - 1) + "*" + "0" * (n - k)
        edges.append(apply_cube_map(K, c, word).label)
    return edge_path(K, edges)


def _edge_ends(K: PrecubicalSet, label: str) -> tuple[str, str]:
    if not K.has_cell(1, label):
        raise ValueError(f"not a 1-cell: {label!r}")
    src = K.face_label(1, label, 1, 0)
    tgt = K.face_label(1, label, 1, 1)
    if src is None or tgt is None:
        raise ValueError(f"edge {label!r} is missing a face entry")
    return src, tgt


def edge_path(K: PrecubicalSet, edges) -> EdgePath:
    """Build an EdgePath, checking that consecutive endpoints match."""
    if isinstance(edges, EdgePath):
        edges = edges.edges
    labels = tuple(str(e) for e in edges)
    if not labels:
        raise ValueError("edge path must be non-empty")
    source, cursor = _edge_ends(K, labels[0])
    for nxt in labels[1:]:
        s, t = _edge_ends(K, nxt)
        if s != cursor:
            raise ValueError(
                f"endpoint mismatch: edge {nxt!r} starts at {s!r}, expected {cursor!r}"
            )
        cursor = t
    return EdgePath(labels, source, cursor)


def _square_moves(K: PrecubicalSet) -> dict:
    """Map each swappable consecutive edge pair to its alternatives.

    For a 2-cell s the pair (d[2,0]s, d[1,1]s) and the pair
    (d[1,0]s, d[2,1]s) are the two boundary composites of s and may replace
    one another inside any path.  A move must keep the path's endpoints, so
    a square whose composites start or end at different vertices raises
    ValueError.
    """
    swap: dict[tuple[str, str], set] = {}
    for s in K.cells(2):
        low = (K.face_label(2, s, 2, 0), K.face_label(2, s, 1, 1))
        high = (K.face_label(2, s, 1, 0), K.face_label(2, s, 2, 1))
        if all(K.has_cell(1, e) for e in low + high) and (
            _edge_ends(K, low[0])[0] != _edge_ends(K, high[0])[0]
            or _edge_ends(K, low[1])[1] != _edge_ends(K, high[1])[1]
        ):
            raise ValueError(
                f"square {s!r}: boundary composites {low!r} and {high!r} "
                "do not share their endpoints"
            )
        swap.setdefault(low, set()).add(high)
        swap.setdefault(high, set()).add(low)
    return swap


def _saturate(start: tuple[str, ...], swap: dict) -> frozenset:
    """All paths reachable from start by square moves, as edge tuples."""
    seen = {start}
    frontier = [start]
    while frontier:
        path = frontier.pop()
        for k in range(len(path) - 1):
            for alt in swap.get((path[k], path[k + 1]), ()):
                candidate = path[:k] + alt + path[k + 2 :]
                if candidate not in seen:
                    seen.add(candidate)
                    frontier.append(candidate)
    return frozenset(seen)


def path_equal(K: PrecubicalSet, p, q) -> bool:
    """Decide whether two edge paths are equal in the realized flow.

    True iff q is reachable from p by square moves.  Paths of different
    length, source or target are never equal; malformed paths raise.
    """
    p = edge_path(K, p)
    q = edge_path(K, q)
    if (p.source, p.target, len(p)) != (q.source, q.target, len(q)):
        return False
    if p.edges == q.edges:
        return True
    return q.edges in _saturate(p.edges, _square_moves(K))


def _outgoing(K: PrecubicalSet) -> dict:
    """Map each state to the (edge, target) pairs of the edges leaving it."""
    outgoing: dict[str, list[tuple[str, str]]] = {s: [] for s in K.cells(0)}
    for e in K.cells(1):
        src, tgt = _edge_ends(K, e)
        outgoing.setdefault(src, []).append((e, tgt))
    return outgoing


def _paths_from(outgoing: dict, a: str, max_len: int):
    """Yield (target, path) for every edge tuple out of a of length 1..max_len."""
    stack = [(a, ())]
    while stack:
        at, prefix = stack.pop()
        if len(prefix) >= max_len:
            continue
        for e, tgt in outgoing.get(at, ()):
            path = prefix + (e,)
            yield tgt, path
            stack.append((tgt, path))


def _classify(paths, swap: dict, a: str, b: str) -> tuple[PathClass, ...]:
    """Split every path from a to b within a length bound into its classes.

    Complete within the bound: square moves preserve length, so each class
    is contained in the enumerated set.
    """
    paths = sorted(paths)
    remaining = set(paths)
    classes = []
    # each unassigned path met in sorted order is the least member of its
    # class, so it seeds the class and is its representative
    for seed in paths:
        if seed not in remaining:
            continue
        members = _saturate(seed, swap)
        if not members <= remaining:
            raise ValueError(
                f"square moves lead from {seed!r} out of the edge paths "
                f"from {a!r} to {b!r}"
            )
        remaining -= members
        classes.append(PathClass(seed, members, a, b, len(seed)))
    return tuple(sorted(classes, key=lambda c: (c.length, c.representative)))


def enumerate_path_classes(
    K: PrecubicalSet, a: str, b: str, max_len: int
) -> tuple[PathClass, ...]:
    """All square-move classes of edge paths from a to b of length <= max_len.

    Classes are sorted by length and then by canonical representative.
    """
    for state in (a, b):
        if not K.has_cell(0, state):
            raise ValueError(f"unknown state: {state!r}")
    if max_len < 1:
        raise ValueError("max_len must be positive")
    paths = [path for tgt, path in _paths_from(_outgoing(K), a, max_len) if tgt == b]
    return _classify(paths, _square_moves(K), a, b)


def count_flow_morphisms(K: PrecubicalSet, max_len: int) -> int:
    """Number of path classes over all ordered state pairs, length <= max_len.

    For loopless K with max_len at least the longest chain this is the full
    morphism count of the realized flow.  A zero bound admits no path at
    all, so the count is 0.
    """
    if max_len < 0:
        raise ValueError("max_len must be nonnegative")
    if max_len == 0:
        return 0
    outgoing = _outgoing(K)
    swap = _square_moves(K)
    total = 0
    for a in K.cells(0):
        by_target: dict[str, list[tuple[str, ...]]] = {}
        for b, path in _paths_from(outgoing, a, max_len):
            by_target.setdefault(b, []).append(path)
        total += sum(len(_classify(paths, swap, a, b)) for b, paths in by_target.items())
    return total


def state_order(K: PrecubicalSet):
    """The strict partial order that the edge graph induces on states.

    Returns a StatePoset when the edge graph is acyclic (the order is the
    transitive closure of the edge relation) and a LoopReport carrying one
    directed cycle of edges otherwise.
    """
    states = K.cells(0)
    outgoing = _outgoing(K)

    # iterative DFS; path_edges[k] is the edge that entered stack frame k+1,
    # so a back edge into a gray state closes a cycle along the stack
    WHITE, GRAY, BLACK = 0, 1, 2
    color = dict.fromkeys(states, WHITE)
    for root in states:
        if color[root] != WHITE:
            continue
        color[root] = GRAY
        stack = [(root, iter(outgoing[root]))]
        path_edges: list[str] = []
        while stack:
            at, it = stack[-1]
            step = next(it, None)
            if step is None:
                color[at] = BLACK
                stack.pop()
                if path_edges:
                    path_edges.pop()
                continue
            e, tgt = step
            if color[tgt] == GRAY:
                j = next(k for k, (s, _) in enumerate(stack) if s == tgt)
                cycle = tuple(path_edges[j:]) + (e,)
                loop_states = tuple(s for s, _ in stack[j:])
                return LoopReport(cycle, loop_states)
            if color[tgt] == WHITE:
                color[tgt] = GRAY
                path_edges.append(e)
                stack.append((tgt, iter(outgoing[tgt])))

    # acyclic: strict order = transitive closure of the edge relation
    pairs = set()
    for a in states:
        frontier = [a]
        reached = set()
        while frontier:
            x = frontier.pop()
            for _, tgt in outgoing[x]:
                if tgt not in reached:
                    reached.add(tgt)
                    frontier.append(tgt)
        pairs.update((a, b) for b in reached)
    return StatePoset(tuple(states), frozenset(pairs))


def map_path(f, p: EdgePath) -> EdgePath:
    """Push an edge path forward along a precubical morphism."""
    return edge_path(f.target, tuple(f.mapping[(1, e)] for e in p.edges))
