"""Combinatorial flow realization of a precubical set.

The realized flow has the vertices K_0 as its states, one generating
morphism per positive-dimensional cell (the diagonal of that cube, running
from its all-zeros corner to its all-ones corner), and execution paths
given by edge paths modulo the square relation: inside every 2-cell s the
two boundary composites

    d[2,0]s then d[1,1]s      and      d[1,0]s then d[2,1]s

are equal, both being the diagonal of s.

Square moves rewrite two adjacent edges and keep length, source and
target, so path equivalence is a congruence for concatenation.  The
classes are therefore computed level by level without listing a path: a
class of length L is a pair (class C of length L-1, edge leaving the end
of C), and the only identifications not already made inside C come from
moves on the last two edges.  A square (x, y) <-> (x', y') whose first
edges leave the end of a class D of length L-2 identifies the pair
(class of D.x, y) with the pair (class of D.x', y').  Closing those
identifications with one union-find per level gives exactly the classes
of length L: a move inside the prefix keeps the pair, a move on the last
two edges is one of the identifications, and the members of a pair are
all equivalent because those of C are.  Each class comes with its size
(the sum over its pairs); a pass toward a goal state, the one kind whose
classes are returned, also keeps each class's least member, and the
members themselves are expanded from the level tables only when asked
for.  The state order comes from the one depth-first search that looks
for a directed cycle.

States and morphisms are referred to by cell label throughout: a state is
a 0-cell label and a path step is a 1-cell label.  The generating
morphisms themselves, with their corners, are the cells of
globular.globular_decomposition.
"""

from __future__ import annotations

from .core import (CellId, PrecubicalSet, _UnionFind, _Value, _face_rows, _is_sign,
                   _require_cell, _require_valid, _slots, apply_cube_map)


class EdgePath(_Value):
    """A non-empty composable sequence of 1-cells, with its endpoints."""

    _fields = ("edges", "source", "target")
    __slots__ = _slots(_fields)

    def __init__(self, edges: tuple[str, ...], source: str, target: str):
        self._edges = edges
        self._source = source
        self._target = target

    def __len__(self) -> int:
        return len(self.edges)


class PathClass(_Value):
    """An equivalence class of edge paths under square moves.

    All members share source, target and length; the representative is the
    lexicographically least member and size the number of members.  The
    member set is built on first use, from the level tables of the class
    pass that produced the class; a class built by hand without them knows
    its members only when it has one.  Equality, hashing and the repr
    leave the level tables out.
    """

    _fields = ("representative", "source", "target", "length", "size")
    __slots__ = _slots(_fields) + ("_pass", "_members")

    def __init__(self, representative: tuple[str, ...], source: str, target: str,
                 length: int, size: int, _pass=None):
        self._representative = representative
        self._source = source
        self._target = target
        self._length = length
        self._size = size
        self._pass = _pass
        self._members = None

    @property
    def members(self) -> frozenset:
        if self._members is None:
            if self._size == 1:
                self._members = frozenset({self._representative})
            elif self._pass is None:
                raise ValueError("the members of a hand-built class of size > 1 are unknown")
            else:
                self._members = self._pass.members(self._representative)
        return self._members


class StatePoset(_Value):
    """A strict partial order on the states: pairs (a, b) with a strictly below b."""

    _fields = ("states", "pairs")
    __slots__ = _slots(_fields)

    def __init__(self, states: tuple[str, ...], pairs: frozenset):
        self._states = states
        self._pairs = pairs

    def less(self, a: str, b: str) -> bool:
        return (a, b) in self.pairs


class LoopReport(_Value):
    """Witness that the edge graph is not loopless: a directed cycle of edges."""

    _fields = ("cycle", "states")
    __slots__ = _slots(_fields)

    def __init__(self, cycle: tuple[str, ...], states: tuple[str, ...]):
        self._cycle = cycle
        self._states = states


def realize_states(K: PrecubicalSet) -> frozenset:
    """The states of the realized flow: exactly the 0-cells of K."""
    return frozenset(K.cells(0))


def corner(K: PrecubicalSet, c: CellId, alpha: int) -> str:
    """The all-alpha corner vertex of a cell: the action of the constant
    word alpha...alpha of length dim(c)."""
    if not _is_sign(alpha):
        raise ValueError(f"corner sign must be 0 or 1: {alpha!r}")
    _require_cell(K, c)
    return apply_cube_map(K, c, str(alpha) * c.dim).label


def staircase(K: PrecubicalSet, c: CellId) -> EdgePath:
    """The canonical edge decomposition of the diagonal of a cell.

    Coordinates are raised in increasing index order: step k walks the edge
    whose word fixes coordinates 1..k-1 at 1, leaves coordinate k free, and
    fixes coordinates k+1..n at 0.  The result has length dim(c) and runs
    from corner(c, 0) to corner(c, 1).
    """
    _require_cell(K, c)
    n = c.dim
    if n < 1:
        raise ValueError("staircase requires a cell of dimension >= 1")
    edges = []
    for k in range(1, n + 1):
        word = "1" * (k - 1) + "*" + "0" * (n - k)
        edges.append(apply_cube_map(K, c, word).label)
    return edge_path(K, edges)


def _edge_ends(K: PrecubicalSet, label: str) -> tuple[str, str]:
    """The source and target states of an edge of a valid K."""
    if not K.has_cell(1, label):
        raise ValueError(f"not a 1-cell: {label!r}")
    return _face_rows(K, 1)[label]


def edge_path(K: PrecubicalSet, edges) -> EdgePath:
    """Build an EdgePath, checking that consecutive endpoints match."""
    _require_valid(K)
    if isinstance(edges, EdgePath):
        edges = edges.edges
    elif isinstance(edges, str):
        # a string is iterable, and would give one edge per character
        raise ValueError(f"edge path must be a sequence of edge labels, not a string: {edges!r}")
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


class _Edges:
    """The edge table of K, built once per call.

    Edges are numbered in label order; src and tgt give their end states,
    out the numbers of the edges leaving each state, in label order.
    """

    __slots__ = ("labels", "number", "src", "tgt", "out")

    def __init__(self, labels, number, src, tgt, out):
        self.labels, self.number, self.src, self.tgt, self.out = labels, number, src, tgt, out


def _edge_table(K: PrecubicalSet) -> _Edges:
    _require_valid(K)
    labels = K.cells(1)
    out: dict[str, list[int]] = {state: [] for state in K.cells(0)}
    rows = _face_rows(K, 1)
    src = [rows[e][0] for e in labels]
    tgt = [rows[e][1] for e in labels]
    for n, s in enumerate(src):
        out[s].append(n)
    return _Edges(labels, {e: n for n, e in enumerate(labels)}, src, tgt, out)


def _square_moves(K: PrecubicalSet, edges: _Edges) -> dict:
    """Map each edge number x to the moves (y, x', y') that may replace x
    then y by x' then y' inside a path.

    For a 2-cell s of a valid K the pair (d[2,0]s, d[1,1]s) and the pair
    (d[1,0]s, d[2,1]s) are the two boundary composites of s; the cubical
    relations make each an edge path, and both run between the same corners.
    """
    moves: dict[int, list[tuple]] = {}
    number, rows = edges.number, _face_rows(K, 2)
    for s in K.cells(2):
        d10, d11, d20, d21 = rows[s]
        x, y = number[d20], number[d11]
        x2, y2 = number[d10], number[d21]
        moves.setdefault(x, []).append((y, x2, y2))
        moves.setdefault(x2, []).append((y2, x, y))
    return moves


def _distance_to(edges: _Edges, b: str, bound: int) -> list:
    """For each edge, the fewest edges from its target to b, capped at
    bound + 1 (unreachable within the bound)."""
    into: dict[str, list[str]] = {}
    for s, t in zip(edges.src, edges.tgt):
        into.setdefault(t, []).append(s)
    dist = {b: 0}
    frontier = [b]
    for d in range(1, bound + 1):
        nxt = []
        for t in frontier:
            for s in into.get(t, ()):
                if s not in dist:
                    dist[s] = d
                    nxt.append(s)
        frontier = nxt
    return [dist.get(t, bound + 1) for t in edges.tgt]


class _Level:
    """The path classes of one length.

    Pair i is (class prefix[i] one level down, edge number edge[i]) and
    belongs to class cls[i]; index maps prefix * (number of edges) + edge
    back to the pair, and is kept only when moves need lookups.  end, size and rep describe each
    class: its end state, its number of members and its least member (rep
    is None in a pass without a goal).
    """

    __slots__ = ("prefix", "edge", "cls", "index", "end", "size", "rep", "_groups")

    def __init__(self, prefix, edge, cls, index, end, size, rep):
        self.prefix, self.edge, self.cls, self.index = prefix, edge, cls, index
        self.end, self.size, self.rep = end, size, rep
        self._groups = None

    def pairs_of(self, k: int) -> list:
        """The pair numbers of class k, grouped once on first use."""
        if isinstance(self.cls, range):
            return [k]
        if self._groups is None:
            groups = [[] for _ in self.end]
            for i, c in enumerate(self.cls):
                groups[c].append(i)
            self._groups = groups
        return self._groups[k]


class _ClassPass:
    """The classes of edge paths out of the seed states in K, one _Level
    per length 0..max_len in levels; the classes it returns share it.

    Level 0 holds one empty class per seed.  Given a goal state, a pair
    whose last edge cannot reach the goal within the remaining length is
    dropped, which is sound because both sides of a move share their ends,
    and each level keeps its classes' least members in rep; without a goal
    rep is None.  Pairs are scanned in order of (prefix class, edge label),
    so classes are numbered by their least member within each seed, and no
    set or dict order reaches them.
    """

    def __init__(self, K: PrecubicalSet, seeds, max_len: int, goal=None):
        self.edges = edges = _edge_table(K)
        moves = _square_moves(K, edges)
        reach = None if goal is None else _distance_to(edges, goal, max_len)
        seeds = list(seeds)
        rep = None if goal is None else [()] * len(seeds)
        self.levels = [_Level([], [], range(0), None, seeds, [1] * len(seeds), rep)]
        for length in range(1, max_len + 1):
            if not self.levels[-1].end:
                break  # no class left to extend: every longer level is empty
            self._extend(moves, max_len - length, reach)

    def _extend(self, moves: dict, slack: int, reach):
        """Add the next level: list its pairs, identify them under the
        moves, and number the classes."""
        labels, tgt, out = self.edges.labels, self.edges.tgt, self.edges.out
        prev = self.levels[-1]
        prefix, edge = [], []
        for c, state in enumerate(prev.end):
            for e in out[state]:
                if reach is None or reach[e] <= slack:
                    prefix.append(c)
                    edge.append(e)
        width = len(labels)
        index = ({c * width + e: i for i, (c, e) in enumerate(zip(prefix, edge))}
                 if moves else None)
        uf = self._identify(moves, index) if moves and len(self.levels) >= 2 else None

        keep = reach is not None  # only a pass toward a goal returns classes
        if uf is None:
            cls = range(len(prefix))
            end = [tgt[e] for e in edge]
            size = [prev.size[c] for c in prefix]
            rep = [prev.rep[c] + (labels[e],) for c, e in zip(prefix, edge)] if keep else None
        else:
            # a class is numbered when its first, hence least, pair is met
            cls, first = [], {}
            end, size, rep = [], [], ([] if keep else None)
            parent = uf.parent
            for i, (c, e) in enumerate(zip(prefix, edge)):
                k = first.setdefault(uf.find(i) if i in parent else i, len(first))
                cls.append(k)
                if k == len(end):
                    end.append(tgt[e])
                    size.append(prev.size[c])
                    if keep:
                        rep.append(prev.rep[c] + (labels[e],))
                else:
                    size[k] += prev.size[c]
        self.levels.append(_Level(prefix, edge, cls, index, end, size, rep))

    def _identify(self, moves: dict, index: dict):
        """Union the new level's pairs (class of D.x, y) and (class of D.x',
        y') for every move (x, y) <-> (x', y') leaving the end of a class D
        two levels down; None when no move applies."""
        edges = self.edges
        width = len(edges.labels)
        below, prev = self.levels[-2], self.levels[-1]
        uf = None
        for d, state in enumerate(below.end):
            for x in edges.out[state]:
                alts = moves.get(x)
                px = prev.index.get(d * width + x) if alts else None
                if px is None:
                    continue
                c = prev.cls[px]
                for y, x2, y2 in alts:
                    py = index.get(c * width + y)
                    if py is None or (x, y) >= (x2, y2):
                        continue  # its reverse move makes the same union
                    # both sides share their ends, so the other pair exists
                    other = index[prev.cls[prev.index[d * width + x2]] * width + y2]
                    if uf is None:
                        uf = _UnionFind()
                    uf.union(py, other)
        return uf

    def class_of(self, path) -> int:
        """The class number of an edge path out of the seed state, in the
        level of its length; needs the lookups kept when moves exist."""
        number, width = self.edges.number, len(self.edges.labels)
        c = 0
        for level, label in zip(self.levels[1:], path):
            c = level.cls[level.index[c * width + number[label]]]
        return c

    def members(self, path) -> frozenset:
        """Every path of the class of the given one, by walking the class's
        pairs back down the levels with an explicit stack."""
        labels, levels, length = self.edges.labels, self.levels, len(path)
        out = []
        buffer = [None] * length
        stack = [(length, i) for i in levels[length].pairs_of(self.class_of(path))]
        while stack:
            j, i = stack.pop()
            level = levels[j]
            buffer[j - 1] = labels[level.edge[i]]
            if j == 1:
                out.append(tuple(buffer))
            else:
                stack.extend((j - 1, p) for p in levels[j - 1].pairs_of(level.prefix[i]))
        return frozenset(out)


def path_equal(K: PrecubicalSet, p, q) -> bool:
    """Decide whether two edge paths are equal in the realized flow.

    True iff q is reachable from p by square moves, decided by the class
    pass out of p's source.  Paths of different length, source or target
    are never equal; malformed paths raise.
    """
    p = edge_path(K, p)
    q = edge_path(K, q)
    if (p.source, p.target, len(p)) != (q.source, q.target, len(q)):
        return False
    if p.edges == q.edges:
        return True
    if not K.cells(2):
        return False  # no square, no move
    run = _ClassPass(K, [p.source], len(p), p.target)
    return run.class_of(p.edges) == run.class_of(q.edges)


def enumerate_path_classes(
    K: PrecubicalSet, a: str, b: str, max_len: int
) -> tuple[PathClass, ...]:
    """All square-move classes of edge paths from a to b of length <= max_len.

    Classes are sorted by length and then by canonical representative.
    """
    for state in (a, b):
        if not K.has_cell(0, state):
            raise ValueError(f"unknown state: {state!r}")
    if max_len.__class__ is not int or max_len < 1:
        raise ValueError(f"max_len must be a positive int: {max_len!r}")
    run = _ClassPass(K, [a], max_len, b)
    return tuple(
        PathClass(level.rep[k], a, b, length, level.size[k], run)
        for length, level in enumerate(run.levels)
        for k, state in enumerate(level.end)
        if length and state == b
    )


def count_flow_morphisms(K: PrecubicalSet, max_len: int) -> int:
    """Number of path classes over all ordered state pairs, length <= max_len.

    Only non-empty paths count: a flow has no identity morphisms, so the
    empty path at a state is not one of its morphisms.  For loopless K
    with max_len at least the longest chain this is the full morphism
    count of the realized flow.  A zero bound admits no path at all, so
    the count is 0.  One class pass runs from every state at once.
    """
    if max_len.__class__ is not int or max_len < 0:
        raise ValueError(f"max_len must be a nonnegative int: {max_len!r}")
    if max_len == 0:
        return 0
    return sum(len(level.end) for level in _ClassPass(K, K.cells(0), max_len).levels[1:])


def state_order(K: PrecubicalSet):
    """The strict partial order that the edge graph induces on states.

    Returns a StatePoset when the edge graph is acyclic (the order is the
    transitive closure of the edge relation) and a LoopReport carrying one
    directed cycle of edges otherwise.
    """
    states = K.cells(0)
    edges = _edge_table(K)
    labels, tgt, out = edges.labels, edges.tgt, edges.out

    # iterative DFS; path_edges[k] is the edge that entered stack frame k+1,
    # so an edge into a state still on the stack closes a cycle along it.
    # A state leaves the stack after every state it reaches has left, so
    # its strict upper set is then the union, over its out-edges, of the
    # target and the target's upper set.  above[s] is None while s is on
    # the stack.
    above: dict[str, set | None] = {}
    for root in states:
        if root in above:
            continue
        above[root] = None
        stack = [(root, iter(out[root]))]
        path_edges: list[str] = []
        while stack:
            at, it = stack[-1]
            e = next(it, None)
            if e is None:
                targets = [tgt[f] for f in out[at]]
                above[at] = set(targets).union(*(above[t] for t in targets))
                stack.pop()
                if path_edges:
                    path_edges.pop()
                continue
            t = tgt[e]
            if t not in above:
                above[t] = None
                path_edges.append(labels[e])
                stack.append((t, iter(out[t])))
            elif above[t] is None:
                j = next(k for k, (s, _) in enumerate(stack) if s == t)
                cycle = tuple(path_edges[j:]) + (labels[e],)
                loop_states = tuple(s for s, _ in stack[j:])
                return LoopReport(cycle, loop_states)
    pairs = frozenset((a, b) for a in states for b in above[a])
    return StatePoset(tuple(states), pairs)
