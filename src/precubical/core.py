"""Finitely presented precubical sets and the combinatorial category of cubes.

A precubical set is a graded family of cells K_0, K_1, ... with face maps

    d[i, a] : K_n -> K_{n-1}      for 1 <= i <= n and a in {0, 1}

subject to the cubical relations

    d[i, a] d[j, b] = d[j-1, b] d[i, a]      for i < j.

An n-cell models n actions running independently; d[i, 0] is the state
before the i-th action starts, d[i, 1] the state after it finishes.

Morphisms of the indexing cube category are encoded as words over the
alphabet {0, 1, *}: a word of length n containing m stars is a morphism
[m] -> [n], the i-th star marking where the i-th coordinate of the source
lands.  Composition is substitution of the inner word into the stars of
the outer word.  Under this encoding the standard n-cube is the presheaf
whose k-cells are the length-n words with k stars, and the (i, a) face of
a cell replaces its i-th star (in left-to-right order) with the letter a.
The left-to-right star convention is a fixed orientation choice; tools
using another convention will disagree by a relabeling of face indices.

Everything here is finite and immutable after construction; operations are
pure functions, so results are deterministic and safe to share.

A complex is built from one private table, owned by this module, and from
nothing else: for each dimension that has cells, one row per declared
cell, the tuple of its 2n faces with d[i, alpha] at slot 2*(i-1) + alpha,
and None where a hand-built or parsed complex has no entry.  A vertex's
row is ().  The labels of a dimension are the keys of its table, so a
label is declared once and cannot repeat.  Other modules read the rows
through _face_rows.  Every complex is made by PrecubicalSet._fill, which
the constructor and _adopt end in; the checked path, _tabulate, is shared
with parse, and gives each face entry that names a declared cell that
cell's own label string.

The builders and validate work a whole face row at a time.  standard_cube
grows the n-cube from the rows of the (n-1)-cube, and pushout renames each
row through one label -> name table per dimension and side, so a row holds
the very label strings of the cells below.  validate opens each cell with
one test, the two routes of every relation instance read across its faces'
rows, and reports instance by instance only for a cell with a face that is
undeclared or has no faces, or whose two routes differ.
"""

from __future__ import annotations

import functools
import itertools
from collections import Counter
from operator import attrgetter, itemgetter

LETTERS = "01*"
STAR = "*"


def _slots(fields: tuple[str, ...]) -> tuple[str, ...]:
    """The private slot of each field of a _Value: _dim for dim."""
    return tuple("_" + name for name in fields)


class _Value:
    """Base of the immutable value classes.

    A subclass names its fields, in constructor order, in _fields, keeps
    them in the private slots _slots(_fields) and stores them in __init__
    with plain assignments.  A field reads through a property without a
    setter, so assigning or deleting one raises AttributeError.  Two values
    are equal when they are of the same class and their fields are equal,
    and hash alike then; the repr lists the fields as Name(field=value, ...).
    """

    __slots__ = ()
    _fields: tuple[str, ...]

    def __init_subclass__(cls):
        super().__init_subclass__()
        for name, slot in zip(cls._fields, _slots(cls._fields)):
            setattr(cls, name, property(attrgetter(slot), doc=f"The {name} field."))
        # the field values, as a tuple when there are several; an
        # attrgetter is no descriptor, so it is called as self._values(self)
        cls._values = attrgetter(*_slots(cls._fields))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == other._values(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"


@functools.total_ordering
class CellId(_Value):
    """A cell, identified by its dimension and a label unique in that dimension.

    Cells are ordered by dimension, then label.
    """

    _fields = ("dim", "label")
    __slots__ = _slots(_fields)

    def __init__(self, dim: int, label: str):
        self._dim = dim
        self._label = label

    def __lt__(self, other):
        if other.__class__ is CellId:
            return (self._dim, self._label) < (other._dim, other._label)
        return NotImplemented


class CubeWord(_Value):
    """A morphism [m] -> [n] of the cube category, as a length-n word with m stars."""

    _fields = ("letters",)
    __slots__ = _slots(_fields)

    def __init__(self, letters: str):
        if set(letters) - set(LETTERS):
            raise ValueError(f"cube word may only contain 0, 1, *: {letters!r}")
        self._letters = letters

    def __len__(self) -> int:
        return len(self.letters)

    def __str__(self) -> str:
        return self.letters

    @property
    def stars(self) -> int:
        return self.letters.count(STAR)

    @property
    def is_identity(self) -> bool:
        return self.stars == len(self.letters)

    @classmethod
    def identity(cls, n: int) -> "CubeWord":
        return cls(STAR * n)

    def compose(self, inner: "CubeWord | str") -> "CubeWord":
        """self o inner: substitute the letters of inner into the stars of self.

        self is [m] -> [n] and inner must be [k] -> [m]; the result is the
        length-n word with k stars obtained by writing inner across the m
        star positions of self.
        """
        inner = as_word(inner)
        if len(inner) != self.stars:
            raise ValueError(
                f"cannot compose: outer word {self.letters!r} has {self.stars} "
                f"stars but inner word {inner.letters!r} has length {len(inner)}"
            )
        out = []
        it = iter(inner.letters)
        for ch in self.letters:
            out.append(next(it) if ch == STAR else ch)
        return CubeWord("".join(out))


def as_word(w: "CubeWord | str") -> CubeWord:
    return w if isinstance(w, CubeWord) else CubeWord(w)


class Violation(_Value):
    """One defect found by validate.

    kind is one of "missing-face" (no entry for a required face),
    "dangling-face" (entry points at an undeclared cell) and
    "cubical-relation" (d[i,a] d[j,b] != d[j-1,b] d[i,a] on some cell).
    Unused coordinate fields are None.
    """

    _fields = ("kind", "dim", "cell", "i", "alpha", "j", "beta", "detail")
    __slots__ = _slots(_fields)

    def __init__(self, kind: str, dim: int, cell: str, i: int | None = None,
                 alpha: int | None = None, j: int | None = None,
                 beta: int | None = None, detail: str = ""):
        self._kind = kind
        self._dim = dim
        self._cell = cell
        self._i = i
        self._alpha = alpha
        self._j = j
        self._beta = beta
        self._detail = detail

    def __str__(self) -> str:
        coords = ", ".join(
            f"{k}={getattr(self, k)}"
            for k in ("i", "alpha", "j", "beta")
            if getattr(self, k) is not None
        )
        msg = f"{self.kind} at dim {self.dim} cell {self.cell!r}"
        if coords:
            msg += f" ({coords})"
        if self.detail:
            msg += f": {self.detail}"
        return msg


class PrecubicalSet:
    """A finitely presented precubical set.

    cells maps each dimension to its cell labels; faces maps
    (dim, i, alpha, label) to the label of the (i, alpha) face in
    dimension dim - 1.  The constructor checks structure only (types,
    index ranges, label uniqueness, faces keyed on declared cells);
    semantic defects such as dangling face values, missing face entries
    and cubical-relation failures are the business of validate, so that
    broken inputs can be represented and reported.

    Whichever way it is made, a complex is its table of face rows: one
    row per declared cell, () for a vertex, keyed on the cell's label.
    That table answers every membership test, its keys are the cells,
    and two complexes are equal when their tables are.  face_map lists
    the entries in canonical order, by dimension, label, i and alpha,
    whatever order they were given in.

    The builders standard_cube, boundary_cube, skeleton (of a complex
    known to be valid), tensor, pushout, disjoint_union, circle, interval,
    torus and cylinder return complexes that are valid by construction:
    they go through _adopt, skip the constructor's per-entry checks and
    are never validated on use.  validate itself always runs the full
    check.
    """

    def __init__(self, cells, faces=None):
        self._fill(_tabulate(dict(cells), dict(faces or {}).items()), False)

    @classmethod
    def _adopt(cls, rows, valid: bool) -> "PrecubicalSet":
        """The complex whose face rows are rows, {dim: {label: row}}, without
        the per-entry checks of _tabulate; valid says whether the caller
        guarantees the precubical axioms.  The complex keeps the tables of
        rows, not copies, and a dimension whose table is empty has no
        cells."""
        K = cls.__new__(cls)
        K._fill(rows, valid)
        return K

    def _fill(self, rows, valid: bool) -> None:
        # the one place that builds a complex; only validate, which records
        # its verdict in _valid, writes a field after this
        self._rows = {dim: table for dim, table in rows.items() if table}
        self._cells = {dim: tuple(sorted(table)) for dim, table in self._rows.items()}
        self._top_dim = max(self._rows, default=-1)
        # set by validate and by the builders that are valid by
        # construction; a complex known to be valid is never checked again
        self._valid = valid

    @property
    def top_dim(self) -> int:
        """Largest dimension with at least one cell, -1 for the empty complex."""
        return self._top_dim

    def cells(self, dim: int) -> tuple[str, ...]:
        """Sorted labels of the dim-cells (empty tuple if none)."""
        return self._cells.get(dim, ())

    def n_cells(self, dim: int) -> int:
        return len(self._cells.get(dim, ()))

    def cell_counts(self) -> tuple[int, ...]:
        """Cell count per dimension, indices 0..top_dim."""
        return tuple(self.n_cells(d) for d in range(self._top_dim + 1))

    def all_cells(self):
        """Yield every cell as a CellId, in (dimension, label) order."""
        for dim, label in _cell_keys(self):
            yield CellId(dim, label)

    def has_cell(self, dim: int, label: str) -> bool:
        return label in _face_rows(self, dim)

    def face_label(self, dim: int, label: str, i: int, alpha: int) -> str | None:
        """Label of d[i, alpha] of the cell, or None if the entry is absent;
        an index or sign that is not an int exactly, such as 1.0 or True,
        names no entry."""
        row = _face_rows(self, dim).get(label)
        if row is None or i.__class__ is not int or not 1 <= i <= dim or not _is_sign(alpha):
            return None
        return row[2 * i - 2 + alpha]

    def face(self, cell: CellId, i: int, alpha: int) -> CellId:
        """d[i, alpha] of the cell, as a CellId of dimension cell.dim - 1.

        Raises ValueError naming the cell when it is undeclared, the index
        or sign when no cell of that dimension has such a face, and the cell
        when the face entry is missing or points at an undeclared cell.
        """
        _require_cell(self, cell)
        if i.__class__ is not int or not 1 <= i <= cell.dim:
            raise ValueError(f"face index {i!r} out of range 1..{cell.dim}")
        if not _is_sign(alpha):
            raise ValueError(f"face sign must be 0 or 1: {alpha!r}")
        value, problem = _face_entry(self, cell.dim, cell.label, i, alpha)
        if value is None:
            raise ValueError(problem)
        return CellId(cell.dim - 1, value)

    @property
    def face_map(self) -> dict[tuple[int, int, int, str], str]:
        """The face entries as a new dict keyed (dim, i, alpha, label), in
        canonical order: by dimension, label, i, then alpha."""
        return {(dim, slot // 2 + 1, slot % 2, label): value
                for dim in sorted(self._rows) for label in self._cells[dim]
                for slot, value in enumerate(self._rows[dim][label]) if value is not None}

    def __eq__(self, other) -> bool:
        if not isinstance(other, PrecubicalSet):
            return NotImplemented
        return self._rows == other._rows

    def __repr__(self) -> str:
        counts = ", ".join(str(c) for c in self.cell_counts())
        return f"PrecubicalSet(cells=({counts}))"


def _tabulate(cells, entries) -> dict:
    """The face rows of a complex with the given cells and
    ((dim, i, alpha, label), value) face entries, through the structural
    checks of the constructor and of parse: raises ValueError at the
    first failure, a repeated label before any face entry."""
    checked: dict[int, list[str]] = {}
    rows: dict[int, dict[str, list]] = {}
    for dim, labels in cells.items():
        if not isinstance(dim, int) or isinstance(dim, bool) or dim < 0:
            raise ValueError(f"cell dimension must be a non-negative int: {dim!r}")
        if isinstance(labels, str):
            # a string is iterable, and would give one cell per character
            raise ValueError(f"cell labels of dimension {dim} must be a collection "
                             f"of strings, not a string: {labels!r}")
        labels = checked[dim] = list(labels)
        for lab in labels:
            if not isinstance(lab, str):
                raise ValueError(f"cell label must be a string: {lab!r}")
        try:
            rows[dim] = {label: [None] * (2 * dim) for label in labels}
        except (OverflowError, MemoryError):
            # a row longer than a list can be raises one of these at once
            raise ValueError(f"cell dimension is too large: {dim}") from None
    for dim, labels in checked.items():
        # the table, keyed on the labels, is shorter than a list that repeats one
        if len(rows[dim]) < len(labels):
            dupes = sorted(label for label, n in Counter(labels).items() if n > 1)
            raise ValueError(f"duplicate labels in dimension {dim}: {dupes}")
    for (dim, i, alpha, label), value in entries:
        if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
            raise ValueError(f"face dimension must be an int >= 1: {dim!r}")
        if i.__class__ is not int or not 1 <= i <= dim:
            raise ValueError(f"face index {i!r} out of range 1..{dim}")
        if not _is_sign(alpha):
            raise ValueError(f"face sign must be 0 or 1: {alpha!r}")
        row = rows.get(dim, {}).get(label)
        if row is None:
            raise ValueError(f"face keyed on undeclared cell ({dim}, {label!r})")
        if not isinstance(value, str):
            raise ValueError(f"face value must be a label string: {value!r}")
        if row[2 * i - 2 + alpha] is not None:
            raise ValueError(f"face d[{i},{alpha}] of cell ({dim}, {label!r}) given twice")
        row[2 * i - 2 + alpha] = value
    # each value becomes the very label of the cell below that it names,
    # as in a built complex; a dangling one keeps its own string
    for dim, table in rows.items():
        get = {label: label for label in rows.get(dim - 1, ())}.get
        rows[dim] = {label: tuple(map(get, row, row)) for label, row in table.items()}
    return rows


def _is_sign(alpha) -> bool:
    """Whether alpha is a face sign: the int 0 or 1 exactly.  False, True,
    0.0 and 1.0 compare equal to those, but name no face slot."""
    return alpha.__class__ is int and 0 <= alpha <= 1


def _face_rows(K: PrecubicalSet, dim: int) -> dict:
    """label -> face row of each declared dim-cell of K, () for a vertex,
    and empty for a dimension without cells; read only."""
    return K._rows.get(dim, {})


def _cell_keys(K: PrecubicalSet):
    """(dim, label) of every cell of K, in all_cells order: a loop that reads
    them often walks these, since a CellId serves each through a property."""
    return ((dim, label) for dim in range(K.top_dim + 1) for label in K.cells(dim))


def _require_cell(K: PrecubicalSet, cell: CellId) -> None:
    """Raise ValueError unless K declares the cell."""
    if not K.has_cell(cell.dim, cell.label):
        raise ValueError(f"undeclared cell ({cell.dim}, {cell.label!r})")


def _face_entry(K: PrecubicalSet, dim: int, label: str, i: int, alpha: int):
    """(d[i, alpha] of the cell, ""), or (None, why) when that entry is
    missing or points at an undeclared cell: the one wording of that fault."""
    value = K.face_label(dim, label, i, alpha)
    if value is None:
        return None, f"cell ({dim}, {label!r}): face d[{i},{alpha}] is missing"
    if value not in _face_rows(K, dim - 1):
        return None, (f"cell ({dim}, {label!r}): face d[{i},{alpha}] "
                      f"points at undeclared cell {value!r}")
    return value, ""


def validate(K: PrecubicalSet) -> list[Violation]:
    """Check the precubical axioms; an empty report means K is a precubical set.

    Reports every missing face entry, every face entry whose value is not a
    declared cell of the dimension below, and every violated instance
    (i, j, alpha, beta, cell) of the cubical relation.  Relation instances
    whose ingredient faces are missing or dangling are skipped, since they
    are already reported.  Every call runs the full check, also on a
    complex that is valid by construction.  K remembers the verdict, so
    _require_valid checks it only once.

    Each cell is opened with one test: its faces' rows, laid end to end,
    read the same along the two routes of _routes.  Only a cell that has
    an undeclared face, or a face without faces, or two routes that
    differ, is walked instance by instance.
    """
    faults: list[Violation] = []
    relations: list[Violation] = []
    # the cells of the dimension below that have no declared face of their
    # own: no relation through such a face can be reported
    poor: set[str] = set()
    flatten = itertools.chain.from_iterable
    for dim in range(1, K.top_dim + 1):
        low, mid, table = _face_rows(K, dim - 2), _face_rows(K, dim - 1), _face_rows(K, dim)
        declared, every = mid.__contains__, range(1, dim + 1)
        # the rows of the faces a relation can pass through: those of the
        # cells below with a declared face of their own
        rich = {label: row for label, row in mid.items() if label not in poor} if poor else mid
        fetch = rich.__getitem__
        poor = set()
        # the routes are built only where the rows outweigh them, so a few
        # tall cells cost memory in proportion to their rows
        lhs, rhs = _routes(dim) if 1 < dim <= len(table) + 1 else (None, None)
        for label in K.cells(dim):
            row = table[label]
            try:
                faces = tuple(flatten(map(fetch, row)))
            except KeyError:
                for slot, value in enumerate(row):
                    i, alpha = slot // 2 + 1, slot % 2
                    if value is None:
                        faults.append(Violation("missing-face", dim, label, i, alpha))
                    elif value not in mid:
                        faults.append(Violation("dangling-face", dim, label, i, alpha,
                                                detail=f"points at undeclared cell {value!r}"))
                if not any(map(declared, row)):
                    poor.add(label)
            else:
                if dim == 1 or lhs is not None and lhs(faces) == rhs(faces):
                    continue
            # a relation instance is reported only when its two ingredient
            # faces have declared faces, so only coordinates with such a
            # face are paired: a cell whose faces are missing, or have no
            # faces, costs time linear in its dimension
            coords = [k for k in every if row[2 * k - 2] in rich or row[2 * k - 1] in rich]
            for j in coords:
                for i in coords:
                    if i == j:
                        break
                    for alpha in (0, 1):
                        ia = row[2 * i - 2 + alpha]
                        if ia not in mid:
                            continue
                        for beta in (0, 1):
                            jb = row[2 * j - 2 + beta]
                            if jb not in mid:
                                continue
                            left = mid[jb][2 * i - 2 + alpha]
                            right = mid[ia][2 * j - 4 + beta]
                            if left != right and left in low and right in low:
                                relations.append(Violation(
                                    "cubical-relation", dim, label, i, alpha, j, beta,
                                    f"d[{i},{alpha}]d[{j},{beta}] = {left!r} "
                                    f"but d[{j-1},{beta}]d[{i},{alpha}] = {right!r}"))
    # every missing or dangling entry is reported before any relation
    report = faults + relations
    K._valid = not report
    return report


@functools.lru_cache(maxsize=16)
def _routes(n: int) -> tuple[itemgetter, itemgetter]:
    """The two sides of the cubical relations of an n-cell, n >= 2, as
    getters over the 2n face rows of its faces laid end to end (2n - 2
    entries each): for every instance (i < j, alpha, beta) the first picks
    d[i, alpha] d[j, beta] and the second, at the same place,
    d[j-1, beta] d[i, alpha].  validate asks for them only for a
    dimension whose rows are larger, and the last few asked for are kept."""
    width = 2 * n - 2
    instances = [(2 * i - 2 + alpha, 2 * j - 2 + beta) for j in range(2, n + 1)
                 for i in range(1, j) for alpha in (0, 1) for beta in (0, 1)]
    return (itemgetter(*[jb * width + ia for ia, jb in instances]),
            itemgetter(*[ia * width + jb - 2 for ia, jb in instances]))


def _require_valid(K: PrecubicalSet) -> None:
    """Raise ValueError naming the first violation of K, unless K has
    already passed validate or is valid by construction."""
    if K._valid:
        return
    report = validate(K)
    if report:
        v = report[0]
        raise ValueError(f"cell ({v.dim}, {v.cell!r}): {v.detail}" if v.kind == "cubical-relation"
                         else _face_entry(K, v.dim, v.cell, v.i, v.alpha)[1])


def standard_cube(n: int) -> PrecubicalSet:
    """The standard n-cube: k-cells are the length-n words with k stars."""
    if n < 0:
        raise ValueError("dimension must be non-negative")
    # grown from the (n-1)-cube, a face row at a time: the (i, alpha) face
    # replaces the i-th star, left to right, with alpha, so 0w and 1w put
    # their letter before every face of w, and *w has the faces 0w and 1w
    # and then * before every face of w
    rows: dict[int, dict[str, tuple]] = {0: {"": ()}}
    for _ in range(n):
        # each word with each letter put in front, made once and shared by
        # every row that names it; vertices have no faces to name
        names = {k: {c: dict(zip(table, map(c.__add__, table))) for c in LETTERS}
                 for k, table in rows.items()}
        names[-1] = dict.fromkeys(LETTERS, {})
        grown = {k: {} for k in range(len(rows) + 1)}
        for k, table in rows.items():
            here, below = names[k], names[k - 1]
            for c in "01":
                name, face = here[c], below[c].__getitem__
                grown[k].update({name[w]: tuple(map(face, row)) for w, row in table.items()})
            name, zero, one, face = here[STAR], here["0"], here["1"], below[STAR].__getitem__
            grown[k + 1].update({name[w]: (zero[w], one[w], *map(face, row))
                                 for w, row in table.items()})
        rows = grown
    return PrecubicalSet._adopt(rows, True)


def boundary_cube(n: int) -> PrecubicalSet:
    """The n-cube with its single top cell removed; boundary_cube(0) is empty."""
    if n < 0:
        raise ValueError("dimension must be non-negative")
    return skeleton(standard_cube(n), n - 1) if n > 0 else _empty()


def _empty() -> PrecubicalSet:
    return PrecubicalSet._adopt({}, True)


def skeleton(K: PrecubicalSet, n: int) -> PrecubicalSet:
    """The subcomplex of cells of dimension at most n; valid by
    construction when K is known to be valid."""
    # rows are never changed after construction, so the two complexes share
    # the tables of the dimensions up to n
    return PrecubicalSet._adopt({d: table for d, table in K._rows.items() if d <= n}, K._valid)


def apply_cube_map(K: PrecubicalSet, c: CellId, w: CubeWord | str) -> CellId:
    """Evaluate the presheaf action of the cube-category morphism w on the cell c.

    w is a word of length c.dim with m stars; the result is the m-cell
    obtained by the iterated faces that w encodes.  The all-stars word is
    the identity, and the action is functorial:
    apply(c, u.compose(v)) == apply(apply(c, u), v).
    """
    w = as_word(w)
    if len(w) != c.dim:
        raise ValueError(
            f"word length {len(w)} does not match cell dimension {c.dim}"
        )
    _require_cell(K, c)
    _require_valid(K)
    dim, label, letters = c.dim, c.label, w.letters
    # the letter at place pos is the face d[pos + 1, letter]; taken right to
    # left, each letter is still at its own place in the face before it, and
    # the cubical relations make the order of the faces immaterial
    for pos in reversed(range(dim)):
        if letters[pos] != STAR:
            label = K._rows[dim][label][2 * pos + int(letters[pos])]
            dim -= 1
    return CellId(dim, label)


class PcsMap:
    """A morphism of precubical sets: a dimension-preserving cell map
    commuting with all faces.

    mapping sends (dim, label) of the source to a label of the target.
    """

    def __init__(self, source: PrecubicalSet, target: PrecubicalSet, mapping):
        self.source = source
        self.target = target
        self.mapping = dict(mapping)

    @classmethod
    def identity(cls, K: PrecubicalSet) -> "PcsMap":
        return cls.inclusion(K, K)

    @classmethod
    def inclusion(cls, sub: PrecubicalSet, K: PrecubicalSet) -> "PcsMap":
        """The identity-on-labels inclusion of a subcomplex."""
        return cls(sub, K, {key: key[1] for key in _cell_keys(sub)})

    def __call__(self, cell: CellId) -> CellId:
        image = self.mapping.get((cell.dim, cell.label))
        if image is None:
            raise ValueError(f"cell ({cell.dim}, {cell.label!r}) has no image")
        return CellId(cell.dim, image)

    def defects(self) -> list[str]:
        """Reasons this is not a morphism; empty when it is one.

        A face entry of a source cell or of its image that is missing or
        points at an undeclared cell is a defect, since the faces cannot
        commute through it.
        """
        problems = []
        for dim, label in _cell_keys(self.source):
            if (dim, label) not in self.mapping:
                problems.append(f"cell ({dim}, {label!r}) has no image")
                continue
            image = self.mapping[dim, label]
            if not self.target.has_cell(dim, image):
                problems.append(f"image of ({dim}, {label!r}) is undeclared ({dim}, {image!r})")
                continue
            for i in range(1, dim + 1):
                for alpha in (0, 1):
                    src_face, src_problem = _face_entry(self.source, dim, label, i, alpha)
                    tgt_face, tgt_problem = _face_entry(self.target, dim, image, i, alpha)
                    for side, problem in (("source", src_problem), ("target", tgt_problem)):
                        if problem:
                            problems.append(f"{side} {problem}")
                    if src_face is None or tgt_face is None:
                        continue
                    mapped = self.mapping.get((dim - 1, src_face))
                    if mapped != tgt_face:
                        problems.append(f"faces do not commute at ({dim}, {label!r}), "
                                        f"d[{i},{alpha}]: {mapped!r} != {tgt_face!r}")
        return problems

    @property
    def is_valid(self) -> bool:
        return not self.defects()


class _UnionFind:
    def __init__(self):
        self.parent = {}

    def find(self, x):
        self.parent.setdefault(x, x)
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, x, y):
        self.parent[self.find(x)] = self.find(y)


def pushout(f: PcsMap, g: PcsMap) -> PrecubicalSet:
    """Degreewise pushout of K <- L -> M along the morphisms f: L -> K, g: L -> M.

    Cells of K and M are tagged "K:..." and "M:..." and identified whenever
    they receive the same cell of L; each class is labeled by the
    lexicographically least tagged member, so output labels are
    deterministic.  Raises ValueError if the two sources differ, if K, M
    or L is not a valid precubical set (naming its first violation), or
    if f or g fails to commute with faces.  The result is valid by
    construction.
    """
    if f.source != g.source:
        raise ValueError("pushout feet must share the same source")
    K, M, L = f.target, g.target, f.source
    for X in (K, M, L):
        _require_valid(X)
    for name, h in (("f", f), ("g", g)):
        problems = h.defects()
        if problems:
            raise ValueError(f"{name} is not a precubical morphism: {problems[0]}")

    # only the images of L's cells are ever identified; every other cell
    # is a class of its own and keeps its tagged label
    uf = _UnionFind()
    for dim, label in _cell_keys(L):
        uf.union((dim, "K", f.mapping[dim, label]), (dim, "M", g.mapping[dim, label]))
    tags: dict[tuple, list[str]] = {}
    for node in uf.parent:
        tags.setdefault(uf.find(node), []).append(f"{node[1]}:{node[2]}")
    least = {root: min(group) for root, group in tags.items()}

    # one label -> name table per dimension and side: the tagged names, with
    # the name of its class laid over each glued cell
    names: dict[tuple, dict[str, str]] = {}
    for side, X in (("K", K), ("M", M)):
        for dim in range(X.top_dim + 1):
            labels = X.cells(dim)
            names[dim, side] = dict(zip(labels, map(f"{side}:".__add__, labels)))
    for node in uf.parent:
        names[node[:2]][node[2]] = least[uf.find(node)]

    rows: dict[int, dict[str, tuple]] = {}
    for dim in range(max(K.top_dim, M.top_dim) + 1):
        table = rows[dim] = {}
        for side, X in (("K", K), ("M", M)):
            name, below = names.get((dim, side), {}), names.get((dim - 1, side), {})
            # faces are class-independent because f and g commute with
            # faces, so every member of a glued class gives it the same row
            table.update({name[label]: tuple(map(below.__getitem__, row))
                          for label, row in _face_rows(X, dim).items()})
    return PrecubicalSet._adopt(rows, True)


def disjoint_union(K: PrecubicalSet, M: PrecubicalSet) -> PrecubicalSet:
    """Coproduct, as the pushout over the empty precubical set."""
    return pushout(PcsMap(_empty(), K, {}), PcsMap(_empty(), M, {}))


def tensor(K: PrecubicalSet, L: PrecubicalSet) -> PrecubicalSet:
    """Tensor product: (K (x) L)_n is the disjoint union of K_p x L_q over p+q = n.

    A pair cell is labeled "x|y".  When labels holding "|" would give two
    pair cells one name, every factor label is written with "\\" and "|"
    escaped by a backslash first, which makes the names distinct.  Faces
    act on the left factor for i <= p and on the right factor, with the
    index shifted by p, otherwise.  An invalid factor raises ValueError
    naming its first violation.
    """
    _require_valid(K)
    _require_valid(L)
    rows: dict[int, dict[str, tuple]] = {}
    for p in range(K.top_dim + 1):
        for q in range(L.top_dim + 1):
            left, right, table = _face_rows(K, p), _face_rows(L, q), rows.setdefault(p + q, {})
            for x in K.cells(p):
                for y in L.cells(q):
                    # the left factor's faces fill the first 2p slots of the row
                    table[f"{x}|{y}"] = tuple([f"{fx}|{y}" for fx in left[x]]
                                              + [f"{x}|{fy}" for fy in right[y]])
    # two pairs named alike leave fewer rows than pairs
    if sum(map(len, rows.values())) < sum(K.cell_counts()) * sum(L.cell_counts()):
        return tensor(_escape_labels(K), _escape_labels(L))
    return PrecubicalSet._adopt(rows, True)


def _escape_labels(K: PrecubicalSet) -> PrecubicalSet:
    """K with "\\" and "|" escaped by a backslash in every label: in "x|y"
    of two such labels the first "|" not escaped ends x."""
    def escape(label):
        return label.replace("\\", "\\\\").replace("|", "\\|")
    return PrecubicalSet._adopt(
        {dim: {escape(label): tuple(map(escape, row)) for label, row in table.items()}
         for dim, table in K._rows.items()},
        K._valid)
