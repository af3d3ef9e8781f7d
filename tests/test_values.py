"""The value contract of the immutable public result types.

CellId, CubeWord, Violation, EdgePath, PathClass, StatePoset, LoopReport,
FlowAtom, GlobularDecomposition and HomologyResult are small frozen
records: positional fields in a fixed order, equality and hashing by
field values within one class, a repr listing the fields, no assignment
after construction, and copies and pickles that compare equal.  CellId is
ordered by (dim, label).  PathClass leaves its level tables out of
equality and repr, and builds its members on first read.
"""

from __future__ import annotations

import copy
import operator
import pickle

import pytest

from precubical import (
    CellId,
    CubeWord,
    EdgePath,
    FlowAtom,
    GlobularDecomposition,
    HomologyResult,
    LoopReport,
    PathClass,
    PrecubicalSet,
    StatePoset,
    Violation,
    circle,
    edge_path,
    enumerate_path_classes,
    globular_decomposition,
    homology,
    standard_cube,
    state_order,
    validate,
)


def dangling_edge() -> PrecubicalSet:
    return PrecubicalSet({0: ["a"], 1: ["e"]}, {(1, 1, 0, "e"): "a", (1, 1, 1, "e"): "z"})


# name -> (value made by the library, equal value built by hand,
#          a value that differs in one field, exact repr)
VALUES = {
    "CellId": (
        lambda: next(standard_cube(2).all_cells()),
        lambda: CellId(0, "00"),
        lambda: CellId(0, "01"),
        "CellId(dim=0, label='00')",
    ),
    "CubeWord": (
        lambda: CubeWord("*0"),
        lambda: CubeWord.identity(2).compose("*0"),
        lambda: CubeWord("*1"),
        "CubeWord(letters='*0')",
    ),
    "Violation": (
        lambda: validate(dangling_edge())[0],
        lambda: Violation("dangling-face", 1, "e", i=1, alpha=1,
                          detail="points at undeclared cell 'z'"),
        lambda: Violation("dangling-face", 1, "e", i=1, alpha=0,
                          detail="points at undeclared cell 'z'"),
        "Violation(kind='dangling-face', dim=1, cell='e', i=1, alpha=1, j=None, "
        "beta=None, detail=\"points at undeclared cell 'z'\")",
    ),
    "EdgePath": (
        lambda: edge_path(standard_cube(2), ["*0", "1*"]),
        lambda: EdgePath(("*0", "1*"), "00", "11"),
        lambda: EdgePath(("0*", "*1"), "00", "11"),
        "EdgePath(edges=('*0', '1*'), source='00', target='11')",
    ),
    "PathClass": (
        lambda: enumerate_path_classes(standard_cube(2), "00", "11", 2)[0],
        lambda: PathClass(("*0", "1*"), "00", "11", 2, 2),
        lambda: PathClass(("*0", "1*"), "00", "11", 2, 3),
        "PathClass(representative=('*0', '1*'), source='00', target='11', length=2, size=2)",
    ),
    "StatePoset": (
        lambda: state_order(standard_cube(1)),
        lambda: StatePoset(("0", "1"), frozenset({("0", "1")})),
        lambda: StatePoset(("0", "1"), frozenset()),
        "StatePoset(states=('0', '1'), pairs=frozenset({('0', '1')}))",
    ),
    "LoopReport": (
        lambda: state_order(circle()),
        lambda: LoopReport(("loop",), ("v",)),
        lambda: LoopReport(("loop",), ("w",)),
        "LoopReport(cycle=('loop',), states=('v',))",
    ),
    "FlowAtom": (
        lambda: globular_decomposition(standard_cube(1)).cells()[0],
        lambda: FlowAtom(CellId(1, "*"), "0", "1"),
        lambda: FlowAtom(CellId(1, "*"), "1", "0"),
        "FlowAtom(cube=CellId(dim=1, label='*'), source='0', target='1')",
    ),
    "GlobularDecomposition": (
        lambda: globular_decomposition(standard_cube(1)),
        lambda: GlobularDecomposition(("0", "1"), {1: (FlowAtom(CellId(1, "*"), "0", "1"),)}),
        lambda: GlobularDecomposition(("0", "1"), {}),
        "GlobularDecomposition(vertices=('0', '1'), stages={1: (FlowAtom(cube=CellId(dim=1, "
        "label='*'), source='0', target='1'),)})",
    ),
    "HomologyResult": (
        lambda: homology(circle()),
        lambda: HomologyResult((1, 1), ((), ())),
        lambda: HomologyResult((1, 0), ((), ())),
        "HomologyResult(betti=(1, 1), torsion=((), ()))",
    ),
}

# name -> (class, positional arguments, the fields they land in, in order)
FIELDS = {
    "CellId": (CellId, (3, "x"), ("dim", "label")),
    "CubeWord": (CubeWord, ("1*0",), ("letters",)),
    "Violation": (Violation, ("cubical-relation", 2, "s", 1, 0, 2, 1, "why"),
                  ("kind", "dim", "cell", "i", "alpha", "j", "beta", "detail")),
    "EdgePath": (EdgePath, (("e",), "a", "b"), ("edges", "source", "target")),
    "PathClass": (PathClass, (("e",), "a", "b", 1, 1),
                  ("representative", "source", "target", "length", "size")),
    "StatePoset": (StatePoset, (("a",), frozenset()), ("states", "pairs")),
    "LoopReport": (LoopReport, (("e",), ("a",)), ("cycle", "states")),
    "FlowAtom": (FlowAtom, (CellId(1, "e"), "a", "b"), ("cube", "source", "target")),
    "GlobularDecomposition": (GlobularDecomposition, (("a",), {}), ("vertices", "stages")),
    "HomologyResult": (HomologyResult, ((1,), ((),)), ("betti", "torsion")),
}

NAMES = sorted(VALUES)
HASHABLE = [name for name in NAMES if name != "GlobularDecomposition"]


def test_every_public_value_type_is_covered():
    assert set(VALUES) == set(FIELDS)
    assert {cls.__name__ for cls, _, _ in FIELDS.values()} == set(NAMES)


@pytest.mark.parametrize("name", NAMES)
def test_positional_fields_in_order(name):
    cls, args, fields = FIELDS[name]
    value = cls(*args)
    assert tuple(getattr(value, f) for f in fields) == args
    assert cls(**dict(zip(fields, args))) == value


@pytest.mark.parametrize("name", NAMES)
def test_equality_by_fields(name):
    made, hand, other, _ = VALUES[name]
    a, b, c = made(), hand(), other()
    assert a == b and b == a and not a != b
    assert a != c and not a == c
    assert a is not b


@pytest.mark.parametrize("name", NAMES)
def test_never_equal_to_another_type(name):
    cls, args, _ = FIELDS[name]
    value = cls(*args)
    assert value != args
    assert value != (args[0] if len(args) == 1 else list(args))
    assert value != object()


@pytest.mark.parametrize("name", HASHABLE)
def test_equal_values_hash_alike(name):
    made, hand, other, _ = VALUES[name]
    a, b, c = made(), hand(), other()
    assert hash(a) == hash(b)
    assert len({a, b, c}) == 2
    assert {a: 1}[b] == 1


def test_globular_decomposition_is_unhashable():
    # its stages field is a dict
    with pytest.raises(TypeError):
        hash(globular_decomposition(standard_cube(2)))


@pytest.mark.parametrize("name", NAMES)
def test_exact_repr(name):
    made, hand, _, text = VALUES[name]
    assert repr(made()) == text
    assert repr(hand()) == text


@pytest.mark.parametrize("name", NAMES)
def test_assignment_and_deletion_raise(name):
    cls, args, fields = FIELDS[name]
    value = cls(*args)
    for field in fields:
        with pytest.raises(AttributeError):
            setattr(value, field, args[0])
        with pytest.raises(AttributeError):
            delattr(value, field)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert tuple(getattr(value, f) for f in fields) == args


@pytest.mark.parametrize("name", NAMES)
def test_copies_and_pickles_compare_equal(name):
    made, _, _, text = VALUES[name]
    value = made()
    for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(twin) is type(value)
        assert twin == value
        assert repr(twin) == text


class TestCellIdOrder:
    def test_orders_by_dimension_then_label(self):
        a0, b0, a1 = CellId(0, "a"), CellId(0, "b"), CellId(1, "a")
        assert a0 < b0 < a1 and a1 > b0 > a0
        assert a0 <= a0 and a0 >= a0 and a0 <= b0 and a1 >= b0
        assert not a1 < a0 and not a0 > b0

    def test_sorted(self):
        cells = [CellId(1, "a"), CellId(0, "b"), CellId(2, "0"), CellId(0, "a"), CellId(1, "*")]
        assert sorted(cells) == [CellId(0, "a"), CellId(0, "b"), CellId(1, "*"),
                                 CellId(1, "a"), CellId(2, "0")]
        K = standard_cube(3)
        assert sorted(reversed(list(K.all_cells()))) == list(K.all_cells())
        assert min(K.all_cells()) == CellId(0, "000")

    def test_not_ordered_against_tuples(self):
        with pytest.raises(TypeError):
            CellId(0, "a") < (0, "b")

    @pytest.mark.parametrize("compare", [operator.le, operator.gt, operator.ge],
                             ids=["le", "gt", "ge"])
    def test_not_ordered_against_numbers(self, compare):
        with pytest.raises(TypeError):
            compare(CellId(0, "a"), 3)


class TestPathClassValue:
    class CountingPass:
        """Stands in for the class pass: counts how often members are built."""

        def __init__(self, members):
            self.calls = 0
            self._members = members

        def members(self, representative):
            self.calls += 1
            return frozenset(self._members)

    def test_equality_and_repr_ignore_the_level_tables(self):
        made = enumerate_path_classes(standard_cube(2), "00", "11", 2)[0]
        stub = PathClass(("*0", "1*"), "00", "11", 2, 2, self.CountingPass([]))
        hand = PathClass(("*0", "1*"), "00", "11", 2, 2)
        assert made == stub == hand
        assert hash(made) == hash(stub) == hash(hand)
        assert repr(stub) == repr(hand)

    def test_members_are_built_on_first_read_only(self):
        paths = [("*0", "1*"), ("0*", "*1")]
        counter = self.CountingPass(paths)
        c = PathClass(paths[0], "00", "11", 2, 2, counter)
        assert counter.calls == 0
        hash(c), repr(c), c == c
        assert counter.calls == 0
        assert c.members == frozenset(paths)
        assert c.members == frozenset(paths)
        assert counter.calls == 1

    def test_members_cannot_be_assigned(self):
        c = PathClass(("*",), "0", "1", 1, 1)
        with pytest.raises(AttributeError):
            c.members = frozenset()

    def test_members_survive_a_pickle(self):
        c = enumerate_path_classes(standard_cube(3), "000", "111", 3)[0]
        twin = pickle.loads(pickle.dumps(c))
        assert twin.members == c.members and len(twin.members) == c.size == 6
