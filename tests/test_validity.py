"""The one validity gate: every function that reads a complex's structure
validates it once and raises ValueError naming the first violation.  The
builders that are valid by construction are never validated on use, and
their results are checked here against validate and the checking
constructor."""

import random
import re
import subprocess
import sys

import pytest

from precubical import (
    CellId,
    PcsMap,
    PrecubicalSet,
    apply_cube_map,
    boundary_cube,
    chain_complex,
    circle,
    corner,
    count_flow_morphisms,
    disjoint_union,
    enumerate_path_classes,
    generate,
    globular_decomposition,
    homology,
    interval,
    parse,
    path_equal,
    pushout,
    serialize,
    skeleton,
    staircase,
    standard_cube,
    state_order,
    tensor,
    torus,
    validate,
)
from precubical import core
from conftest import (assert_one_cell_table, cube_category, isomorphic, klein_bottle,
                      random_glued_complex)


def corrupted_cube() -> PrecubicalSet:
    """The 3-cube with d[1,0] of its top cell pointing at the wrong square:
    every face entry exists, but a cubical relation fails."""
    cube = standard_cube(3)
    faces = cube.face_map
    faces[(3, 1, 0, "***")] = "*0*"
    return PrecubicalSet({d: cube.cells(d) for d in range(4)}, faces)


def cube_missing_face() -> PrecubicalSet:
    """The 3-cube with the d[2,1] entry of its top cell deleted."""
    cube = standard_cube(3)
    faces = cube.face_map
    del faces[(3, 2, 1, "***")]
    return PrecubicalSet({d: cube.cells(d) for d in range(4)}, faces)


INVALID = {
    "relation": (corrupted_cube, "cell (3, '***'): d[1,0]d[2,1] = '01*' but d[1,1]d[1,0] = '10*'"),
    "missing-face": (cube_missing_face, "cell (3, '***'): face d[2,1] is missing"),
}

TOP = CellId(3, "***")

CALLS = {
    "homology": homology,
    "chain_complex": chain_complex,
    "tensor-left": lambda K: tensor(K, standard_cube(1)),
    "tensor-right": lambda K: tensor(standard_cube(1), K),
    "globular_decomposition": globular_decomposition,
    "corner": lambda K: corner(K, TOP, 1),
    "staircase": lambda K: staircase(K, TOP),
    "apply_cube_map": lambda K: apply_cube_map(K, TOP, "*1*"),
    "cube_category": cube_category,
    "enumerate_path_classes": lambda K: enumerate_path_classes(K, "000", "111", 3),
    "count_flow_morphisms": lambda K: count_flow_morphisms(K, 3),
    "path_equal": lambda K: path_equal(K, ("*00", "1*0", "11*"), ("0*0", "*10", "11*")),
    "state_order": state_order,
}


@pytest.mark.parametrize("call", CALLS.values(), ids=CALLS.keys())
@pytest.mark.parametrize("make, message", INVALID.values(), ids=INVALID.keys())
def test_invalid_complex_raises_first_violation(make, message, call):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(make())


def test_each_complex_is_validated_once(monkeypatch):
    calls = []
    original = core.validate

    def counting(K):
        calls.append(K)
        return original(K)

    def use(K, a, b):
        globular_decomposition(K)
        homology(K)
        homology(K)
        enumerate_path_classes(K, a, b, 4)
        state_order(K)

    monkeypatch.setattr(core, "validate", counting)
    cube = standard_cube(4)
    hand_built = PrecubicalSet({d: cube.cells(d) for d in range(5)}, cube.face_map)
    use(hand_built, "0000", "1111")
    assert calls == [hand_built]

    # valid by construction: never validated, from construction on
    calls.clear()
    use(standard_cube(4), "0000", "1111")
    use(tensor(standard_cube(2), standard_cube(2)), "00|00", "11|11")
    square, edge = standard_cube(2), standard_cube(1)
    f = PcsMap(edge, square, {(1, "*"): "1*", (0, "0"): "10", (0, "1"): "11"})
    g = PcsMap(edge, square, {(1, "*"): "0*", (0, "0"): "00", (0, "1"): "01"})
    use(pushout(f, g), "K:00", "M:11")
    use(circle(), "v", "v")
    use(interval(3), "0", "3")
    assert calls == []

    parsed = parse(serialize(standard_cube(4)), check=True)
    globular_decomposition(parsed)
    homology(parsed)
    state_order(parsed)
    assert calls == []


def trusted_results():
    """(name, complex) for every builder that is valid by construction."""
    yield from ((f"cube{n}", standard_cube(n)) for n in range(7))
    yield from ((f"boundary{n}", boundary_cube(n)) for n in range(1, 7))
    cube = standard_cube(5)
    yield from ((f"skeleton{n}", skeleton(cube, n)) for n in range(-1, 6))
    factors = {"torus": torus(2), "klein": klein_bottle(), "boundary3": boundary_cube(3)}
    for a, K in factors.items():
        for b, M in factors.items():
            yield f"tensor-{a}-{b}", tensor(K, M)
            yield f"disjoint-{a}-{b}", disjoint_union(K, M)
    rng = random.Random(20261018)
    yield from ((f"glued{k}", random_glued_complex(rng)) for k in range(200))
    for family, params in (("cube", range(6)), ("boundary", range(6)), ("circle", [None]),
                           ("torus", range(4)), ("cylinder", [None]), ("interval", range(5))):
        yield from ((f"{family}{p}", generate(family, p)) for p in params)


def test_trusted_builders_give_valid_complexes():
    # validate runs in full whatever the complex remembers, and the checking
    # constructor must accept the same cells and faces and give an equal
    # complex; both keep every cell, vertices included, in one face row
    for name, X in trusted_results():
        assert validate(X) == [], name
        rebuilt = PrecubicalSet({d: X.cells(d) for d in range(X.top_dim + 1)}, X.face_map)
        assert X == rebuilt, name
        assert_one_cell_table(X)
        assert_one_cell_table(rebuilt)


def test_validate_checks_a_trusted_complex_in_full():
    # the same defect as corrupted_cube, planted behind the builder's back
    cube = standard_cube(3)
    # d[1,0] is slot 0 of the top cell's face row
    cube._rows[3]["***"] = ("*0*",) + cube._rows[3]["***"][1:]
    report = validate(cube)
    assert report and report == validate(corrupted_cube())


@pytest.mark.parametrize("make, message", INVALID.values(), ids=INVALID.keys())
def test_skeleton_of_an_invalid_complex_is_gated(make, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        homology(skeleton(make(), 3))
    # the defect sits on the top cell, so the 2-skeleton is valid
    assert homology(skeleton(make(), 2)) == homology(boundary_cube(3))


def test_tensor_escapes_labels_only_when_plain_names_collide():
    # a|b (x) c and a (x) b|c would both be named a|b|c
    left = PrecubicalSet({0: ["a", "a|b"], 1: ["e"]}, {(1, 1, 0, "e"): "a", (1, 1, 1, "e"): "a|b"})
    right = PrecubicalSet({0: ["c", "b|c"]})
    K = tensor(left, right)
    assert validate(K) == []
    assert K.cells(0) == ("a\\|b|b\\|c", "a\\|b|c", "a|b\\|c", "a|c")
    assert K.face_label(1, "e|b\\|c", 1, 1) == "a\\|b|b\\|c"
    plain = tensor(PrecubicalSet({0: ["a", "ab"], 1: ["e"]}, {(1, 1, 0, "e"): "a", (1, 1, 1, "e"): "ab"}),
                   PrecubicalSet({0: ["c", "bc"]}))
    assert isomorphic(K, plain)
    # without a collision the plain names stay, "|" or "\\" in them or not
    assert tensor(left, PrecubicalSet({0: ["c\\"]})).cells(0) == ("a|b|c\\", "a|c\\")
    assert torus(3).cells(0) == ("v|v|v",)


# An edge e with d[1,0] = a and no d[1,1] entry, glued to a point over the
# empty complex on the side given on the command line.
BROKEN_FOOT = """
import sys
from precubical import PcsMap, PrecubicalSet, boundary_cube, pushout, standard_cube

broken = PrecubicalSet({0: ["a", "b"], 1: ["e"]}, {(1, 1, 0, "e"): "a"})
point = standard_cube(0)
feet = (broken, point) if sys.argv[1] == "left" else (point, broken)
try:
    pushout(PcsMap(boundary_cube(0), feet[0], {}), PcsMap(boundary_cube(0), feet[1], {}))
except ValueError as exc:
    print(f"{type(exc).__name__}: {exc}")
"""


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimized"])
@pytest.mark.parametrize("side", ["left", "right"])
def test_pushout_gates_a_foot_with_a_missing_face(flags, side):
    proc = subprocess.run(
        [sys.executable, *flags, "-c", BROKEN_FOOT, side],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "ValueError: cell (1, 'e'): face d[1,1] is missing\n"
