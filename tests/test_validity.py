"""The one validity gate: every function that reads a complex's structure
validates it once and raises ValueError naming the first violation."""

import re

import pytest

from precubical import (
    CellId,
    PrecubicalSet,
    apply_cube_map,
    chain_complex,
    corner,
    count_flow_morphisms,
    cube_category,
    enumerate_path_classes,
    globular_decomposition,
    homology,
    parse,
    path_equal,
    serialize,
    staircase,
    standard_cube,
    state_order,
    tensor,
)
from precubical import core


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

    monkeypatch.setattr(core, "validate", counting)
    K = standard_cube(4)
    globular_decomposition(K)
    homology(K)
    homology(K)
    enumerate_path_classes(K, "0000", "1111", 4)
    state_order(K)
    assert len(calls) == 1

    calls.clear()
    parsed = parse(serialize(standard_cube(4)), check=True)
    globular_decomposition(parsed)
    homology(parsed)
    state_order(parsed)
    assert calls == []
