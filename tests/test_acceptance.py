"""End-to-end acceptance: eight exact combinatorial criteria, and the
public surface they are stated in.

Each test prints one PASS line on success; a failure shows up as the
test's FAILED line.  Everything here runs from scratch in well under a
minute.
"""

import itertools
import json
import random
import subprocess
import sys
import types

import precubical

from precubical import (
    LoopReport,
    PrecubicalSet,
    boundary_cube,
    chain_complex,
    circle,
    count_flow_morphisms,
    enumerate_path_classes,
    globular_decomposition,
    homology,
    parse,
    path_equal,
    realize_states,
    serialize,
    standard_cube,
    state_order,
    torus,
    validate,
)

from conftest import (
    CORPUS,
    corner_routes,
    flow_word_count,
    is_zero,
    matmul,
    product_order_pairs,
    random_glued_complex,
)


def test_criterion_1_representable_recovery():
    for n in range(5):
        K = standard_cube(n)
        assert len(realize_states(K)) == 2**n
        counted = count_flow_morphisms(K, n)
        assert counted == flow_word_count(n) == 3**n - 2**n
    print("PASS criterion 1: representable recovery, states 2^n and "
          "morphisms 3^n - 2^n for n = 0..4")


def test_criterion_2_states_bijection():
    for name, K in CORPUS:
        assert realize_states(K) == frozenset(K.cells(0)), name
    assert realize_states(boundary_cube(0)) == frozenset()
    print("PASS criterion 2: realized states equal the vertex set on the "
          "whole corpus, including the empty boundary")


def test_criterion_3_square_relation_semantics():
    square = standard_cube(2)
    low = (square.face_label(2, "**", 2, 0), square.face_label(2, "**", 1, 1))
    high = (square.face_label(2, "**", 1, 0), square.face_label(2, "**", 2, 1))
    assert path_equal(square, low, high)
    assert not path_equal(boundary_cube(2), low, high)
    hollow = boundary_cube(3)
    classes = enumerate_path_classes(hollow, "000", "111", 3)
    assert len(classes) == 1
    assert len(classes[0].members) == 6
    stairs = set()
    for order in itertools.permutations(range(3)):
        raised = set()
        path = []
        for axis in order:
            word = "".join(
                "*" if k == axis else "1" if k in raised else "0"
                for k in range(3)
            )
            path.append(word)
            raised.add(axis)
        stairs.add(tuple(path))
    assert classes[0].members == stairs
    print("PASS criterion 3: the square merges its boundary paths, the "
          "hollow square does not, and the 6 hollow-cube staircases form "
          "one class")


def test_criterion_4_homotopy_type_shadow():
    for n in range(1, 5):
        result = homology(boundary_cube(n + 1))
        expected = [0] * (n + 1)
        expected[0] = 1
        expected[n] += 1
        assert list(result.betti) == expected, f"sphere S^{n}"
        assert all(t == () for t in result.torsion)
    for n in range(6):
        result = homology(standard_cube(n))
        assert result.betti == (1,) + (0,) * n
        assert all(t == () for t in result.torsion)
    import math

    for d in range(4):
        result = homology(torus(d))
        assert list(result.betti) == [math.comb(d, k) for k in range(d + 1)]
        assert all(t == () for t in result.torsion)
    print("PASS criterion 4: sphere homology for boundary cubes n = 1..4, "
          "contractible cubes n <= 5, binomial torus Betti numbers d <= 3")


def test_criterion_5_chain_level_cubical_relations():
    rng = random.Random(0xC0FFEE)
    for k in range(100):
        K = random_glued_complex(rng)
        assert validate(K) == [], f"glued complex {k}"
        complex_ = chain_complex(K)
        for d in range(1, complex_.top_dim + 1):
            assert is_zero(matmul(complex_.matrix(d), complex_.matrix(d + 1))), k
    cube = standard_cube(3)
    faces = cube.face_map
    faces[(3, 1, 0, "***")] = "*0*"
    corrupted = PrecubicalSet({d: cube.cells(d) for d in range(4)}, faces)
    report = validate(corrupted)
    assert any(v.kind == "cubical-relation" and v.cell == "***" for v in report)
    print("PASS criterion 5: boundary squared vanishes on 100 random "
          "pushout gluings and the corrupted cube is caught by name")


def test_criterion_6_small_decomposition():
    for name, K in CORPUS:
        decomposition = globular_decomposition(K)
        expected = sum(K.n_cells(d) for d in range(1, K.top_dim + 1))
        assert len(decomposition.cells()) == expected, name
        for cell in decomposition.cells():
            assert corner_routes(K, cell.cube, 0) == {cell.source}, name
            assert corner_routes(K, cell.cube, 1) == {cell.target}, name
            assert cell.globe_dim == cell.cube.dim - 1
    print("PASS criterion 6: one globular cell per positive cube with "
          "order-independent corner endpoints, on the whole corpus")


def test_criterion_7_loopless_order():
    for n in range(4):
        poset = state_order(standard_cube(n))
        assert poset.pairs == frozenset(product_order_pairs(n)), n
    report = state_order(circle())
    assert isinstance(report, LoopReport)
    assert "loop" in report.cycle
    print("PASS criterion 7: cube state orders equal the product order for "
          "n <= 3 and the circle yields a loop report")


def test_criterion_8_determinism(tmp_path):
    for name, K in CORPUS:
        text = serialize(K)
        assert serialize(parse(text)) == text, name

    doc_path = tmp_path / "square.json"
    doc_path.write_text(serialize(standard_cube(2)), encoding="utf-8")
    commands = [
        ["info", str(doc_path)],
        ["states", str(doc_path)],
        ["homology", str(doc_path)],
        ["paths", str(doc_path), "--from", "00", "--to", "11"],
        ["order", str(doc_path)],
        ["globular", str(doc_path)],
        ["generate", "torus", "2"],
    ]
    for argv in commands:
        outputs = set()
        for _ in range(5):
            proc = subprocess.run(
                [sys.executable, "-m", "precubical.cli", *argv],
                capture_output=True, text=True,
            )
            assert proc.returncode == 0, argv
            json.loads(proc.stdout)  # every report is valid JSON
            outputs.add(proc.stdout)
        assert len(outputs) == 1, argv
    print("PASS criterion 8: byte-identical round trips and CLI reports "
          "stable across 5 runs")


# names only the tests used: five are conftest references now, two are gone
REMOVED = ("find_isomorphism", "isomorphic", "cube_category", "cube_words", "empty_map",
           "decomposition_report", "map_path")


def test_public_surface_is_all():
    namespace = {}
    exec("from precubical import *", namespace)
    del namespace["__builtins__"]
    assert set(namespace) == set(precubical.__all__)
    public = {name for name, value in vars(precubical).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public == set(precubical.__all__)
    assert [name for name in REMOVED if hasattr(precubical, name)] == []
    print(f"PASS public surface: import * binds exactly the {len(precubical.__all__)} "
          "names of __all__")
