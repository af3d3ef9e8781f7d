"""Command-line surface: subcommands, exit codes, report stability."""

import json
import os
import subprocess
import sys

import pytest

from precubical import boundary_cube, parse, serialize, skeleton, standard_cube, torus
from precubical import cli
from precubical.cli import main

from conftest import reference_text


@pytest.fixture()
def square_doc(tmp_path):
    path = tmp_path / "square.json"
    path.write_text(serialize(standard_cube(2)), encoding="utf-8")
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestValidateCommand:
    def test_valid_document(self, capsys, square_doc):
        code, out, _ = run(capsys, ["validate", square_doc])
        assert code == 0
        assert json.loads(out) == {"valid": True, "violations": []}

    def test_corrupted_document_exits_1(self, capsys, tmp_path):
        tree = json.loads(serialize(standard_cube(3)))
        for record in tree["faces"]:
            if record["dim"] == 3 and record["i"] == 1 and record["alpha"] == 0:
                record["value"] = "*0*"
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(tree), encoding="utf-8")
        code, out, _ = run(capsys, ["validate", str(path)])
        assert code == 1
        report = json.loads(out)
        assert report["valid"] is False
        assert any(v["kind"] == "cubical-relation" and v["cell"] == "***"
                   for v in report["violations"])

    def test_unparseable_document_exits_1(self, capsys, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("{", encoding="utf-8")
        code, _, err = run(capsys, ["validate", str(path)])
        assert code == 1
        assert "error" in err

    def test_tall_cell_without_faces_validates_in_linear_time(self, tmp_path):
        # one cell of dimension 20,000 and no face records: every face is
        # missing, so no pair of its coordinates can break a relation, and
        # validate must not walk those 2 * 10^8 pairs
        path = tmp_path / "tall.json"
        path.write_text('{"cells":{"20000":["x"]},"faces":[],"format_version":"1",'
                        '"top_dim":20000}\n', encoding="utf-8")
        proc = subprocess.run([sys.executable, "-m", "precubical.cli", "validate", str(path)],
                              capture_output=True, text=True, timeout=30)
        assert proc.returncode == 1
        report = json.loads(proc.stdout)
        assert report["valid"] is False and len(report["violations"]) == 40000
        assert {v["kind"] for v in report["violations"]} == {"missing-face"}
        assert report["violations"][-1] == {"kind": "missing-face", "dim": 20000, "cell": "x",
                                            "i": 20000, "alpha": 1}

    def test_tall_cell_over_faces_without_faces_validates_in_linear_time(self, tmp_path):
        # one 4000-cell whose 8000 faces are all y, a declared 3999-cell
        # with no face records: none of the 4000 * 3999 / 2 coordinate
        # pairs can break a relation, since y has no faces to compare.
        # Walking them took 13 s; the check takes well under one.
        d = 4000
        faces = [{"alpha": alpha, "cell": "x", "dim": d, "i": i, "value": "y"}
                 for i in range(1, d + 1) for alpha in (0, 1)]
        path = tmp_path / "tall.json"
        path.write_text(json.dumps({"cells": {str(d - 1): ["y"], str(d): ["x"]}, "faces": faces,
                                    "format_version": "1", "top_dim": d}), encoding="utf-8")
        proc = subprocess.run([sys.executable, "-m", "precubical.cli", "validate", str(path)],
                              capture_output=True, text=True, timeout=10)
        assert proc.returncode == 1
        violations = json.loads(proc.stdout)["violations"]
        assert len(violations) == 2 * (d - 1) == 7998
        assert {(v["kind"], v["cell"]) for v in violations} == {("missing-face", "y")}

    def test_repeated_label_among_many_is_named_in_linear_time(self, tmp_path):
        # naming the repeated label counted every label once per label:
        # 100,001 vertex labels took minutes
        labels = [f"v{k}" for k in range(100000)] + ["v0"]
        path = tmp_path / "wide.json"
        path.write_text(json.dumps({"cells": {"0": labels}, "faces": [], "format_version": "1",
                                    "top_dim": 0}), encoding="utf-8")
        proc = subprocess.run([sys.executable, "-m", "precubical.cli", "validate", str(path)],
                              capture_output=True, text=True, timeout=30)
        assert proc.returncode == 1 and proc.stdout == ""
        assert proc.stderr == ("error: malformed document: duplicate labels in dimension 0: "
                               "['v0']\n")


class TestReports:
    def test_info(self, capsys, square_doc):
        code, out, _ = run(capsys, ["info", square_doc])
        assert code == 0
        assert json.loads(out) == {
            "top_dim": 2,
            "cells": {"0": 4, "1": 4, "2": 1},
            "total": 9,
        }

    def test_skeleton_emits_a_document(self, capsys, square_doc):
        code, out, _ = run(capsys, ["skeleton", square_doc, "--dim", "1"])
        assert code == 0
        assert parse(out) == boundary_cube(2)

    def test_homology(self, capsys, tmp_path):
        path = tmp_path / "b3.json"
        path.write_text(serialize(boundary_cube(3)), encoding="utf-8")
        code, out, _ = run(capsys, ["homology", str(path)])
        assert code == 0
        rows = json.loads(out)
        assert rows == [
            {"dim": 0, "betti": 1, "torsion": []},
            {"dim": 1, "betti": 0, "torsion": []},
            {"dim": 2, "betti": 1, "torsion": []},
        ]

    def test_euler(self, capsys, square_doc):
        code, out, _ = run(capsys, ["euler", square_doc])
        assert json.loads(out) == {"euler_characteristic": 1}

    def test_states(self, capsys, square_doc):
        code, out, _ = run(capsys, ["states", square_doc])
        assert json.loads(out) == {"states": ["00", "01", "10", "11"]}

    def test_paths(self, capsys, square_doc):
        code, out, _ = run(capsys, ["paths", square_doc, "--from", "00", "--to", "11",
                                    "--max-len", "2"])
        assert code == 0
        report = json.loads(out)
        assert report["classes"] == [
            {"length": 2, "representative": ["*0", "1*"], "size": 2}
        ]

    def test_paths_default_bound_is_edge_count(self, capsys, square_doc):
        code, out, _ = run(capsys, ["paths", square_doc, "--from", "00", "--to", "11"])
        assert json.loads(out)["max_len"] == 4

    def test_order_on_poset(self, capsys, square_doc):
        code, out, _ = run(capsys, ["order", square_doc])
        report = json.loads(out)
        assert report["loopless"] is True
        assert ["00", "11"] in report["pairs"]

    def test_order_on_loop(self, capsys, tmp_path):
        path = tmp_path / "circle.json"
        from precubical import circle

        path.write_text(serialize(circle()), encoding="utf-8")
        code, out, _ = run(capsys, ["order", str(path)])
        assert code == 0
        report = json.loads(out)
        assert report == {"loopless": False, "cycle": ["loop"], "cycle_states": ["v"]}

    def test_globular(self, capsys, square_doc):
        code, out, _ = run(capsys, ["globular", square_doc])
        report = json.loads(out)
        assert len(report["vertices"]) == 4
        assert len(report["cells"]) == 5
        top = [c for c in report["cells"] if c["globe_dim"] == 1]
        assert top == [{"cube": "**", "dim": 2, "globe_dim": 1,
                        "source": "00", "target": "11"}]


class TestGenerateCommand:
    def test_generate_to_file_then_consume(self, capsys, tmp_path):
        out_path = tmp_path / "torus.json"
        code, out, _ = run(capsys, ["generate", "torus", "2", "-o", str(out_path)])
        assert code == 0 and out == ""
        code, out, _ = run(capsys, ["info", str(out_path)])
        assert json.loads(out)["cells"] == {"0": 1, "1": 2, "2": 1}

    def test_unknown_family_exits_2(self, capsys):
        code, _, err = run(capsys, ["generate", "klein"])
        assert code == 2
        assert "unknown family" in err

    def test_cube_25_exits_2_before_building(self, capsys):
        # 3^25 cells, about 8 * 10^11: refused from the closed-form count
        code, out, err = run(capsys, ["generate", "cube", "25"])
        assert code == 2 and out == ""
        assert err == (f"error: cube 25 would have more than {cli.MAX_GENERATED_CELLS} cells, "
                       "the most generate builds\n")

    @pytest.mark.parametrize("family, largest, cells", [
        ("cube", 10, 3 ** 10), ("boundary", 10, 3 ** 10 - 1), ("torus", 16, 2 ** 16),
        ("interval", 49999, 99999),
    ])
    def test_largest_allowed_size_is_the_bound(self, monkeypatch, family, largest, cells):
        # one size more is refused; the size itself reaches the builder
        assert cells <= cli.MAX_GENERATED_CELLS < cli._CELL_COUNTS[family](largest + 1)
        assert cli._CELL_COUNTS[family](largest) == cells
        built = []
        monkeypatch.setattr(cli, "generate", lambda family, param: built.append(param) or
                            standard_cube(0))
        assert main(["generate", family, str(largest), "-o", os.devnull]) == 0
        assert main(["generate", family, str(largest + 1), "-o", os.devnull]) == 2
        assert built == [largest]

    def test_largest_allowed_interval_generates(self, capsys, tmp_path):
        out_path = tmp_path / "interval.json"
        code, _, _ = run(capsys, ["generate", "interval", "49999", "-o", str(out_path)])
        assert code == 0
        assert parse(out_path.read_bytes()).cell_counts() == (50000, 49999)

    def test_missing_parameter_exits_2(self, capsys):
        code, _, err = run(capsys, ["generate", "cube"])
        assert code == 2


class TestExitCodes:
    def test_unknown_state_exits_2(self, capsys, square_doc):
        code, _, err = run(capsys, ["paths", square_doc, "--from", "00", "--to", "zz"])
        assert code == 2
        assert "unknown state" in err

    def test_missing_file_exits_2(self, capsys):
        code, _, err = run(capsys, ["info", "/nonexistent/never.json"])
        assert code == 2

    def test_usage_error_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["no-such-command"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("data", [b"[" * 100000, b"\xff\xfe",
                                      b'{"top_dim": ' + b"1" * 5000 + b"}"],
                             ids=["nested", "not-utf8", "long-integer"])
    def test_unreadable_document_exits_1(self, capsys, tmp_path, data):
        path = tmp_path / "unreadable.json"
        path.write_bytes(data)
        code, out, err = run(capsys, ["info", str(path)])
        assert code == 1
        assert out == ""
        assert err.startswith("error: document ") and err.count("\n") == 1


class TestStdinAndProcess:
    def test_stdin_dash(self, tmp_path):
        text = serialize(standard_cube(1))
        proc = subprocess.run(
            [sys.executable, "-m", "precubical.cli", "states", "-"],
            input=text, capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout) == {"states": ["0", "1"]}

    def test_pipeline_generate_into_homology(self):
        gen = subprocess.run(
            [sys.executable, "-m", "precubical.cli", "generate", "boundary", "3"],
            capture_output=True, text=True,
        )
        assert gen.returncode == 0
        hom = subprocess.run(
            [sys.executable, "-m", "precubical.cli", "homology", "-"],
            input=gen.stdout, capture_output=True, text=True,
        )
        assert hom.returncode == 0
        assert [row["betti"] for row in json.loads(hom.stdout)] == [1, 0, 1]

    def test_reports_newline_terminated(self, capsys, square_doc):
        for argv in (["info", square_doc], ["states", square_doc],
                     ["euler", square_doc], ["globular", square_doc]):
            _, out, _ = run(capsys, argv)
            assert out.endswith("\n")


def _cell(cube, source, target):
    return {"cube": cube, "dim": cube.count("*"), "globe_dim": cube.count("*") - 1,
            "source": source, "target": target}


SQUARE_REPORTS = [
    (["validate"], {"valid": True, "violations": []}),
    (["info"], {"top_dim": 2, "cells": {"0": 4, "1": 4, "2": 1}, "total": 9}),
    (["homology"], [
        {"dim": 0, "betti": 1, "torsion": []},
        {"dim": 1, "betti": 0, "torsion": []},
        {"dim": 2, "betti": 0, "torsion": []},
    ]),
    (["euler"], {"euler_characteristic": 1}),
    (["states"], {"states": ["00", "01", "10", "11"]}),
    (["paths", "--from", "00", "--to", "11"], {
        "from": "00", "to": "11", "max_len": 4,
        "classes": [{"length": 2, "representative": ["*0", "1*"], "size": 2}],
    }),
    (["order"], {
        "loopless": True,
        "states": ["00", "01", "10", "11"],
        "pairs": [["00", "01"], ["00", "10"], ["00", "11"], ["01", "11"], ["10", "11"]],
    }),
    (["globular"], {
        "vertices": ["00", "01", "10", "11"],
        "cells": [
            _cell("*0", "00", "10"), _cell("*1", "01", "11"),
            _cell("0*", "00", "01"), _cell("1*", "10", "11"),
            _cell("**", "00", "11"),
        ],
    }),
]


class TestReportBytes:
    """Stdout is pinned byte for byte, not just as parsed JSON."""

    @pytest.mark.parametrize("argv, expected", SQUARE_REPORTS,
                             ids=[argv[0] for argv, _ in SQUARE_REPORTS])
    def test_square_report(self, capsys, square_doc, argv, expected):
        code, out, err = run(capsys, [argv[0], square_doc] + argv[1:])
        assert (code, err) == (0, "")
        assert out == json.dumps(expected, indent=2, sort_keys=True) + "\n"

    @pytest.mark.parametrize("K, argv, max_len, classes", [
        (standard_cube(3), ["--from", "000", "--to", "111"], 12,
         [(3, ["*00", "1*0", "11*"], 6)]),
        (torus(2), ["--from", "v|v", "--to", "v|v", "--max-len", "3"], 3, [
            (1, ["loop|v"], 1), (1, ["v|loop"], 1),
            (2, ["loop|v", "loop|v"], 1), (2, ["loop|v", "v|loop"], 2),
            (2, ["v|loop", "v|loop"], 1),
            (3, ["loop|v", "loop|v", "loop|v"], 1), (3, ["loop|v", "loop|v", "v|loop"], 3),
            (3, ["loop|v", "v|loop", "v|loop"], 3), (3, ["v|loop", "v|loop", "v|loop"], 1),
        ]),
    ], ids=["cube3-corners", "torus2"])
    def test_paths_report(self, capsys, tmp_path, K, argv, max_len, classes):
        path = tmp_path / "complex.json"
        path.write_text(serialize(K), encoding="utf-8")
        code, out, err = run(capsys, ["paths", str(path)] + argv)
        assert (code, err) == (0, "")
        expected = {
            "from": argv[1], "to": argv[3], "max_len": max_len,
            "classes": [{"length": n, "representative": rep, "size": size}
                        for n, rep, size in classes],
        }
        assert out == json.dumps(expected, indent=2, sort_keys=True) + "\n"

    def test_skeleton(self, capsys, square_doc):
        code, out, _ = run(capsys, ["skeleton", square_doc, "--dim", "1"])
        assert code == 0
        assert out == reference_text(skeleton(standard_cube(2), 1))

    def test_generate(self, capsys):
        code, out, _ = run(capsys, ["generate", "cube", "2"])
        assert code == 0
        assert out == reference_text(standard_cube(2))


class TestInternalErrors:
    def test_key_error_is_not_a_usage_error(self, monkeypatch, square_doc):
        def broken(K):
            raise KeyError("internal")

        monkeypatch.setattr(cli, "euler_characteristic", broken)
        with pytest.raises(KeyError):
            main(["euler", square_doc])


def test_cli_import_leaves_numpy_unloaded():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, precubical.cli; print('numpy' in sys.modules)"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_cli_import_leaves_dataclasses_and_inspect_unloaded():
    """Every CLI command is a process of its own, so the import is on its
    clock; dataclasses would load inspect, ast, dis and tokenize, and
    generate the methods of each decorated class at import."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    proc = subprocess.run(
        [sys.executable, "-S", "-c",
         "import sys, precubical.cli; print(precubical.cli.__file__); "
         "print(sorted(m for m in ('dataclasses', 'inspect') if m in sys.modules))"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src),
    )
    assert proc.returncode == 0, proc.stderr
    path, loaded = proc.stdout.splitlines()
    assert path.startswith(src + os.sep)
    assert loaded == "[]"
