"""The benchmark's four workloads: seeded job lists, inputs and answer checks.

Each workload is two functions.  specs(rng) draws the job list, a list of
JSON-able dicts in pass order, from the seeded random generator; the same
seed gives the same list.  build(specs, rec) is the set-up: it makes every
input the jobs need and returns one Job per spec.  Job.run holds the
library calls that are timed; Job.check compares the outcome with the
answer from oracles.py and returns None, or a reason when it differs.

A pass of an in-process workload mixes sizes over more than a decade of
cells, so that growth shows, up to a largest job of 1 to 2 s (2-core
machine, seed commit).  The median of build-roundtrip and flow falls in
the middle of a block of seven jobs of one size (5-cube round trips;
path classes between the corners of cube 5), with no job of a nearby
time on either side, and that of homology among the 5-cube sizes, each
there twice: a run's median then stays with that block whatever the
seed, instead of jumping from one size to the next.  The cli pass is 40
processes on documents of at most 729 cells.  The seed draws the random
gluings, wedges, labels and corruptions and the order of a pass, not the
share of each size, so every seed gives the same mix and runs of
different seeds compare.
"""

from __future__ import annotations

import json
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from typing import Callable

import precubical as pc

import oracles


@dataclass
class Job:
    spec: dict
    run: Callable[[], object]
    check: Callable[[object], "str | None"]


def shuffled(rng: random.Random, specs: list) -> list:
    specs = list(specs)
    rng.shuffle(specs)
    return specs


def _expect(ok: bool, reason: str) -> "str | None":
    return None if ok else reason


# --- seeded generators ---------------------------------------------------

def klein_bottle() -> pc.PrecubicalSet:
    """One vertex, two loops a and b, one square s with
    d[1,0]s = d[2,1]s = a and d[1,1]s = d[2,0]s = b; H = (Z, Z + Z/2, 0)."""
    faces = {(1, 1, alpha, e): "v" for e in ("a", "b") for alpha in (0, 1)}
    faces.update({(2, 1, 0, "s"): "a", (2, 2, 1, "s"): "a",
                  (2, 1, 1, "s"): "b", (2, 2, 0, "s"): "b"})
    return pc.PrecubicalSet({0: ["v"], 1: ["a", "b"], 2: ["s"]}, faces)


def circle_wedge(labels) -> pc.PrecubicalSet:
    """One vertex v with one loop per label."""
    faces = {(1, 1, alpha, e): "v" for e in labels for alpha in (0, 1)}
    return pc.PrecubicalSet({0: ["v"], 1: list(labels)}, faces)


def edge_labels(rng: random.Random, k: int) -> list[str]:
    labels: set[str] = set()
    while len(labels) < k:
        labels.add(f"e{rng.randrange(36 ** 4):x}")
    return sorted(labels)


def glue_spec(rng: random.Random, target: int) -> dict:
    """A random gluing of 2 to 6 cubes of dimension 1 to 5, each new cube
    attached along one of its m-faces (m < its dimension) to an m-cell of
    what is built so far, with between 0.9 and 1.1 times target cells, so
    that a gluing's cost varies little from seed to seed."""
    while True:
        dims = [rng.randint(1, 5) for _ in range(rng.randint(2, 6))]
        pieces = [(dims[0], None)]
        steps = []
        for n in dims[1:]:
            counts = oracles.glued_counts(pieces)
            m = rng.randint(0, min(n - 1, len(counts) - 1))
            stars = set(rng.sample(range(n), m))
            face = "".join("*" if p in stars else rng.choice("01") for p in range(n))
            steps.append([n, m, face, rng.randrange(counts[m])])
            pieces.append((n, m))
        counts = oracles.glued_counts(pieces)
        if 0.9 * target <= sum(counts) <= 1.1 * target:
            return {"kind": "glue", "first": dims[0], "steps": steps, "counts": counts}


def _substitute(face: str, word: str) -> str:
    letters = iter(word)
    return "".join(next(letters) if ch == "*" else ch for ch in face)


def glue(spec: dict) -> pc.PrecubicalSet:
    """Carry out a glue_spec with pushouts of the library."""
    K = pc.standard_cube(spec["first"])
    for n, m, face, index in spec["steps"]:
        L = pc.standard_cube(m)
        M = pc.standard_cube(n)
        target = pc.CellId(m, K.cells(m)[index])
        words = [(d, w) for d in range(m + 1) for w in L.cells(d)]
        f = pc.PcsMap(L, K, {(d, w): pc.apply_cube_map(K, target, w).label for d, w in words})
        g = pc.PcsMap(L, M, {(d, w): _substitute(face, w) for d, w in words})
        K = pc.pushout(f, g)
    return K


def corrupt(text: str, mode: str, pick: int):
    """Drop one face record ("missing") or point it at an undeclared label
    ("dangling"); returns the new document and the one violation expected,
    as (kind, dim, cell, i, alpha)."""
    tree = json.loads(text)
    records = tree["faces"]
    index = pick % len(records)
    record = records[index]
    expected = (f"{mode}-face", record["dim"], record["cell"], record["i"], record["alpha"])
    if mode == "missing":
        del records[index]
    else:
        record["value"] = f"undeclared-{pick}"
    return json.dumps(tree, indent=2, sort_keys=True) + "\n", expected


def violation_key(v) -> tuple:
    return (v.kind, v.dim, v.cell, v.i, v.alpha)


# --- build-roundtrip -----------------------------------------------------

def roundtrip_specs(rng: random.Random) -> list[dict]:
    def broken(bases):
        return [
            {"kind": "corrupt", "base": base, "mode": rng.choice(["missing", "dangling"]),
             "pick": rng.randrange(10 ** 6)}
            for base in bases
        ]

    def ladder(low, high, count):
        return [glue_spec(rng, round(low * (high / low) ** (k / (count - 1))))
                for k in range(count)]

    # 9 jobs well below the 5-cube round trip (at most 120 cells), 7 round
    # trips of 5-cube sizes in the middle, and 9 jobs well above (at least
    # 450 cells): the median falls in the middle of the 5-cube block on every
    # seed, and no gluing, whose size the seed draws, lies next to it
    below = ([{"kind": kind, "n": 4} for kind in ("cube", "boundary")] + ladder(40, 120, 5)
             + broken([{"kind": "cube", "n": 4}, glue_spec(rng, 100)]))
    middle = [{"kind": kind, "n": 5} for kind in ("cube", "boundary") * 3 + ("cube",)]
    above = ([{"kind": "cube", "n": 6}, {"kind": "boundary", "n": 6}, {"kind": "cube", "n": 7}]
             + ladder(450, 1000, 5) + broken([{"kind": "cube", "n": 6}]))
    return shuffled(rng, below + middle + above)


def _construct(spec: dict) -> pc.PrecubicalSet:
    if spec["kind"] == "cube":
        return pc.standard_cube(spec["n"])
    if spec["kind"] == "boundary":
        return pc.boundary_cube(spec["n"])
    return glue(spec)


def _counts(spec: dict) -> list[int]:
    if spec["kind"] == "cube":
        return oracles.cube_counts(spec["n"])
    if spec["kind"] == "boundary":
        return oracles.boundary_counts(spec["n"])
    return spec["counts"]


def roundtrip_build(specs, rec) -> list[Job]:
    jobs = []
    for spec in specs:
        if spec["kind"] == "corrupt":
            with rec.span("core.build"):
                base = _construct(spec["base"])
            text, expected = corrupt(pc.serialize(base), spec["mode"], spec["pick"])
            jobs.append(Job(spec, _parse_broken(text), _check_broken(expected)))
        else:
            jobs.append(Job(spec, _roundtrip(spec, rec), _check_roundtrip(_counts(spec))))
    return jobs


def _roundtrip(spec, rec):
    def run():
        with rec.span("core.build"):
            K = _construct(spec)
        violations = pc.validate(K)
        text = pc.serialize(K)
        again = pc.serialize(pc.parse(text, check=True))
        return list(K.cell_counts()), violations, text == again
    return run


def _check_roundtrip(counts):
    def check(outcome):
        got, violations, same = outcome
        return (_expect(got == counts, f"cell counts {got} != {counts}")
                or _expect(not violations, f"valid complex reported {violations[:1]}")
                or _expect(same, "re-serializing the parsed document changed its bytes"))
    return check


def _parse_broken(text):
    def run():
        try:
            pc.parse(text, check=True)
        except pc.FormatError as exc:
            return exc
        return None
    return run


def _check_broken(expected):
    def check(outcome):
        if not isinstance(outcome, pc.FormatError):
            return f"corrupted document was accepted, expected {expected}"
        got = [violation_key(v) for v in outcome.violations]
        return _expect(got == [expected], f"violations {got} != [{expected}]")
    return check


# --- homology ------------------------------------------------------------

def _factor(spec):
    """(complex, homology answer) of a named factor."""
    kind, *args = spec
    if kind == "boundary":
        return pc.boundary_cube(args[0]), oracles.sphere(args[0])
    if kind == "cube":
        return pc.standard_cube(args[0]), oracles.point(args[0])
    if kind == "spheres":
        a, b = args
        return (pc.tensor(pc.boundary_cube(a), pc.boundary_cube(b)),
                oracles.kunneth(oracles.sphere(a), oracles.sphere(b)))
    if kind == "klein":
        K, H = klein_bottle(), oracles.KLEIN
        for _ in range(args[0] - 1):
            K, H = pc.tensor(K, klein_bottle()), oracles.kunneth(H, oracles.KLEIN)
        return K, H
    if kind == "klein-sphere":
        return (pc.tensor(klein_bottle(), pc.boundary_cube(args[0])),
                oracles.kunneth(oracles.KLEIN, oracles.sphere(args[0])))
    raise ValueError(f"unknown factor {kind!r}")


def _wedge(X, Y, mode, pick_x, pick_y):
    """Pushout of X and Y along a vertex, or along an edge with two distinct
    endpoints, chosen by pick_x and pick_y."""
    if mode == "vertex":
        L = pc.standard_cube(0)
        f = pc.PcsMap(L, X, {(0, ""): X.cells(0)[pick_x % X.n_cells(0)]})
        g = pc.PcsMap(L, Y, {(0, ""): Y.cells(0)[pick_y % Y.n_cells(0)]})
        return pc.pushout(f, g)

    def edge_map(K, pick):
        edges = [e for e in K.cells(1) if K.face_label(1, e, 1, 0) != K.face_label(1, e, 1, 1)]
        e = edges[pick % len(edges)]
        return {(0, "0"): K.face_label(1, e, 1, 0), (0, "1"): K.face_label(1, e, 1, 1), (1, "*"): e}

    L = pc.standard_cube(1)
    return pc.pushout(pc.PcsMap(L, X, edge_map(X, pick_x)), pc.PcsMap(L, Y, edge_map(Y, pick_y)))


def homology_specs(rng: random.Random) -> list[dict]:
    def of(factor, count):
        return [{"kind": "factor", "factor": factor} for _ in range(count)]

    def wedges(pool, count):
        out = []
        for _ in range(count):
            x, y = rng.choice(pool), rng.choice(pool)
            # every edge of a Klein-bottle power is a loop
            edge_ok = "klein" not in (x[0], y[0])
            mode = rng.choice(["vertex", "edge"]) if edge_ok else "vertex"
            out.append({"kind": "wedge", "mode": mode, "x": x, "y": y,
                        "pick_x": rng.randrange(10 ** 6), "pick_y": rng.randrange(10 ** 6)})
        return out

    small_pool = [["boundary", 3], ["boundary", 4], ["klein", 2], ["klein-sphere", 2],
                  ["klein-sphere", 3], ["spheres", 2, 2]]
    medium_pool = [["boundary", 5], ["klein", 4], ["klein-sphere", 4], ["spheres", 2, 3]]
    # sorted by time: 8 small jobs, 10 jobs of 200 to 320 cells (each
    # middle size twice, so that the median pools many samples), 3 wedges
    # whose size the seed draws, and 5 large jobs around the 90th
    # percentile, the fifth Klein-bottle power the largest
    middle = [["boundary", 5], ["cube", 5], ["klein", 4], ["klein-sphere", 4]]
    factors = ([["boundary", n] for n in (3, 4, 6)] + [["cube", n] for n in (4, 6)]
               + [["spheres", 2, 2], ["spheres", 2, 3], ["spheres", 3, 2]]
               + [["spheres", 2, 4], ["spheres", 3, 3]]
               + [["klein", p] for p in (2, 3, 5)] + [["klein-sphere", 3]] + middle + middle)
    return shuffled(rng, [{"kind": "factor", "factor": f} for f in factors]
                    + wedges(small_pool, 1) + wedges(medium_pool, 3))


def homology_build(specs, rec) -> list[Job]:
    built: dict[str, tuple] = {}

    def factor(spec):
        key = json.dumps(spec)
        if key not in built:
            with rec.span("core.build"):
                built[key] = _factor(spec)
        return built[key]

    jobs = []
    for spec in specs:
        if spec["kind"] == "factor":
            K, H = factor(spec["factor"])
        else:
            (X, HX), (Y, HY) = factor(spec["x"]), factor(spec["y"])
            with rec.span("core.build"):
                K = _wedge(X, Y, spec["mode"], spec["pick_x"], spec["pick_y"])
            H = oracles.wedge(HX, HY)
        jobs.append(Job(spec, (lambda K=K: pc.homology(K)), _check_homology(H)))
    return jobs


def _check_homology(H):
    betti = tuple(r for r, _ in H)
    torsion = tuple(t for _, t in H)

    def check(result):
        return (_expect(result.betti == betti, f"betti {result.betti} != {betti}")
                or _expect(result.torsion == torsion, f"torsion {result.torsion} != {torsion}"))
    return check


# --- flow ----------------------------------------------------------------

def flow_specs(rng: random.Random) -> list[dict]:
    def wedge(k, l):
        return {"kind": "wedge", "k": k, "max_len": l, "labels": edge_labels(rng, k)}

    def torus(d, l):
        return {"kind": "torus", "d": d, "max_len": l}

    # 12 jobs of at most half a 5-cube corner job, 7 of those corner jobs
    # (one class of 120 paths) in the middle, so that the median falls in
    # their block, and 12 jobs of at least four times as long, up to all
    # saturation (the corners of cube 7, one class of 5040 paths) and 5460
    # singleton classes (a 4-circle wedge up to length 6)
    jobs = [wedge(k, l) for k, l in ((2, 5), (2, 6), (3, 4), (3, 6), (4, 5), (4, 6))]
    jobs += [torus(2, l) for l in (6, 9)] + [torus(3, l) for l in (4, 6, 7, 8)]
    jobs += [{"kind": "corner", "n": n} for n in (5,) * 7 + (6, 7)]
    jobs += [{"kind": "morphisms", "n": n} for n in (3, 4, 5)]
    jobs += [{"kind": "order", "n": n} for n in (5, 6)]
    jobs += [{"kind": "globular", "n": n} for n in (5, 7)]
    jobs += [{"kind": "loop", "d": 2}, {"kind": "loop-wedge", "labels": edge_labels(rng, 3)},
             {"kind": "globular-torus", "d": 3}]
    return shuffled(rng, jobs)


def flow_build(specs, rec) -> list[Job]:
    cache: dict = {}

    def complex_(key, make):
        if key not in cache:
            with rec.span("core.build"):
                cache[key] = make()
        return cache[key]

    def cube(n):
        return complex_(("cube", n), lambda: pc.standard_cube(n))

    def torus(d):
        return complex_(("torus", d), lambda: pc.torus(d))

    jobs = []
    for spec in specs:
        kind = spec["kind"]
        if kind in ("wedge", "loop-wedge"):
            W = complex_(("wedge",) + tuple(spec["labels"]), lambda: circle_wedge(spec["labels"]))
        if kind == "wedge":
            k, l = spec["k"], spec["max_len"]
            run = (lambda W=W, l=l: pc.enumerate_path_classes(W, "v", "v", l))
            check = _check_wedge_classes(oracles.wedge_class_lengths(k, l))
        elif kind == "corner":
            n = spec["n"]
            run = (lambda K=cube(n), n=n: pc.enumerate_path_classes(K, "0" * n, "1" * n, n))
            check = _check_corner(n)
        elif kind == "torus":
            d, l = spec["d"], spec["max_len"]
            v = "|".join(["v"] * d)
            run = (lambda T=torus(d), v=v, l=l: pc.enumerate_path_classes(T, v, v, l))
            check = _check_torus(oracles.torus_class_sizes(d, l))
        elif kind == "morphisms":
            n = spec["n"]
            run = (lambda K=cube(n), n=n: pc.count_flow_morphisms(K, n))
            check = (lambda got, want=oracles.cube_pairs(n):
                     _expect(got == want, f"morphisms {got} != {want}"))
        elif kind == "order":
            n = spec["n"]
            run = (lambda K=cube(n): pc.state_order(K))
            check = _check_order(oracles.cube_order_pairs(n))
        elif kind in ("loop", "loop-wedge"):
            K = torus(spec["d"]) if kind == "loop" else W
            run = (lambda K=K: pc.state_order(K))
            check = _check_loop(K.cells(0)[0], set(K.cells(1)))
        elif kind == "globular":
            n = spec["n"]
            run = (lambda K=cube(n): pc.globular_decomposition(K))
            check = _check_globular(sum(oracles.cube_counts(n)) - 2 ** n, None)
        elif kind == "globular-torus":
            d = spec["d"]
            run = (lambda T=torus(d): pc.globular_decomposition(T))
            check = _check_globular(2 ** d - 1, "|".join(["v"] * d))
        else:
            raise ValueError(f"unknown flow job {kind!r}")
        jobs.append(Job(spec, run, check))
    return jobs


def _check_wedge_classes(lengths):
    want = sum(lengths.values())

    def check(classes):
        got = {}
        for c in classes:
            got[c.length] = got.get(c.length, 0) + 1
        return (_expect(len(classes) == want, f"{len(classes)} classes != {want}")
                or _expect(all(len(c.members) == 1 for c in classes), "a class has two paths")
                or _expect(got == dict(lengths), f"classes per length {got} != {dict(lengths)}")
                or _expect(len({c.representative for c in classes}) == want, "repeated class"))
    return check


def _check_corner(n):
    staircase = tuple("1" * (k - 1) + "*" + "0" * (n - k) for k in range(1, n + 1))

    def check(classes):
        return (_expect(len(classes) == 1, f"{len(classes)} classes != 1")
                or _expect(len(classes[0].members) == math.factorial(n),
                           f"{len(classes[0].members)} members != {n}!")
                or _expect(classes[0].representative == staircase, "wrong representative"))
    return check


def _check_torus(sizes):
    def check(classes):
        got: dict[int, list[int]] = {}
        for c in classes:
            got.setdefault(c.length, []).append(len(c.members))
        got = {j: sorted(s) for j, s in got.items()}
        return _expect(got == sizes, "class sizes differ from the multinomial counts")
    return check


def _check_order(pairs):
    want = {tuple(p) for p in pairs}

    def check(result):
        if not isinstance(result, pc.StatePoset):
            return f"expected a StatePoset, got {type(result).__name__}"
        return _expect(result.pairs == want, f"{len(result.pairs)} pairs != {len(want)}")
    return check


def _check_loop(vertex, edges):
    def check(result):
        if not isinstance(result, pc.LoopReport):
            return f"expected a LoopReport, got {type(result).__name__}"
        return (_expect(len(result.cycle) >= 1 and set(result.cycle) <= edges, "bad cycle")
                or _expect(set(result.states) == {vertex}, f"cycle states {result.states}"))
    return check


def _check_globular(cells, vertex):
    def check(result):
        got = result.cells()
        if len(got) != cells:
            return f"{len(got)} globular cells != {cells}"
        for cell in got:
            if vertex is None:
                ends = (oracles.cube_corner(cell.cube.label, 0), oracles.cube_corner(cell.cube.label, 1))
            else:
                ends = (vertex, vertex)
            if (cell.source, cell.target) != ends or cell.globe_dim != cell.cube.dim - 1:
                return f"globular cell {cell} has the wrong endpoints or dimension"
        return None
    return check


# --- cli -----------------------------------------------------------------

def cli_specs(rng: random.Random) -> list[dict]:
    def job(*args, code=0):
        return {"args": list(args), "doc": None if args[0] == "generate" else args[1], "code": code}

    small = [
        job("generate", "cube", "4"), job("generate", "torus", "2"),
        job("info", "cube3"), job("info", "torus3"),
        job("validate", "cube4"), job("validate", "klein"),
        job("validate", "broken-missing", code=1), job("validate", "broken-dangling", code=1),
        job("homology", "boundary4"), job("homology", "klein"), job("homology", "torus2"),
        job("euler", "torus3"), job("states", "cube4"), job("states", "torus2"),
        job("order", "torus2"), job("order", "wedge3"),
        job("paths", "cube4", "--from", "0000", "--to", "1111"),
        job("paths", "torus2", "--from", "v|v", "--to", "v|v", "--max-len", "4"),
        job("paths", "wedge3", "--from", "v", "--to", "v", "--max-len", "3"),
        job("paths", "cube4", "--from", "nowhere", "--to", "1111", code=2),
        job("globular", "cube4"), job("globular", "torus3"),
        job("info", "broken-dangling", code=1),
    ]
    medium = [
        job("generate", "boundary", "5"), job("info", "cube5"), job("info", "glued"),
        job("validate", "glued"), job("homology", "cube5"), job("homology", "boundary5"),
        job("homology", "glued"), job("euler", "cube5"), job("order", "cube5"),
        job("paths", "cube5", "--from", "00000", "--to", "11111"), job("skeleton", "cube5", "--dim", "2"),
    ]
    large = [
        job("generate", "cube", "6"), job("info", "cube6"), job("validate", "cube6"),
        job("order", "cube6"), job("globular", "cube6"), job("skeleton", "cube6", "--dim", "3"),
    ]
    docs = {
        "glued": glue_spec(rng, 250),
        "wedge3": edge_labels(rng, 3),
        "broken-missing": {"mode": "missing", "pick": rng.randrange(10 ** 6)},
        "broken-dangling": {"mode": "dangling", "pick": rng.randrange(10 ** 6)},
    }
    return [{"documents": docs}] + shuffled(rng, small + medium + large)


def _doc_complexes(docs) -> dict:
    """name -> (complex, cell counts, homology answer or None)."""
    out = {}
    for n in (3, 4, 5, 6):
        out[f"cube{n}"] = (pc.standard_cube(n), oracles.cube_counts(n), oracles.point(n))
    for n in (4, 5):
        out[f"boundary{n}"] = (pc.boundary_cube(n), oracles.boundary_counts(n), oracles.sphere(n))
    out["torus2"] = (pc.torus(2), [1, 2, 1], oracles.kunneth(oracles.sphere(2), oracles.sphere(2)))
    out["torus3"] = (pc.torus(3), [1, 3, 3, 1], None)
    out["klein"] = (klein_bottle(), [1, 2, 1], oracles.KLEIN)
    out["wedge3"] = (circle_wedge(docs["wedge3"]), [1, 3], None)
    glued = docs["glued"]
    out["glued"] = (glue(glued), glued["counts"], oracles.point(len(glued["counts"]) - 1))
    return out


def cli_build(specs, rec, workdir) -> list[Job]:
    docs = specs[0]["documents"]
    with rec.span("core.build"):
        complexes = _doc_complexes(docs)
    paths = {}
    texts = {}
    for name, (K, _, _) in complexes.items():
        texts[name] = pc.serialize(K)
    broken = {
        "broken-missing": corrupt(texts["cube4"], **docs["broken-missing"]),
        "broken-dangling": corrupt(texts["cube5"], **docs["broken-dangling"]),
    }
    for name, text in list(texts.items()) + [(n, t) for n, (t, _) in broken.items()]:
        paths[name] = os.path.join(workdir, f"{name}.json")
        with open(paths[name], "w", encoding="utf-8") as handle:
            handle.write(text)
    jobs = []
    for spec in specs[1:]:
        args = [paths.get(a, a) for a in spec["args"]]
        answer = _cli_answer(spec, complexes, {n: e for n, (_, e) in broken.items()})
        jobs.append(Job(spec, _child(args), _check_child(spec["code"], answer)))
    return jobs


def _child(args):
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    argv = [sys.executable, "-m", "precubical.cli"] + args

    def run():
        return subprocess.run(argv, cwd=root, env=env, capture_output=True, text=True, timeout=120)
    return run


def _check_child(code, answer):
    def check(proc):
        if proc.returncode != code:
            return f"exit code {proc.returncode} != {code}: {proc.stderr.strip()[:200]}"
        return answer(proc.stdout)
    return check


def _json_answer(want):
    def answer(stdout):
        try:
            got = json.loads(stdout)
        except ValueError:
            return f"stdout is not JSON: {stdout[:80]!r}"
        return want(got)
    return answer


def _cli_answer(spec, complexes, broken):
    """A function from the child's stdout to None or a reason."""
    command, rest = spec["args"][0], spec["args"][1:]
    if spec["code"] != 0 and command != "validate":
        return lambda stdout: _expect(stdout == "", "a failing command wrote a report")
    if command == "generate":
        family, n = rest[0], int(rest[1])
        if family == "torus":
            return _json_answer(lambda got: _check_document(got, [1, 2, 1], torus=True))
        counts = {"cube": oracles.cube_counts, "boundary": oracles.boundary_counts}[family](n)
        return _json_answer(lambda got: _check_document(got, counts))
    name = spec["doc"]
    if name in broken:
        kind, dim, cell, i, alpha = broken[name]
        want = [{"kind": kind, "dim": dim, "cell": cell, "i": i, "alpha": alpha}]
        return _json_answer(lambda got: _expect(
            got.get("valid") is False
            and [{k: v.get(k) for k in want[0]} for v in got.get("violations", [])] == want,
            f"validate report {got} does not name exactly {want}"))
    K, counts, H = complexes[name]
    vertices = sorted(K.cells(0))
    if command == "info":
        want = {"top_dim": len(counts) - 1, "cells": {str(d): c for d, c in enumerate(counts)},
                "total": sum(counts)}
        return _json_answer(lambda got: _expect(got == want, f"info {got} != {want}"))
    if command == "validate":
        want = {"valid": True, "violations": []}
        return _json_answer(lambda got: _expect(got == want, f"validate {got} != {want}"))
    if command == "homology":
        want = [{"dim": d, "betti": r, "torsion": list(t)} for d, (r, t) in enumerate(H)]
        return _json_answer(lambda got: _expect(got == want, f"homology {got} != {want}"))
    if command == "euler":
        want = {"euler_characteristic": oracles.euler(counts)}
        return _json_answer(lambda got: _expect(got == want, f"euler {got} != {want}"))
    if command == "states":
        return _json_answer(lambda got: _expect(got == {"states": vertices}, f"states {got}"))
    if command == "order":
        if name.startswith("cube"):
            n = int(name[4:])
            want = {"loopless": True, "states": vertices, "pairs": oracles.cube_order_pairs(n)}
            return _json_answer(lambda got: _expect(got == want, "order report differs"))
        edges = set(K.cells(1))
        return _json_answer(lambda got: _expect(
            got.get("loopless") is False and got.get("cycle_states") == vertices
            and 1 <= len(got.get("cycle", [])) and set(got["cycle"]) <= edges,
            f"order on a looped complex gave {got}"))
    if command == "paths":
        if name.startswith("cube"):
            n = int(name[4:])
            staircase = ["1" * (k - 1) + "*" + "0" * (n - k) for k in range(1, n + 1)]
            want = {"from": "0" * n, "to": "1" * n, "max_len": counts[1],
                    "classes": [{"length": n, "representative": staircase,
                                 "size": math.factorial(n)}]}
            return _json_answer(lambda got: _expect(got == want, "cube paths report differs"))
        max_len = int(rest[rest.index("--max-len") + 1])
        if name == "torus2":
            sizes = oracles.torus_class_sizes(2, max_len)
        else:
            sizes = {j: [1] * c for j, c in oracles.wedge_class_lengths(3, max_len).items()}

        def paths_ok(got):
            by_length: dict[int, list[int]] = {}
            for c in got.get("classes", []):
                by_length.setdefault(c["length"], []).append(c["size"])
            return _expect({j: sorted(s) for j, s in by_length.items()} == sizes
                           and got.get("max_len") == max_len, "path classes differ")
        return _json_answer(paths_ok)
    if command == "globular":
        def globular_ok(got):
            cells = got.get("cells", [])
            if got.get("vertices") != vertices or len(cells) != sum(counts) - counts[0]:
                return "globular ledger has the wrong size"
            for c in cells:
                ends = ((oracles.cube_corner(c["cube"], 0), oracles.cube_corner(c["cube"], 1))
                        if name.startswith("cube") else (vertices[0], vertices[0]))
                if (c["source"], c["target"]) != ends or c["globe_dim"] != c["dim"] - 1:
                    return f"globular cell {c} is wrong"
            return None
        return _json_answer(globular_ok)
    if command == "skeleton":
        k = int(rest[rest.index("--dim") + 1])
        return _json_answer(lambda got: _check_document(got, counts[: k + 1]))
    raise ValueError(f"no answer for {spec}")


def _check_document(tree, counts, torus=False):
    """A generated cube, boundary, skeleton of a cube or torus document: cell
    counts, and every face record against the face rule of its family."""
    face, dim = ((oracles.torus_face, oracles.torus_dim) if torus
                 else (oracles.cube_face, oracles.cube_dim))
    cells = {d: len(v) for d, v in tree.get("cells", {}).items()}
    want = {str(d): c for d, c in enumerate(counts)}
    faces = tree.get("faces", [])
    keys = {(r["dim"], r["cell"], r["i"], r["alpha"]) for r in faces}
    bad = [r for r in faces
           if r["dim"] != dim(r["cell"]) or r["value"] != face(r["cell"], r["i"], r["alpha"])]
    return (_expect(tree.get("format_version") == "1", "wrong format version")
            or _expect(tree.get("top_dim") == len(counts) - 1, "wrong top_dim")
            or _expect(cells == want, f"document cells {cells} != {want}")
            or _expect(len(keys) == len(faces) == oracles.total_faces(counts),
                       "wrong number of face records")
            or _expect(not bad, f"wrong face record {bad[:1]}"))


def table(workdir: str) -> dict:
    """Workload name -> (specs, build); cli documents are written to workdir."""
    return {
        "build-roundtrip": (roundtrip_specs, roundtrip_build),
        "homology": (homology_specs, homology_build),
        "flow": (flow_specs, flow_build),
        "cli": (cli_specs, lambda specs, rec: cli_build(specs, rec, workdir)),
    }
