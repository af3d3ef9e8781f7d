"""Smoke check of the benchmark itself.

    python3 perfbench/smoke.py [--seed N]

Runs one pass of every workload on a seed and requires every oracle to
accept the library's answers.  Then plants wrong answers and requires the
benchmark to count them as failures: library functions are replaced with
versions that flip a Betti number, drop a path class, miscount morphisms,
accept corrupted documents or change serialized bytes, and for the cli
workload every child's report is altered before it is checked.  Also checks
that a seed always gives the same job list.  Exits 1 on the first problem.
"""

from __future__ import annotations

import argparse
import json
import random
import subprocess
import sys

import run


def fail(message: str):
    raise SystemExit(f"FAIL {message}")


def one_pass(jobs, rec):
    times, _, failures = run.run_jobs(jobs, rec, lambda elapsed, done: done >= len(jobs))
    return times, failures


def _mutate(value):
    """Change the first number, or else the first string or truth value, in
    a JSON tree."""
    change = {int: lambda n: n + 1, str: lambda t: t + "x", bool: lambda b: not b}
    for want in (int, str, bool):
        stack = [(None, None, value)]
        while stack:
            holder, key, node = stack.pop(0)
            if holder is not None and type(node) is want:
                holder[key] = change[want](node)
                return value
            if isinstance(node, dict):
                stack[:0] = [(node, k, v) for k, v in node.items()]
            elif isinstance(node, list):
                stack[:0] = [(node, i, v) for i, v in enumerate(node)]
    return value


def altered(proc):
    """The child's result with its report or its exit code made wrong."""
    if proc.stdout.strip():
        stdout = json.dumps(_mutate(json.loads(proc.stdout)))
        return subprocess.CompletedProcess(proc.args, proc.returncode, stdout, proc.stderr)
    return subprocess.CompletedProcess(proc.args, 0 if proc.returncode else 1, "", proc.stderr)


def main() -> int:
    parser = argparse.ArgumentParser(description="smoke check of the benchmark")
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()
    run.load_library()
    import precubical as pc
    import spans
    import workloads as W

    rec = spans.Recorder()
    workdir = run.make_workdir()

    def flip_betti(homology):
        def wrong(K):
            result = homology(K)
            return pc.HomologyResult((result.betti[0] + 1,) + result.betti[1:], result.torsion)
        return wrong

    calls = {"serialize": 0}

    def every_other_serialize(serialize):
        def wrong(K):
            calls["serialize"] += 1
            return serialize(K) + (" " if calls["serialize"] % 2 else "")
        return wrong

    plants = {
        "build-roundtrip": [
            ("validate accepts every complex", pc.validate, lambda f: (lambda K: [])),
            ("serialize adds a space every other call", pc.serialize, every_other_serialize),
        ],
        "homology": [("betti_0 is one too high", pc.homology, flip_betti)],
        "flow": [
            ("the last path class is dropped", pc.enumerate_path_classes,
             lambda f: (lambda *a, **k: f(*a, **k)[:-1])),
            ("morphism count is one too high", pc.count_flow_morphisms,
             lambda f: (lambda *a, **k: f(*a, **k) + 1)),
        ],
    }

    try:
        for name, (make_specs, build) in W.table(workdir).items():
            first, again, other = (run.digest(make_specs(random.Random(s)))
                                   for s in (args.seed, args.seed, args.seed + 1))
            if first != again:
                fail(f"{name}: seed {args.seed} gave two different job lists")
            if first == other:
                fail(f"{name}: seeds {args.seed} and {args.seed + 1} gave the same job list")

            jobs = build(make_specs(random.Random(args.seed)), rec)
            times, failures = one_pass(jobs, rec)
            if failures:
                fail(f"{name}: oracle rejected a right answer: {failures[0]}")
            print(f"PASS {name}: every oracle accepts the answers of {len(times)} jobs")

            for label, original, make_wrong in plants.get(name, []):
                patches = spans.patch_everywhere(original, make_wrong(original))
                try:
                    times, failures = one_pass(jobs, rec)
                finally:
                    spans.restore(patches)
                if not failures:
                    fail(f"{name}: planted wrong answer went unnoticed ({label})")
                print(f"PASS {name}: planted '{label}' gives fail_ratio {len(failures) / len(times):.3f}")

            if name == "cli":
                missed = []
                for job in jobs:
                    proc = job.run()
                    if job.check(altered(proc)) is None:
                        missed.append(job.spec["args"])
                if missed:
                    fail(f"cli: altered reports accepted for {missed}")
                print(f"PASS cli: an altered report or exit code is rejected on all {len(jobs)} jobs")
    finally:
        run.remove_workdir(workdir)
    return 0


if __name__ == "__main__":
    sys.exit(main())
