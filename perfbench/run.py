"""Layered benchmark of the precubical library and CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see BENCHMARK.json for why each is there):

    build-roundtrip  construct, validate, serialize, parse and re-serialize,
                     plus corrupted documents that must fail with one violation
    homology         homology() of complexes built during set-up
    flow             path classes, morphism counts, state order and globular
                     decompositions of complexes built during set-up
    cli              one `python -m precubical.cli` child process per job

Each workload is a closed loop with one client: one thread runs the seeded
job list in order, cycling through it, and starts a job only when the last
one has finished.  A run measures whole passes: it stops at the first pass
boundary after --seconds and 100 jobs, so that every job of the list runs
equally often and ten samples lie beyond the 90th percentile.  Every
outcome is checked against oracles.py.

The end-to-end times are given at a reference machine speed.  The host's
speed drifts by a third over minutes and flickers by as much within a
second, which would swamp the differences the benchmark is there to
show.  So about once a second between jobs, and around each set-up step,
the run times a fixed pure-Python loop that never calls precubical
(speed_factor: REFERENCE_S over the loop's best time of five).  A job's
time is scaled by the mean of the readings just before and after it, and
set-up time by the median of the readings around its steps.  A change
to the library moves the scaled times as it moves the raw ones; a change
of machine speed moves the loop with them and cancels out.  The unscaled
figures and the speed factors are printed on the lines before the result.

With --trace 0 the last line of standard output is a JSON object holding
the end-to-end metrics.  With --trace 1 the run alternates untraced passes
with passes in which every traced library function is wrapped (spans.py);
the last line then holds the per-layer metrics and the tracing overhead,
the traced passes' job time over the untraced passes' minus one.  The
names and units of the metrics are read from BENCHMARK.json beside this
directory.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
MIN_JOBS = 100
HARD_CAP_S = 140.0
SETUP_REPEATS = 7
PROBE_REPEATS = 5
REFERENCE_S = 0.008
CALIBRATE_EVERY_S = 1.0
IMPORT_PROBE = "import time; t = time.perf_counter(); import precubical; print(time.perf_counter() - t)"


def load_library():
    """Import precubical from the checkout's src; exit 1 if it is not there."""
    sys.path.insert(0, SRC)
    try:
        import precubical
    except ImportError as exc:
        raise SystemExit(f"error: cannot import precubical from {SRC}: {exc}")
    if not os.path.abspath(precubical.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"error: precubical was imported from {precubical.__file__}, not {SRC}")


def digest(specs) -> str:
    """Short hash of a job list, to show that two runs ran the same jobs."""
    return hashlib.sha256(json.dumps(specs, sort_keys=True).encode()).hexdigest()[:16]


def make_workdir() -> str:
    """A fresh directory under .bench_work in the checkout, for cli documents."""
    workroot = os.path.join(ROOT, ".bench_work")
    os.makedirs(workroot, exist_ok=True)
    return tempfile.mkdtemp(dir=workroot)


def remove_workdir(workdir: str):
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        os.rmdir(os.path.dirname(workdir))
    except OSError:  # another run still uses it
        pass


_WORDS = [format(i * 7919 % 100003, "x") + "*01" for i in range(600)]


def _reference_loop() -> int:
    """Fixed work like the library's: string scans of a list, and tuple
    keys in a dict."""
    hits = sum(word in _WORDS for word in _WORDS[::3])
    counts: dict = {}
    for i in range(6000):
        key = (i % 97, _WORDS[i % 600])
        counts[key] = counts.get(key, 0) + 1
    return hits + len(sorted(counts.items()))


def speed_factor() -> float:
    """REFERENCE_S over the best of five timings of the reference loop,
    taken with the collector off so that the library's heap does not enter
    them."""
    gc.disable()
    try:
        best = math.inf
        for _ in range(5):
            t0 = time.perf_counter()
            _reference_loop()
            best = min(best, time.perf_counter() - t0)
    finally:
        gc.enable()
    return REFERENCE_S / best


def run_jobs(jobs, rec, stop, first: int = 0):
    """Run the job list in order, cycling, until stop(elapsed, done) holds.

    Returns the wall time of every job, its speed factor (the mean of the
    speed_factor readings just before and just after it, taken every
    CALIBRATE_EVERY_S) and the failures as (job number, spec, reason).
    Only job.run is timed.  Jobs are numbered from first, and spans record
    the number as their job id.
    """
    times: list[float] = []
    readings: list[float] = []
    reading_before: list[int] = []
    failures: list[tuple[int, dict, str]] = []
    start = time.perf_counter()
    calibrated = float("-inf")
    while not stop(time.perf_counter() - start, len(times)):
        if time.perf_counter() - calibrated >= CALIBRATE_EVERY_S:
            readings.append(speed_factor())
            calibrated = time.perf_counter()
        done = len(times)
        job = jobs[done % len(jobs)]
        rec.job = first + done
        t0 = time.perf_counter()
        try:
            outcome = job.run()
            reason = None
        except Exception as exc:  # a crash is a wrong outcome, counted below
            outcome, reason = None, f"raised {type(exc).__name__}: {exc}"
        times.append(time.perf_counter() - t0)
        reading_before.append(len(readings) - 1)
        if reason is None:
            try:
                reason = job.check(outcome)
            except Exception as exc:  # an outcome of the wrong shape
                reason = f"check raised {type(exc).__name__}: {exc}"
        if reason:
            failures.append((first + done, job.spec, reason))
    readings.append(speed_factor())
    factors = [(readings[i] + readings[i + 1]) / 2 for i in reading_before]
    return times, factors, failures


def whole_passes(seconds: float, pass_len: int):
    """Stop at the first pass boundary after seconds and MIN_JOBS jobs, so
    that every run holds each job of the list equally often; stop anyway at
    HARD_CAP_S."""
    def stop(elapsed, done):
        if elapsed >= HARD_CAP_S:
            return True
        return elapsed >= seconds and done >= MIN_JOBS and done % pass_len == 0
    return stop


def pass_rate(times, pass_len: int) -> float:
    """Jobs per second of timed wall time: the median over the run's whole
    passes of each pass's rate, so that a slow spell of the machine in one
    pass does not move it; all jobs' rate if no pass is whole."""
    rates = [pass_len / sum(times[k:k + pass_len])
             for k in range(0, len(times) - pass_len + 1, pass_len)]
    return statistics.median(rates) if rates else len(times) / sum(times)


def child(code: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, check=True,
                          capture_output=True, text=True, timeout=60)


def child_ms(code: str) -> float:
    """Median wall time of `python -c code` with src on the path, in ms."""
    samples = []
    for _ in range(PROBE_REPEATS):
        t0 = time.perf_counter()
        child(code)
        samples.append((time.perf_counter() - t0) * 1000.0)
    return statistics.median(samples)


def peak_rss_mb(workload: str) -> float:
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def describe(metric_list, values: dict) -> dict:
    names = [m["name"] for m in metric_list]
    if set(names) != set(values):
        raise SystemExit(f"error: metrics {sorted(values)} do not match BENCHMARK.json {names}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metric_list}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        config = json.load(handle)
    load_library()

    import spans
    import workloads as W

    names = [w["name"] for w in config["workloads"]]
    if args.workload not in names:
        parser.error(f"unknown workload {args.workload!r} (known: {', '.join(names)})")

    workdir = make_workdir()
    make_specs, build = W.table(workdir)[args.workload]
    rec = spans.Recorder()
    try:
        specs = make_specs(random.Random(args.seed))
        if args.trace:
            rec.install()
            rec.job = "setup"
            jobs = build(specs, rec)
            rec.uninstall()
            result = traced_run(args, jobs, rec, spans, config)
        else:
            # set-up is `import precubical` in a fresh interpreter plus
            # building the inputs from the job list (drawing the list is the
            # benchmark's own work, and its time varies with the seed); each
            # is repeated and its median taken, and the sum is scaled to the
            # reference speed by the median speed factor read around them
            imports, builds = [], []
            readings = [speed_factor()]
            for _ in range(SETUP_REPEATS):
                imports.append(float(child(IMPORT_PROBE).stdout))
                readings.append(speed_factor())
                t0 = time.perf_counter()
                jobs = build(specs, rec)
                builds.append(time.perf_counter() - t0)
                readings.append(speed_factor())
            imported, built = statistics.median(imports), statistics.median(builds)
            setup_s = (imported + built) * statistics.median(readings)
            print(f"set-up: unscaled medians of {SETUP_REPEATS}: import {imported:.4f} s, "
                  f"build {built:.4f} s; speed factor median {statistics.median(readings):.4f}")
            result = plain_run(args, jobs, rec, setup_s, config)
    finally:
        remove_workdir(workdir)

    attempted, failures, summary = result["attempted"], result["failures"], result["summary"]
    for number, spec, reason in failures[:5]:
        print(f"failed job {number} {json.dumps(spec)[:200]}: {reason}", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed} jobs digest {digest(specs)}: {summary}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": result["metrics"],
    }))
    return 0


def plain_run(args, jobs, rec, setup_s, config) -> dict:
    gc.collect()
    raw, factors, failures = run_jobs(jobs, rec, whole_passes(args.seconds, len(jobs)))
    times = [t * f for t, f in zip(raw, factors)]
    p90 = statistics.quantiles(times, n=10)[8]
    values = {
        "setup_s": setup_s,
        "job_p50_ms": statistics.median(times) * 1000.0,
        "job_p90_ms": p90 * 1000.0,
        "jobs_per_s": pass_rate(times, len(jobs)),
        "peak_rss_mb": peak_rss_mb(args.workload),
    }
    beyond = sum(1 for t in times if t > p90)
    summary = (f"{len(times)} jobs ({len(times) / len(jobs):.2f} passes of {len(jobs)}), "
               f"{beyond} beyond the 90th percentile, fail_ratio {len(failures) / len(times)}; "
               f"speed factor median {statistics.median(factors):.4f} "
               f"(range {min(factors):.4f} to {max(factors):.4f}); unscaled "
               f"p50 {statistics.median(raw) * 1000.0:.4f} ms, "
               f"p90 {statistics.quantiles(raw, n=10)[8] * 1000.0:.4f} ms, "
               f"{pass_rate(raw, len(jobs)):.4f} jobs/s")
    return {"attempted": len(times), "failures": failures, "summary": summary,
            "metrics": describe(config["end_to_end"], values)}


def traced_run(args, jobs, rec, spans, config) -> dict:
    """Alternate untraced and traced passes until --seconds, so that both
    see the same machine; the per-layer figures come from the traced ones,
    unscaled, and the tracing overhead from job times at the reference
    speed."""
    pass_len = len(jobs)
    plain_times: list[float] = []
    traced_times: list[float] = []
    failures: list = []
    gc.collect()
    start = time.perf_counter()
    while not plain_times or time.perf_counter() - start < min(args.seconds, HARD_CAP_S / 2):
        for sink, tracing in ((plain_times, False), (traced_times, True)):
            if tracing:
                rec.install()
            try:
                times, factors, failed = run_jobs(jobs, rec, lambda elapsed, done: done >= pass_len,
                                                  first=len(plain_times) + len(traced_times))
            finally:
                rec.uninstall()
            sink += [t * f for t, f in zip(times, factors)]
            failures += failed
    passes = len(traced_times) // pass_len
    attempted = len(plain_times) + len(traced_times)
    values = spans.layer_metrics(rec.spans, passes)
    values.update({
        "cli.interpreter_ms": child_ms("pass"),
        "cli.import_ms": child_ms("import precubical.cli"),
        "fail_ratio": len(failures) / attempted,
        "trace.overhead": sum(traced_times) / sum(plain_times) - 1.0,
    })
    summary = (f"{passes} untraced and {passes} traced passes of {pass_len} jobs, "
               f"{len(rec.spans)} spans, untraced {len(plain_times) / sum(plain_times):.4f} jobs/s, "
               f"traced {len(traced_times) / sum(traced_times):.4f} jobs/s")
    return {"attempted": attempted, "failures": failures, "summary": summary,
            "metrics": describe(config["per_layer"], values)}


if __name__ == "__main__":
    sys.exit(main())
