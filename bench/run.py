"""fibdense benchmark: one workload, one seed, one closed-loop client.

    python3 bench/run.py --workload densify-rational --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout. Jobs generated from the seed go one
after another through ``fibdense.cli.main`` in this process, in whole rounds
(see workloads.py), until ``--seconds`` have passed. Afterwards every job's
outputs are checked independently (checks.py) and, where a digest was
recorded (digests.json), compared byte for byte.

With ``--trace 0`` the run reports the end-to-end metrics; with ``--trace 1``
it runs a fixed number of rounds twice, untraced and then traced, and
reports the per-layer metrics. Which metrics go into the final JSON line,
and their units, is read from BENCHMARK.json; every other figure is printed
on the lines above it. The last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
SETUP_RUNS = 15
REF_TERMS = 5000  # size of each half of the reference loop
REF_NOMINAL_S = 0.05  # about its median wall time on the 2-core Intel Xeon machine the bounds were set on


def _fail(message: str) -> int:
    print(f"bench: {message}", file=sys.stderr)
    return 2


def time_setup() -> float:
    """Wall time of one fresh interpreter importing fibdense.cli."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import fibdense.cli"], env=dict(os.environ, PYTHONPATH=SRC),
                   cwd=ROOT, check=True)
    return time.perf_counter() - start


def time_reference() -> float:
    """Wall time of a fixed loop of rational additions that uses only the
    standard library: the yardstick for how fast the machine runs right now.
    In the first half the operands grow to thousands of bits, so big-integer
    arithmetic dominates, as in the densify-rational jobs; the second half
    restarts every 32 terms, so the interpreter's own overhead dominates, as
    in the number-field jobs."""
    start = time.perf_counter()
    acc = Fraction(0)
    for i in range(1, REF_TERMS):
        acc += Fraction(1, i)
    acc = Fraction(0)
    for i in range(1, REF_TERMS):
        acc = Fraction(0) if i % 32 == 0 else acc + Fraction(1, i)
    return time.perf_counter() - start


def load_digests() -> dict:
    with open(os.path.join(BENCH_DIR, "digests.json"), encoding="utf-8") as fh:
        return json.load(fh)


def run_rounds(workload, seed: int, count: int | None, seconds: float, out_dir: str,
               tracer=None, after_job=None, after_round=None) -> list:
    """Run the first `count` rounds, or whole rounds until `seconds` have
    passed. Returns a list of rounds of JobResults."""
    from jobs import run_job

    rounds = []
    start = time.perf_counter()
    rnd = 0
    while time.perf_counter() - start < seconds if count is None else rnd < count:
        results = []
        for job in workload.round(seed, rnd):
            if tracer is not None:
                tracer.job = rnd * workload.slots + job.slot
            results.append(run_job(job, os.path.join(out_dir, f"{job.round}-{job.slot}")))
            if after_job is not None:
                after_job()
        rounds.append(results)
        rnd += 1
        if after_round is not None:
            after_round()
    return rounds


@dataclass
class Verdict:
    """Outcome of checking one job."""

    ok: bool
    expected: bool  # a failure that is the documented known defect
    problems: list
    digest: str | None
    work: dict  # fibers, points or searches completed


def recorded_digest(job, seed: int, digests: dict) -> str | None:
    """The digest recorded for a job: every job in the recorded rounds of the
    recorded seed, and the seed-independent anchor job 0/0 on any seed."""
    if job.key != "0/0" and (seed != digests["seed"] or job.round >= digests["rounds"]):
        return None
    return digests["workloads"][job.workload][job.key]


def report_digest_coverage(results, seed: int, digests: dict) -> None:
    """Say how many jobs of the recorded seed ran past the recorded rounds, so
    that a program fast enough to outrun the digests shows it at once."""
    if seed != digests["seed"]:
        return
    past = sum(1 for r in results if r.job.round >= digests["rounds"])
    if past:
        print(f"digest check: {past} of {len(results)} jobs ran past the {digests['rounds']} recorded rounds "
              f"of seed {seed} and were not compared byte for byte; rerun bench/record_digests.py with more "
              f"rounds (DIGEST_ROUNDS)")


def evaluate(result, expected_digest: str | None) -> Verdict:
    from checks import check_job
    from jobs import artifact_digest
    from workloads import KNOWN_DEFECT_STATUS, KNOWN_DEFECT_STDERR

    job = result.job
    if not result.exited_ok:
        status, err = result.statuses[-1], result.stderr[-1].strip()
        if job.known_defect and status == KNOWN_DEFECT_STATUS and err == KNOWN_DEFECT_STDERR:
            return Verdict(False, True, [], None, {})
        return Verdict(False, False, [f"{job.key}: exit {status}: {err}"], None, {})
    try:
        problems, work = check_job(result)
        problems = [f"{job.key}: {p}" for p in problems]
        digest = artifact_digest(result)
    except Exception as exc:  # malformed or missing artifacts fail the job, not the run
        return Verdict(False, False, [f"{job.key}: unreadable outputs: {exc!r}"], None, {})
    # a known-defect job recorded as "exit 3" that now succeeds has no digest yet
    if expected_digest is not None and not expected_digest.startswith("exit") and digest != expected_digest:
        problems.append(f"{job.key}: artifact digest {digest[:16]} differs from the recorded {expected_digest[:16]}")
    if problems:
        return Verdict(False, False, problems, digest, {})
    return Verdict(True, False, [], digest, work)


def _round_rates(rounds, verdicts, unit: str) -> list[float]:
    rates = []
    for results in rounds:
        wall = sum(r.wall_s for r in results)
        done = sum(verdicts[id(r)].work.get(unit, 0) for r in results)
        rates.append(done / wall)
    return rates


def _tail(latencies: list[float]):
    """Highest percentile with at least ten jobs beyond it: (value, pct)."""
    n = len(latencies)
    if n < 11:
        return None, None
    ordered = sorted(latencies)
    return ordered[n - 11], math.floor(100 * (n - 10) / n)


def _print_metric(name: str, value, unit: str, note: str = "") -> None:
    shown = f"{value:.6g}" if isinstance(value, float) else str(value)
    print(f"{name:40s} {shown:>14s} {unit}{('  ' + note) if note else ''}")


def timed_run(workload, seed: int, seconds: float, work_dir: str, spec: dict):
    digests = load_digests()
    time_setup()  # writes bytecode once
    # The machine's speed drifts by up to a quarter within a minute, so each
    # round's rate is scaled by the mean of the reference loops timed before,
    # between and after its jobs. Set-up samples are spread over the run, one
    # after each round, so that they see the same machine as the jobs do, and
    # each is scaled by the reference loop timed just before it.
    refs, setups = [time_reference()], []  # setups: (set-up time, reference time)

    rounds = run_rounds(workload, seed, None, seconds, os.path.join(work_dir, "jobs"),
                        after_job=lambda: refs.append(time_reference()),
                        after_round=lambda: setups.append((time_setup(), refs[-1])))
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    while len(setups) < SETUP_RUNS:
        ref = time_reference()
        setups.append((time_setup(), ref))
    setup_s = statistics.median(t * REF_NOMINAL_S / ref for t, ref in setups)
    results = [r for rnd in rounds for r in rnd]
    verdicts = {id(r): evaluate(r, recorded_digest(r.job, seed, digests)) for r in results}
    failed = [v for v in verdicts.values() if not v.ok]
    unexpected = [v for v in failed if not v.expected]
    latencies = [r.wall_s for r in results if verdicts[id(r)].ok]

    print(f"workload {workload.name}, seed {seed}: {len(rounds)} rounds, {len(results)} jobs, "
          f"{sum(r.wall_s for r in results):.3f} s in jobs")
    report_digest_coverage(results, seed, digests)
    figures = {"setup_s": (setup_s, "s"), "setup_raw_s": (statistics.median(t for t, _ in setups), "s"),
               "peak_rss_mib": (peak_rss_mib, "MiB")}
    unit = workload.work_unit
    raw = _round_rates(rounds, verdicts, unit)
    figures["work_per_s"] = (statistics.median(raw), "1/s")
    slots = workload.slots
    figures["norm_work_per_s"] = (statistics.median(
        rate * statistics.mean(refs[i * slots:(i + 1) * slots + 1]) / REF_NOMINAL_S
        for i, rate in enumerate(raw)), "1/s")
    figures["reference_s"] = (statistics.median(refs), "s")
    for name, per in (("fibers_per_s", "fibers"), ("points_per_s", "points"), ("searches_per_s", "searches")):
        if any(per in v.work for v in verdicts.values()):
            figures[name] = (statistics.median(_round_rates(rounds, verdicts, per)), "1/s")
    for name, (value, u) in figures.items():
        _print_metric(name, value, u, "median over rounds" if name.endswith("_per_s") else "")
    if latencies:
        _print_metric("job_p50_s", statistics.median(latencies), "s", f"{len(latencies)} completed jobs")
    tail, pct = _tail(latencies)
    if tail is None:
        print(f"{'job_tail_s':40s} {'n/a':>14s} s  fewer than 11 completed jobs")
    else:
        _print_metric("job_tail_s", tail, "s", f"p{pct} of {len(latencies)} jobs, 10 beyond it")
    _print_metric("failed_frac", len(failed) / len(results), "ratio",
                  f"{len(failed)} of {len(results)} jobs, {len(failed) - len(unexpected)} the known defect")
    for v in unexpected:
        for p in v.problems or ["failed"]:
            print(f"FAILED {p}")
    metrics = {m["name"]: {"value": figures[m["name"]][0], "unit": m["unit"]} for m in spec["end_to_end"]}
    return not unexpected, len(results), len(failed), metrics


def traced_run(workload, seed: int, seconds: float, work_dir: str, spec: dict):
    from tracing import Tracer, layer_metrics

    digests = load_digests()
    count = max(1, round(seconds * workload.traced_rounds_per_10s / 10))

    cpu0, wall0 = os.times(), time.perf_counter()
    plain = run_rounds(workload, seed, count, 0, os.path.join(work_dir, "plain"))
    cpu1, wall1 = os.times(), time.perf_counter()
    tracer = Tracer()
    with tracer.install():
        traced = run_rounds(workload, seed, count, 0, os.path.join(work_dir, "traced"), tracer)

    plain_results = [r for rnd in plain for r in rnd]
    traced_results = [r for rnd in traced for r in rnd]
    problems, completed, failed = [], set(), 0
    for a, b in zip(plain_results, traced_results):
        va = evaluate(a, recorded_digest(a.job, seed, digests))
        vb = evaluate(b, None)
        if va.digest != vb.digest or (a.statuses, a.stderr) != (b.statuses, b.stderr):
            problems.append(f"{a.job.key}: traced and untraced runs differ")
        if va.ok:
            completed.add(a.job.round * workload.slots + a.job.slot)
        else:
            failed += 1
            if not va.expected:
                problems.extend(va.problems or [f"{a.job.key}: failed"])

    metrics = layer_metrics(tracer, completed)
    cpu = sum(cpu1[:4]) - sum(cpu0[:4])
    metrics["proc.cpu_per_wall"] = cpu / (wall1 - wall0)
    plain_wall = sum(r.wall_s for r in plain_results)
    metrics["bench.trace_overhead"] = sum(r.wall_s for r in traced_results) / plain_wall

    spans_dir = os.path.join(WORK, "spans")
    os.makedirs(spans_dir, exist_ok=True)
    spans_path = os.path.join(spans_dir, f"{workload.name}.tsv")  # the latest traced run only
    tracer.write(spans_path)
    print(f"workload {workload.name}, seed {seed}: {count} rounds, {len(plain_results)} jobs, "
          f"{plain_wall:.3f} s untraced; {len(tracer)} spans written to "
          f"{os.path.relpath(spans_path, ROOT)}")
    report_digest_coverage(plain_results, seed, digests)
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for name, value in sorted(metrics.items()):
        _print_metric(name, value, units.get(name, "s" if name.endswith("_s") else "count"))
    for p in problems:
        print(f"FAILED {p}")
    out = {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()}
    return not problems, len(plain_results), failed, out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if args.seconds <= 0:
        return _fail("--seconds must be positive")
    if not os.path.isfile(os.path.join(SRC, "fibdense", "cli.py")):
        return _fail(f"no fibdense sources under {SRC}; run from a source checkout")
    sys.path.insert(0, SRC)
    import fibdense

    if os.path.dirname(os.path.abspath(fibdense.__file__)) != os.path.join(SRC, "fibdense"):
        return _fail(f"imported fibdense from {fibdense.__file__}, not from {SRC}")
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        return _fail(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)

    work_dir = os.path.join(WORK, f"{args.workload}-seed{args.seed}-pid{os.getpid()}")
    try:
        run = traced_run if args.trace else timed_run
        correct, attempted, failed, metrics = run(
            WORKLOADS[args.workload], args.seed, args.seconds, work_dir, spec
        )
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
