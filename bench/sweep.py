"""Run the benchmark over several seeds and summarize each metric's spread.

    python3 bench/sweep.py                      # every workload, seeds 1..10
    python3 bench/sweep.py --workload cone-bitangents --seeds 5 --trace 1
    python3 bench/sweep.py --baseline bench/baseline.json

For each workload and metric it prints the median, the quartiles and the
spread (interquartile distance as a share of the median), next to the bound
from BENCHMARK.json; and the same, from the same runs, for the raw figures
that the gated ones are normalised from. Runs go one after another, never in
parallel, so that they do not disturb each other. ``--baseline`` also stores
the medians, with the machine description and the line count of src/, in a
JSON file, under "end_to_end" or "per_layer" depending on ``--trace``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
# printed but not gated: the gated rate and set-up time before normalisation
RAW_FIGURES = ("work_per_s", "setup_raw_s")


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _src_lines() -> int:
    total = 0
    for dirpath, _dirs, files in os.walk(os.path.join(ROOT, "src")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), encoding="utf-8") as fh:
                    total += sum(1 for _ in fh)
    return total


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """The run's JSON result, and the printed RAW_FIGURES by name."""
    cmd = [sys.executable, os.path.join("bench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr.strip()}")
    lines = proc.stdout.strip().splitlines()
    printed = {}
    for line in lines[:-1]:
        fields = line.split()
        if len(fields) >= 3 and fields[0] in RAW_FIGURES:
            printed[fields[0]] = float(fields[1])
    return json.loads(lines[-1]), printed


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else 0.0}


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", help="repeatable; default: all")
    parser.add_argument("--seeds", type=int, default=10, help="seeds 1..N")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--baseline", help="write medians and the machine description here")
    args = parser.parse_args(argv)

    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    summary = {}
    ok = True
    for workload in workloads:
        runs, printed = zip(*(run_once(workload, seed, spec["run_seconds"], args.trace)
                              for seed in range(1, args.seeds + 1)))
        if not all(r["correct"] for r in runs):
            print(f"{workload}: a run reported correct=false")
            ok = False
        print(f"{workload}: attempted {[r['attempted'] for r in runs]}, failed {[r['failed'] for r in runs]}")
        summary[workload] = {}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            stats = summarize(values)
            summary[workload][name] = {**stats, "unit": runs[0]["metrics"][name]["unit"]}
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s" and stats["spread"] > bound / 3:
                flag = "  above a third of the bound"
            print(f"  {name:40s} median {stats['median']:.6g}  q1 {stats['q1']:.6g}  q3 {stats['q3']:.6g}  "
                  f"spread {stats['spread']:.3f}" + (f" (bound {bound})" if bound is not None else "") + flag)
        for name in RAW_FIGURES:
            if all(name in p for p in printed):
                stats = summarize([p[name] for p in printed])
                print(f"  {name:40s} median {stats['median']:.6g}  q1 {stats['q1']:.6g}  q3 {stats['q3']:.6g}  "
                      f"spread {stats['spread']:.3f} (printed, not gated)")
    if args.baseline:
        doc = {}
        if os.path.exists(args.baseline):
            with open(args.baseline, encoding="utf-8") as fh:
                doc = json.load(fh)
        doc.update({
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "cpu_model": _cpu_model(),
            "src_lines": _src_lines(),
        })
        section = doc.setdefault("per_layer" if args.trace else "end_to_end", {})
        section.update({"seeds": list(range(1, args.seeds + 1)), "run_seconds": spec["run_seconds"]})
        for workload, metrics in summary.items():
            section[workload] = {n: {k: s[k] for k in ("median", "q1", "q3")} for n, s in metrics.items()}
        with open(args.baseline, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
