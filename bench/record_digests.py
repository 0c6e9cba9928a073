"""Record the artifact digests of seed 0 into digests.json.

    python3 bench/record_digests.py

Runs the first DIGEST_ROUNDS rounds of every workload once, untimed,
checks each job's outputs and stores the sha256 of its artifacts (see
jobs.artifact_digest). A known-defect job that fails as documented is stored
as "exit 3". Any other failure stops the recording, so a wrong output is
never enshrined. Rerun this only in a change that means to change artifact
bytes, or when a timed run of seed 0 reports jobs past the recorded rounds,
and say so.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SEED = 0
DIGEST_ROUNDS = 90  # well past the rounds a timed run of seed 0 reaches today


def main() -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from run import evaluate, run_rounds
    from workloads import KNOWN_DEFECT_STATUS, WORKLOADS

    doc = {"seed": SEED, "rounds": DIGEST_ROUNDS, "workloads": {}}
    work_dir = os.path.join(ROOT, ".bench_work", "record")
    try:
        for name, workload in WORKLOADS.items():
            rounds = run_rounds(workload, SEED, DIGEST_ROUNDS, 0, os.path.join(work_dir, name))
            recorded = {}
            for result in (r for rnd in rounds for r in rnd):
                verdict = evaluate(result, None)
                if verdict.ok:
                    recorded[result.job.key] = verdict.digest
                elif verdict.expected:
                    recorded[result.job.key] = f"exit {KNOWN_DEFECT_STATUS}"
                else:
                    print("\n".join(verdict.problems), file=sys.stderr)
                    return 1
            doc["workloads"][name] = recorded
            print(f"{name}: {len(recorded)} jobs recorded")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    with open(os.path.join(BENCH_DIR, "digests.json"), "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
