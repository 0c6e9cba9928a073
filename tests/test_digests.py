"""Byte identity against the benchmark's recorded digests.

bench/digests.json holds the sha256 of every seed-0 job's artifacts. Running
the first rounds of each workload here and comparing them catches a change of
output bytes without a timed bench run. The bench is read, never written:
jobs run in pytest's temporary directory.
"""

from __future__ import annotations

import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "bench")
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH_DIR]

from run import evaluate, load_digests, recorded_digest, run_rounds  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEED = 0
# rounds per workload, each set under a second; cone rounds are the cheapest
ROUNDS = {"densify-rational": 2, "densify-trisection": 2, "cone-bitangents": 12}


def test_every_workload_is_covered():
    assert set(ROUNDS) == set(WORKLOADS)


@pytest.mark.parametrize("name", sorted(ROUNDS))
def test_first_rounds_match_their_digests(name, tmp_path):
    digests = load_digests()
    assert digests["seed"] == SEED and digests["rounds"] >= ROUNDS[name]
    rounds = run_rounds(WORKLOADS[name], SEED, ROUNDS[name], 0, str(tmp_path))
    problems = []
    for result in (r for rnd in rounds for r in rnd):
        expected = recorded_digest(result.job, SEED, digests)
        assert expected is not None, f"{name} job {result.job.key} has no recorded digest"
        verdict = evaluate(result, expected)
        if not (verdict.ok or verdict.expected):
            problems += verdict.problems
    assert not problems, "\n".join(problems)
