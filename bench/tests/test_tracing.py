"""Checks on the benchmark's tracing.

    python3 -m pytest bench/tests -s

Every per-layer metric must record at least one span on the workload it is
read from, so a rename in src/ that leaves a wrapper pointing nowhere fails
here; a traced round must write the same artifact bytes as an untraced one;
and the tracing overhead is printed.
"""

from __future__ import annotations

import os
import shutil
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH_DIR)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH_DIR]

from jobs import artifact_digest  # noqa: E402
from run import run_rounds  # noqa: E402
from tracing import PATCHES, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# span name -> the workload whose per-layer metrics read it
SPANS_BY_WORKLOAD = {
    "densify-rational": (
        "cli.main",
        "specfile.parse_spec",
        "density.densify",
        "density.enumerate",
        "density.certify_and_translate",
        "density.report_to_json",
        "density.report_to_csv",
        "fibration.specialize",
        "fibration.tau_map",
        "fibration.trace_cycle",
        "elliptic.torsion_certify",
        "elliptic.ec_add",
        "elliptic.ec_mul",
        "elliptic.contains",
    ),
    "densify-trisection": (
        "fibration.trace_cycle",
        "fibration.specialize",
        "exactmath.rational_roots",
        "exactmath.quadratic_field",
    ),
    "cone-bitangents": (
        "enriques.restrict",
        "enriques.bitangent_sections",
        "enriques.k3_weierstrass_model",
        "exactmath.resultant_bivariate",
        "exactmath.poly_gcd",
    ),
}


@pytest.fixture
def work_dir():
    path = os.path.join(ROOT, ".bench_work", f"tests-{os.getpid()}")
    yield path
    shutil.rmtree(path, ignore_errors=True)


def _traced_pair(name, work_dir):
    workload = WORKLOADS[name]
    plain = run_rounds(workload, 1, 1, 0, os.path.join(work_dir, name, "plain"))
    tracer = Tracer()
    with tracer.install():
        traced = run_rounds(workload, 1, 1, 0, os.path.join(work_dir, name, "traced"), tracer)
    return plain[0], traced[0], tracer


@pytest.mark.parametrize("name", sorted(SPANS_BY_WORKLOAD))
def test_layer_spans_and_identical_artifacts(name, work_dir):
    plain, traced, tracer = _traced_pair(name, work_dir)

    seen = {span for span, _job, _dur, _own in tracer.self_times()}
    missing = [span for span in SPANS_BY_WORKLOAD[name] if span not in seen]
    assert not missing, f"no spans recorded on {name} for {missing}"

    for a, b in zip(plain, traced):
        assert a.statuses == b.statuses and a.stderr == b.stderr
        if a.exited_ok:
            assert artifact_digest(a) == artifact_digest(b), f"{name} job {a.job.key} differs"

    overhead = sum(r.wall_s for r in traced) / sum(r.wall_s for r in plain)
    print(f"\n{name}: tracing overhead {overhead:.3f} (traced wall / untraced wall)")


def test_every_patched_name_resolves_and_is_restored():
    import importlib

    originals = []
    for module_name, attr, _span in PATCHES:
        owner = importlib.import_module(module_name)
        for part in attr.split("."):
            owner = getattr(owner, part)
        originals.append(owner)
    with Tracer().install():
        pass
    for (module_name, attr, _span), original in zip(PATCHES, originals):
        owner = importlib.import_module(module_name)
        for part in attr.split("."):
            owner = getattr(owner, part)
        assert owner is original, f"{module_name}.{attr} was not restored"
