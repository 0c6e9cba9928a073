"""Layer-boundary spans recorded from outside the program.

``Tracer.install()`` replaces, for the duration of a ``with`` block, the
names that each caller module imported from the layer below (for example
``fibdense.density.torsion_certify``) by wrappers that record a span, plus
``EllipticCurve.contains``. Nothing in ``src/`` changes. A span is
(name, start, end, parent, job); spans live in flat arrays in memory and are
written out once, at the end.

Self time is a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import time
from array import array
from collections import Counter
from fractions import Fraction

# (module, attribute, span name): every name a caller module looks up in a
# layer below it, as the workloads reach them
PATCHES = (
    ("fibdense.cli", "main", "cli.main"),
    ("fibdense.cli", "parse_spec", "specfile.parse_spec"),
    ("fibdense.cli", "densify", "density.densify"),
    ("fibdense.cli", "report_to_json", "density.report_to_json"),
    ("fibdense.cli", "report_to_csv", "density.report_to_csv"),
    ("fibdense.cli", "restrict_quartic_to_cone", "enriques.restrict"),
    ("fibdense.cli", "bitangent_sections", "enriques.bitangent_sections"),
    ("fibdense.cli", "k3_weierstrass_model", "enriques.k3_weierstrass_model"),
    ("fibdense.cli", "section_difference_order", "fibration.section_difference_order"),
    ("fibdense.cli", "specialize", "fibration.specialize"),
    ("fibdense.density", "enumerate_multisection_points", "density.enumerate"),
    ("fibdense.density", "certify_and_translate", "density.certify_and_translate"),
    ("fibdense.density", "specialize", "fibration.specialize"),
    ("fibdense.density", "tau_map", "fibration.tau_map"),
    ("fibdense.density", "torsion_certify", "elliptic.torsion_certify"),
    ("fibdense.density", "ec_add", "elliptic.ec_add"),
    ("fibdense.density", "ec_mul", "elliptic.ec_mul"),
    ("fibdense.fibration", "specialize", "fibration.specialize"),
    ("fibdense.fibration", "trace_cycle", "fibration.trace_cycle"),
    ("fibdense.fibration", "torsion_certify", "elliptic.torsion_certify"),
    ("fibdense.fibration", "ec_add", "elliptic.ec_add"),
    ("fibdense.fibration", "ec_mul", "elliptic.ec_mul"),
    ("fibdense.fibration", "rational_roots", "exactmath.rational_roots"),
    ("fibdense.fibration", "quadratic_field", "exactmath.quadratic_field"),
    ("fibdense.fibration", "squarefree_decompose", "exactmath.squarefree_decompose"),
    ("fibdense.enriques", "rational_roots", "exactmath.rational_roots"),
    ("fibdense.enriques", "quadratic_field", "exactmath.quadratic_field"),
    ("fibdense.enriques", "resultant_bivariate", "exactmath.resultant_bivariate"),
    ("fibdense.enriques", "poly_gcd", "exactmath.poly_gcd"),
    ("fibdense.enriques", "squarefree_decompose", "exactmath.squarefree_decompose"),
    ("fibdense.enriques", "squarefree_part", "exactmath.squarefree_part"),
    ("fibdense.enriques", "quartic_to_weierstrass", "elliptic.quartic_to_weierstrass"),
    ("fibdense.elliptic", "EllipticCurve.contains", "elliptic.contains"),
)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._name = array("i")
        self._start = array("q")
        self._end = array("q")
        self._parent = array("i")
        self._job = array("i")
        self._stack: list[int] = []
        self.job = -1  # id stamped on every span opened from now on
        self.returns: dict[str, list] = {}  # (job, value) per observed span name

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name: str):
        name_id = self._name_id(name)
        observed = self.returns.setdefault(name, []) if name in _OBSERVED else None
        stack, now = self._stack, time.perf_counter_ns
        names, starts, ends, parents, jobs = self._name, self._start, self._end, self._parent, self._job

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            jobs.append(self.job)
            ends.append(0)
            stack.append(idx)
            starts.append(now())
            try:
                value = fn(*args, **kwargs)
            finally:
                ends[idx] = now()
                stack.pop()
            if observed is not None:
                observed.append((self.job, value))
            return value

        return traced

    def install(self):
        return _Installed(self)

    def __len__(self) -> int:
        return len(self._name)

    def self_times(self):
        """(name, job, duration_ns, self_ns) for every span."""
        child = [0] * len(self._name)
        for idx, parent in enumerate(self._parent):
            if parent >= 0:
                child[parent] += self._end[idx] - self._start[idx]
        for idx in range(len(self._name)):
            dur = self._end[idx] - self._start[idx]
            yield self.names[self._name[idx]], self._job[idx], dur, dur - child[idx]

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("job\tname\tstart_ns\tend_ns\tparent\n")
            for idx in range(len(self._name)):
                fh.write(
                    f"{self._job[idx]}\t{self.names[self._name[idx]]}\t{self._start[idx]}\t"
                    f"{self._end[idx]}\t{self._parent[idx]}\n"
                )


class _Installed:
    """Context manager that swaps every patched name and restores it."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.saved = []

    def __enter__(self):
        for module_name, attr, span in PATCHES:
            owner = importlib.import_module(module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, leaf)
            self.saved.append((owner, leaf, original))
            setattr(owner, leaf, self.tracer.wrap(original, span))
        return self.tracer

    def __exit__(self, *exc):
        for owner, leaf, original in reversed(self.saved):
            setattr(owner, leaf, original)
        self.saved.clear()
        return False


# spans whose return values feed a metric
_OBSERVED = {"fibration.tau_map", "enriques.bitangent_sections", "density.densify"}

_SKIP_REASONS = ("pole", "singular", "trace field too large")


def _bits(x: Fraction) -> int:
    return max(abs(x.numerator), x.denominator).bit_length()


def layer_metrics(tracer: Tracer, completed: set[int]) -> dict[str, float]:
    """Per-layer metrics of a traced run; ratios per fiber use completed jobs."""
    calls, self_ns = Counter(), Counter()
    calls_done = Counter()
    for name, job, _dur, own in tracer.self_times():
        calls[name] += 1
        self_ns[name] += own
        if job in completed:
            calls_done[name] += 1

    reports = [(job, r) for job, r in tracer.returns.get("density.densify", ()) if job in completed]
    fibers = sum(r.fibers_attempted for _job, r in reports)
    certified = sum(r.fibers_certified for _job, r in reports)
    skipped = Counter()
    for _job, r in reports:
        for outcome in r.per_fiber:
            reason = getattr(outcome.result.verdict, "reason", None)
            if reason is not None:
                skipped[reason] += 1
    taus = [
        _bits(p.x)
        for _job, p in tracer.returns.get("fibration.tau_map", ())
        if not p.is_infinity and isinstance(p.x, Fraction)
    ]
    searches = [r for _job, r in tracer.returns.get("enriques.bitangent_sections", ())]
    verified = sum(len(r) for r in searches)
    # bitangent_sections verifies each degree <= 2 parameter with one poly_gcd call
    tried = sum(
        1
        for name, parent in _parent_names(tracer)
        if name == "exactmath.poly_gcd" and parent == "enriques.bitangent_sections"
    )

    def per_fiber(name):
        return calls_done[name] / fibers if fibers else 0.0

    def secs(name):
        return self_ns[name] / 1e9

    out = {
        "elliptic.torsion_certify.calls": calls["elliptic.torsion_certify"],
        "elliptic.torsion_certify.self_s": secs("elliptic.torsion_certify"),
        "elliptic.ec_add.calls": calls["elliptic.ec_add"],
        "elliptic.ec_add.self_s": secs("elliptic.ec_add"),
        "elliptic.ec_mul.self_s": secs("elliptic.ec_mul"),
        "elliptic.contains.calls": calls["elliptic.contains"],
        "elliptic.contains.per_fiber": per_fiber("elliptic.contains"),
        "elliptic.tau_bits_p50": statistics.median_low(taus) if taus else 0,
        "fibration.specialize.calls": calls["fibration.specialize"],
        "fibration.specialize.per_fiber": per_fiber("fibration.specialize"),
        "fibration.tau_map.self_s": secs("fibration.tau_map"),
        "fibration.trace_cycle.self_s": secs("fibration.trace_cycle"),
        "exactmath.rational_roots.calls": calls["exactmath.rational_roots"],
        "exactmath.rational_roots.self_s": secs("exactmath.rational_roots"),
        "exactmath.quadratic_field.calls": calls["exactmath.quadratic_field"],
        "exactmath.resultant_bivariate.calls": calls["exactmath.resultant_bivariate"],
        "exactmath.resultant_bivariate.self_s": secs("exactmath.resultant_bivariate"),
        "exactmath.poly_gcd.self_s": secs("exactmath.poly_gcd"),
        "enriques.bitangent_sections.self_s": secs("enriques.bitangent_sections"),
        "enriques.verified_ratio": verified / tried if tried else 0.0,
        "enriques.higher_degree_parameters": sum(r.higher_degree_parameters for r in searches),
        "enriques.k3_weierstrass_model.self_s": secs("enriques.k3_weierstrass_model"),
        "enriques.restrict.self_s": secs("enriques.restrict"),
        "density.enumerate.self_s": secs("density.enumerate"),
        "density.certify_and_translate.self_s": secs("density.certify_and_translate"),
        "density.certified_ratio": certified / fibers if fibers else 0.0,
        "density.report_to_json.self_s": secs("density.report_to_json"),
        "density.report_to_csv.self_s": secs("density.report_to_csv"),
        "specfile.parse_spec.self_s": secs("specfile.parse_spec"),
        "cli.main.self_s": secs("cli.main"),
    }
    for reason in _SKIP_REASONS:
        out["density.skipped." + reason.replace(" ", "_")] = skipped[reason]
    return out


def _parent_names(tracer: Tracer):
    names, ids, parents = tracer.names, tracer._name, tracer._parent
    for idx in range(len(ids)):
        parent = parents[idx]
        yield names[ids[idx]], names[ids[parent]] if parent >= 0 else None
