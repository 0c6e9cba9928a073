"""Rational-point production on elliptic fibrations.

The pipeline: enumerate rational points of a multisection up to a parameter
height bound, certify that the class-map image tau(p) has infinite order on
its fiber, then translate p by multiples of tau(p) to flood the fiber with
verified rational points. Reports aggregate per-fiber outcomes and stay
byte-stable across runs and thread counts.
"""

from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction

from .elliptic import (
    InfiniteOrder,
    Point,
    Torsion,
    ec_add,
    ec_mul,  # unused here; bench/tracing.py wraps this name
    naive_height,
    torsion_certify,
)
from .errors import (
    DomainError,
    EmptyFamily,
    PoleAtParameter,
    SingularFiberSkip,
    TraceFieldTooLarge,
    UnsupportedRepresentation,
)
from .exactmath import rat_to_string
from .fibration import (
    FibrationModel,
    SingularFiber,
    specialize,
    tau_map,
)

Rat = Fraction


@dataclass(frozen=True)
class Skipped:
    reason: str


@dataclass(frozen=True)
class CertificationResult:
    b: Rat
    base: Point
    tau: Point | None
    verdict: InfiniteOrder | Torsion | Skipped


@dataclass(frozen=True)
class FiberOutcome:
    b: Rat
    result: CertificationResult
    points: tuple  # of (k, Point), k the translate index (0 = untranslated)


@dataclass(frozen=True)
class DensityReport:
    fibers_attempted: int
    fibers_certified: int
    points_emitted: int
    max_height_seen: int
    per_fiber: tuple  # of FiberOutcome, sorted by fiber parameter


@dataclass(frozen=True)
class Exhausted:
    reports: tuple


def enumerate_multisection_points(model: FibrationModel, m, height_bound: int):
    """(fiber parameter, point) pairs for every rational point of the
    multisection with parameter height up to the bound, in enumeration order."""
    if height_bound < 0:
        raise UnsupportedRepresentation("height bound must be nonnegative")
    return m.points(model, height_bound)


def certify_and_translate(model, m, b, p: Point, k_max: int, torsion_bound=None):
    """Certify tau(p) non-torsion and emit the translates p + k tau(p).

    Returns (CertificationResult, points); the verdict is the torsion
    certificate of tau(p) or a Skipped reason. The list is empty unless the
    verdict is InfiniteOrder, in which case it holds k_max + 1 translates
    indexed from k = 0 (the base point itself).
    """
    try:
        fiber = specialize(model, b)
    except PoleAtParameter:
        return CertificationResult(b, p, None, Skipped("pole")), []
    if isinstance(fiber, SingularFiber):
        return CertificationResult(b, p, None, Skipped("singular")), []
    try:
        q = tau_map(model, m, p, b)
    except TraceFieldTooLarge:
        return CertificationResult(b, p, None, Skipped("trace field too large")), []
    except SingularFiberSkip:
        return CertificationResult(b, p, None, Skipped("singular")), []
    cert = torsion_certify(fiber, q, bound=torsion_bound)
    points = []
    if isinstance(cert, InfiniteOrder):
        acc = p
        for _k in range(k_max + 1):
            points.append(acc)
            acc = ec_add(fiber, acc, q)
    return CertificationResult(b, p, q, cert), points


def _fiber_work(model, m, b, base_points, k_max, torsion_bound):
    """Try each rational base point once; emit the first certified fiber's
    translates plus every enumerated base point on that fiber."""
    first_result = None
    for p in base_points:
        result, translates = certify_and_translate(model, m, b, p, k_max, torsion_bound)
        if first_result is None:
            first_result = result
        if isinstance(result.verdict, InfiniteOrder):
            fiber = specialize(model, b)
            emitted = []
            seen = set()
            for k, pt in enumerate(translates):
                if pt.is_infinity:
                    continue
                if not fiber.contains(pt):
                    raise DomainError(f"translate {pt} failed on-curve re-verification")
                key = (pt.x, pt.y)
                if key not in seen:
                    seen.add(key)
                    emitted.append((k, pt))
            for extra in base_points:
                if extra.is_infinity:
                    continue
                if not fiber.contains(extra):
                    raise DomainError(f"base point {extra} failed on-curve re-verification")
                key = (extra.x, extra.y)
                if key not in seen:
                    seen.add(key)
                    emitted.append((0, extra))
            return FiberOutcome(b, result, tuple(emitted))
    return FiberOutcome(b, first_result, ())


def densify(model, m, height_bound: int, k_max: int = 5, torsion_bound=None, threads: int = 1):
    """Sweep the multisection enumeration and aggregate a density report,
    deterministically sorted by fiber parameter."""
    pairs = enumerate_multisection_points(model, m, height_bound)
    fibers: dict[Rat, list[Point]] = {}
    for b, p in pairs:
        bucket = fibers.setdefault(b, [])
        if p not in bucket:
            bucket.append(p)

    items = list(fibers.items())
    if threads > 1 and len(items) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            outcomes = list(
                pool.map(
                    lambda it: _fiber_work(model, m, it[0], it[1], k_max, torsion_bound),
                    items,
                )
            )
    else:
        outcomes = [_fiber_work(model, m, b, pts, k_max, torsion_bound) for b, pts in items]

    outcomes.sort(key=lambda o: o.b)
    certified = sum(1 for o in outcomes if isinstance(o.result.verdict, InfiniteOrder))
    distinct = set()
    max_height = 0
    for o in outcomes:
        for _k, pt in o.points:
            distinct.add((o.b, pt.x, pt.y))
            max_height = max(max_height, naive_height(pt))
    return DensityReport(
        fibers_attempted=len(outcomes),
        fibers_certified=certified,
        points_emitted=len(distinct),
        max_height_seen=max_height,
        per_fiber=tuple(outcomes),
    )


def family_strategy(model, family, height_bound: int, k_max: int = 5, torsion_bound=None, threads: int = 1):
    """Run densify over candidate multisections in order; return the first
    member that certifies a fiber, or Exhausted with every report."""
    family = list(family)
    if not family:
        raise EmptyFamily("family strategy needs at least one multisection")
    reports = []
    for idx, m in enumerate(family):
        report = densify(model, m, height_bound, k_max, torsion_bound, threads)
        if report.fibers_certified >= 1:
            return idx, report
        reports.append(report)
    return Exhausted(tuple(reports))


# -- serialization --


def _point_json(p: Point):
    if p.is_infinity:
        return "inf"
    return [rat_to_string(p.x), rat_to_string(p.y)]


def _verdict_json(v):
    if isinstance(v, InfiniteOrder):
        return {"verdict": "non_torsion"}
    if isinstance(v, Torsion):
        return {"verdict": "torsion", "order": v.order}
    return {"verdict": "skipped", "reason": v.reason}


def report_to_json(report: DensityReport) -> str:
    doc = {
        "fibers_attempted": report.fibers_attempted,
        "fibers_certified": report.fibers_certified,
        "points_emitted": report.points_emitted,
        "max_height_seen": report.max_height_seen,
        "per_fiber": [
            {
                "b": rat_to_string(o.b),
                **_verdict_json(o.result.verdict),
                "base": _point_json(o.result.base),
                "tau": _point_json(o.result.tau) if o.result.tau is not None else None,
                "points": [
                    {"k": k, "x": rat_to_string(pt.x), "y": rat_to_string(pt.y)}
                    for k, pt in o.points
                ],
            }
            for o in report.per_fiber
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


def report_to_csv(report: DensityReport) -> str:
    lines = ["b,x,y,k"]
    for o in report.per_fiber:
        for k, pt in o.points:
            lines.append(
                f"{rat_to_string(o.b)},{rat_to_string(pt.x)},{rat_to_string(pt.y)},{k}"
            )
    return "\n".join(lines) + "\n"
