"""Rational-point production on elliptic fibrations.

The pipeline: enumerate rational points of a multisection up to a parameter
height bound, certify that the class-map image tau(p) has infinite order on
its fiber, then translate p by multiples of tau(p) to flood the fiber with
verified rational points. Reports aggregate per-fiber outcomes and stay
byte-stable across runs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from .elliptic import (
    EllipticCurve,
    InfiniteOrder,
    Point,
    Torsion,
    _add_unchecked,
    ec_add,  # unused here; bench/tracing.py wraps this name
    ec_mul,  # unused here; bench/tracing.py wraps this name
    naive_height,
    torsion_certify,
)
from .errors import (
    DomainError,
    PoleAtParameter,
    SingularFiberSkip,
    TraceFieldTooLarge,
    UnsupportedRepresentation,
)
from .exactmath import rat_to_string
from .fibration import (
    FibrationModel,
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
    fiber: EllipticCurve | None = None  # the smooth fiber at b; None at a pole or singular fiber


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


def enumerate_multisection_points(model: FibrationModel, m, height_bound: int):
    """(fiber parameter, point) pairs for every rational point of the
    multisection with parameter height up to the bound, in enumeration order."""
    if height_bound < 0:
        raise UnsupportedRepresentation("height bound must be nonnegative")
    return m.points(model, height_bound)


def certify_and_translate(model, m, b, p: Point, k_max: int):
    """Certify tau(p) non-torsion and emit the translates p + k tau(p).

    Returns (CertificationResult, points); the verdict is the torsion
    certificate of tau(p) or a Skipped reason. The list is empty unless the
    verdict is InfiniteOrder, in which case it holds k_max + 1 translates
    indexed from k = 0 (the base point itself).

    The translates are not checked on the fiber here: p is checked by
    tau_map and tau(p) by torsion_certify, and densify re-verifies every
    point it emits.
    """
    try:
        fiber = specialize(model, b)
    except PoleAtParameter:
        return CertificationResult(b, p, None, Skipped("pole")), []
    except SingularFiberSkip:
        return CertificationResult(b, p, None, Skipped("singular")), []
    try:
        q = tau_map(model, m, p, b, fiber=fiber)
    except TraceFieldTooLarge:
        return CertificationResult(b, p, None, Skipped("trace field too large"), fiber), []
    cert = torsion_certify(fiber, q)
    points = []
    if isinstance(cert, InfiniteOrder):
        points.append(p)
        for _k in range(k_max):
            points.append(_add_unchecked(fiber, points[-1], q))
    return CertificationResult(b, p, q, cert, fiber), points


def _fiber_work(model, m, b, base_points, k_max):
    """Try each rational base point once; emit the first certified fiber's
    translates plus every enumerated base point on that fiber."""
    first_result = None
    for p in base_points:
        result, translates = certify_and_translate(model, m, b, p, k_max)
        if first_result is None:
            first_result = result
        if isinstance(result.verdict, InfiniteOrder):
            # the translates p + k tau are pairwise distinct, since
            # (i - j) tau = O forces i = j for a non-torsion tau; only the
            # extra base points can repeat an emitted point
            emitted = [(k, pt) for k, pt in enumerate(translates) if not pt.is_infinity]
            for extra in base_points:
                if not extra.is_infinity and all(extra != pt for _k, pt in emitted):
                    emitted.append((0, extra))
            for _k, pt in emitted:
                if not result.fiber.contains(pt):
                    raise DomainError(f"point {pt} failed on-curve re-verification")
            return FiberOutcome(b, result, tuple(emitted))
    return FiberOutcome(b, first_result, ())


def densify(model, m, height_bound: int, k_max: int = 5):
    """Sweep the multisection enumeration and aggregate a density report,
    deterministically sorted by fiber parameter."""
    pairs = enumerate_multisection_points(model, m, height_bound)
    fibers: dict[Rat, list[Point]] = {}
    for b, p in pairs:
        bucket = fibers.setdefault(b, [])
        if p not in bucket:
            bucket.append(p)

    outcomes = [_fiber_work(model, m, b, pts, k_max) for b, pts in fibers.items()]

    outcomes.sort(key=lambda o: o.b)
    certified = sum(1 for o in outcomes if isinstance(o.result.verdict, InfiniteOrder))
    max_height = max((naive_height(pt) for o in outcomes for _k, pt in o.points), default=0)
    return DensityReport(
        fibers_attempted=len(outcomes),
        fibers_certified=certified,
        # fibers have distinct b and _fiber_work emits no point twice
        points_emitted=sum(len(o.points) for o in outcomes),
        max_height_seen=max_height,
        per_fiber=tuple(outcomes),
    )


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


def _fiber_json(o: FiberOutcome):
    return {
        "b": rat_to_string(o.b),
        **_verdict_json(o.result.verdict),
        "base": _point_json(o.result.base),
        "tau": _point_json(o.result.tau) if o.result.tau is not None else None,
        "points": [
            {"k": k, "x": rat_to_string(pt.x), "y": rat_to_string(pt.y)} for k, pt in o.points
        ],
    }


def report_to_json(report: DensityReport, out) -> None:
    """Write the report as JSON to the text file out, byte for byte
    json.dumps(doc, indent=2) + "\n", one fiber at a time, so the whole
    string is never held."""
    out.write("{\n")
    for key in ("fibers_attempted", "fibers_certified", "points_emitted", "max_height_seen"):
        out.write(f'  "{key}": {getattr(report, key)},\n')
    out.write('  "per_fiber": [')
    sep = "\n    "
    for o in report.per_fiber:
        # json.dumps escapes newlines inside strings, so every newline in an
        # entry is structural and takes the list's extra indentation
        out.write(sep + json.dumps(_fiber_json(o), indent=2).replace("\n", "\n    "))
        sep = ",\n    "
    out.write("\n  ]\n}\n" if report.per_fiber else "]\n}\n")


def report_to_csv(report: DensityReport, out) -> None:
    """Write the emitted points as CSV rows b,x,y,k under a header line to
    the text file out, one fiber at a time."""
    out.write("b,x,y,k\n")
    for o in report.per_fiber:
        b = rat_to_string(o.b)
        out.write(
            "".join(f"{b},{rat_to_string(pt.x)},{rat_to_string(pt.y)},{k}\n" for k, pt in o.points)
        )
