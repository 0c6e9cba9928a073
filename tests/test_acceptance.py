"""Acceptance gate.

One test per product-level guarantee. Every test prints a single
``[PASS]``/``[FAIL]`` line (with its wall-clock time and budget) directly to
the real stdout so the gate is readable even under pytest's capture.
"""

from __future__ import annotations

import json
import random
import sys
import time
from contextlib import contextmanager
from fractions import Fraction as F

import sympy

from fibdense.cli import main
from fibdense.elliptic import (
    INFINITY,
    EllipticCurve,
    InfiniteOrder,
    Point,
    Torsion,
    ec_add,
    ec_mul,
    ec_neg,
    ec_sub,
    j_invariant,
    quartic_j_invariant,
    quartic_to_weierstrass,
    torsion_certify,
)
from fibdense.enriques import (
    ConeQuartic,
    RamificationData,
    bitangent_sections,
    k3_weierstrass_model,
    multisection_from_section,
    restrict_quartic_to_cone,
    tangent_line,
)
from fibdense.errors import SingularFiberSkip, TraceFieldTooLarge
from fibdense.exactmath import Poly, enumerate_rationals, poly, ratfn
from fibdense.fibration import (
    ConstantX,
    FibrationModel,
    NonTorsion,
    Order,
    Parametrized,
    ZeroSection,
    fiber_cycle,
    order_probe,
    quartic_on_graph,
    specialize,
    tau_map,
)
from fibdense.density import densify


def _emit(capfd, line: str) -> None:
    if capfd is None:
        print(line, file=sys.__stdout__, flush=True)
        return
    with capfd.disabled():
        print(line, flush=True)


@contextmanager
def criterion(name: str, budget_seconds: float | None = None, capfd=None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        elapsed = time.perf_counter() - start
        _emit(capfd, f"[FAIL] {name} ({elapsed:.2f}s)")
        raise
    elapsed = time.perf_counter() - start
    over = budget_seconds is not None and elapsed > budget_seconds
    status = "FAIL" if over else "PASS"
    budget = "" if budget_seconds is None else f", budget {budget_seconds:.0f}s"
    _emit(capfd, f"[{status}] {name} ({elapsed:.2f}s{budget})")
    assert not over, f"{name!r} exceeded its {budget_seconds}s budget"


WORKED = FibrationModel(ratfn([0, 1]), ratfn([1]))
TRISECTION = Parametrized(ratfn([-1, 0, 0, -1], [0, 1]), ratfn([0, 1]), ratfn([0]))
CONE = ConeQuartic({(0, 0, 0, 4): 1, (1, 1, 2, 0): 1, (4, 0, 0, 0): -2})

WORKED_SPEC = """{
  "fibration": {"a": {"num": ["0", "1"]}, "b": {"num": ["1"]}},
  "multisection": {"kind": "constant_x", "x": "1"},
  "params": {"height_bound": 5, "k_max": 5}
}"""

BITANGENT_SPEC = """{
  "cone_quartic": {"0004": "1", "1120": "1", "4000": "-2"},
  "points": [["1", "1"], ["-1", "1"], ["1", "-1"]]
}"""


def test_group_law(capfd):
    with criterion("group law: 10 curves x 300 random points", 5.0, capfd):
        seeds = [
            (0, 2, 3),
            (2, 1, 2),
            (-2, 3, 5),
            (1, 0, 1),
            (-1, 1, 1),
            (3, 2, 4),
            (-3, 2, 1),
            (5, 1, 3),
            (-5, 3, 4),
            (4, 0, 2),
        ]
        rng = random.Random(2024)
        for a, x0, y0 in seeds:
            b = F(y0) ** 2 - F(x0) ** 3 - a * F(x0)
            curve = EllipticCurve(F(a), b)
            g = Point(F(x0), F(y0))
            assert curve.contains(g)
            points = [ec_mul(curve, rng.randint(-12, 12), g) for _ in range(300)]
            for i in range(0, 300, 3):
                p, q, r = points[i], points[i + 1], points[i + 2]
                assert ec_add(curve, ec_add(curve, p, q), r) == ec_add(curve, p, ec_add(curve, q, r))
            for i in range(0, 300, 2):
                p, q = points[i], points[i + 1]
                assert ec_add(curve, p, q) == ec_add(curve, q, p)
            for p in points:
                assert ec_add(curve, p, INFINITY) == p
                assert ec_add(curve, p, ec_neg(p)) == INFINITY


def _order_by_repeated_addition(curve: EllipticCurve, p: Point, cap: int) -> int | None:
    acc = INFINITY
    for i in range(1, cap + 1):
        acc = ec_add(curve, acc, p)
        if acc.is_infinity:
            return i
    return None


def test_torsion_certification(capfd):
    with criterion("torsion certification vs repeated-addition oracle", 1.0, capfd):
        mazur = set(range(1, 11)) | {12}
        cases = [
            (EllipticCurve(F(0), F(1)), Point(F(2), F(3))),
            (EllipticCurve(F(0), F(1)), Point(F(0), F(1))),
            (EllipticCurve(F(0), F(1)), Point(F(-1), F(0))),
            (EllipticCurve(F(-1), F(0)), Point(F(0), F(0))),
            (EllipticCurve(F(-1), F(0)), Point(F(1), F(0))),
            (EllipticCurve(F(4), F(0)), Point(F(2), F(4))),
            (EllipticCurve(F(-43), F(166)), Point(F(3), F(8))),
        ]
        got = {}
        for curve, p in cases:
            verdict = torsion_certify(curve, p)
            assert isinstance(verdict, Torsion)
            assert verdict.order in mazur
            assert _order_by_repeated_addition(curve, p, 12) == verdict.order
            got[(curve.a, curve.b, p.x, p.y)] = verdict.order
        assert got[(F(0), F(1), F(2), F(3))] == 6
        assert torsion_certify(EllipticCurve(F(0), F(-2)), Point(F(3), F(5))) == InfiniteOrder()
        assert _order_by_repeated_addition(EllipticCurve(F(0), F(-2)), Point(F(3), F(5)), 12) is None


def _trisection_samples(n):
    out = []
    k = 1
    while len(out) < n:
        x0 = F(k)
        b = -(x0**3 + 1) / x0
        if b not in out:
            out.append(b)
        k += 1
    return out


def test_tau_difference_law_and_totality(capfd):
    with criterion("tau difference law (200 fiber pairs) and totality", 30.0, capfd):
        def embed_point(field, p):
            if p.is_infinity:
                return INFINITY
            return Point(field.embed(p.x), field.embed(p.y))

        def embed_curve(field, e):
            return EllipticCurve(field.embed(e.a), field.embed(e.b))

        rng = random.Random(41)
        checked = 0

        m = ConstantX(F(1))
        for b in [F(2), F(7), F(14), F(23), F(34), F(47), F(9, 4) - 2]:
            e = specialize(WORKED, b)
            pts = [pt for pt, _k in fiber_cycle(m, e, b)]
            if len(pts) < 2 or any(not isinstance(p.x, F) for p in pts):
                continue
            p, q = pts
            lhs = ec_sub(e, tau_map(e, m, p, b), tau_map(e, m, q, b))
            assert lhs == ec_mul(e, m.degree, ec_sub(e, p, q))
            checked += 1

        for _ in range(120):
            b = F(rng.randint(-50, 50), rng.randint(1, 12))
            e = specialize(WORKED, b)
            g = Point(F(0), F(1))
            p = ec_mul(e, rng.randint(1, 4), g)
            q = ec_mul(e, rng.randint(5, 8), g)
            if p.is_infinity or q.is_infinity:
                continue
            lhs = ec_sub(e, tau_map(e, ZeroSection(), p, b), tau_map(e, ZeroSection(), q, b))
            assert lhs == ec_sub(e, p, q)
            checked += 1

        for b in _trisection_samples(40):
            e = specialize(WORKED, b)
            cycle = fiber_cycle(TRISECTION, e, b)
            rational = [pt for pt, _k in cycle if pt.is_infinity or isinstance(pt.x, F)]
            others = [pt for pt, _k in cycle if not pt.is_infinity and not isinstance(pt.x, F)]
            p = rational[0]
            for q in others[:1]:
                K = q.x.field
                ek = embed_curve(K, e)
                taup = tau_map(e, TRISECTION, p, b)
                tauq = tau_map(e, TRISECTION, q, b)
                if taup.is_infinity or isinstance(taup.x, F):
                    taup = embed_point(K, taup)
                if tauq.is_infinity or isinstance(tauq.x, F):
                    tauq = embed_point(K, tauq)
                assert ec_sub(ek, taup, tauq) == ec_mul(ek, 3, ec_sub(ek, embed_point(K, p), q))
                checked += 1
            assert tau_map(e, TRISECTION, p, b) == ec_mul(e, 3, p)
            checked += 1
        assert checked >= 200

        # totality: tau never errors on smooth fibers with small trace fields
        singular = set(WORKED.singular_parameters())
        for b in enumerate_rationals(20):
            if b in singular:
                continue
            e = specialize(WORKED, b)
            for multi in (ZeroSection(), ConstantX(F(1)), TRISECTION):
                try:
                    cycle = fiber_cycle(multi, e, b)
                except (TraceFieldTooLarge, SingularFiberSkip):
                    continue
                assert tau_map(e, multi, cycle[0][0], b) is not None


def test_salience_and_order_probe_consistency(capfd):
    with criterion("salient ramification / order probe consistency", 10.0, capfd):
        report = ConstantX(F(1)).ramification(WORKED)
        assert len(report.points) == 1
        entry = report.points[0]
        assert (entry.b, entry.point, entry.salient) == (F(-2), Point(F(1), F(0)), True)
        assert order_probe(WORKED, ConstantX(F(1)), [F(2), F(7), F(14)]) == NonTorsion(witness=F(2))

        assert order_probe(WORKED, TRISECTION, _trisection_samples(10)) == Order(2)
        tri_report = TRISECTION.ramification(WORKED)
        assert all(not e.salient for e in tri_report.points)


def test_density_regression(capfd):
    with criterion("density sweep: height 10", 60.0, capfd):
        report = densify(WORKED, ConstantX(F(1)), 10, 5)
        assert report.fibers_certified >= 40
        assert report.points_emitted >= 200
        triples = set()
        for outcome in report.per_fiber:
            fiber = specialize(WORKED, outcome.b)
            for _k, p in outcome.points:
                assert fiber.contains(p)
                triples.add((outcome.b, p.x, p.y))
        assert len(triples) == report.points_emitted


def _branch_count_genus(g: Poly) -> int:
    t = sympy.symbols("t")
    expr = sum(sympy.Rational(c.numerator, c.denominator) * t**i for i, c in enumerate(g.coeffs))
    _, factors = sympy.factor_list(expr, t)
    k = sum(sympy.Poly(f, t).degree() for f, mult in factors if mult % 2)
    if g.degree % 2:
        k += 1
    return k // 2 - 1


def test_cone_quartic_pipeline(capfd):
    with criterion("cone pipeline: restriction, tangents, bitangents, genus", 60.0, capfd):
        data = restrict_quartic_to_cone(CONE)
        assert data.coeffs[0] == poly([-2, 0, 0, 0, 1])
        assert data.coeffs[4] == poly([1])
        assert all(data.coeffs[i].is_zero for i in (1, 2, 3))

        line = tangent_line(data, (1, 1))
        for lam in (F(0), F(1), F(-4), F(7, 3)):
            s = line.base + line.direction * lam
            assert [s.coefficient(k) for k in range(3)] == [2 + lam, -1 - 2 * lam, lam]

        a_factor = poly([-1, 1, 0, 1])
        b_factor = poly([-7, -14, -8, -2])
        pair = RamificationData(
            (a_factor * b_factor, poly([0]), -(a_factor + b_factor), poly([0]), poly([1]))
        )
        for quartic, base in ((data, (1, 1)), (pair, (1, 1))):
            for cand in bitangent_sections(quartic, base):
                g = quartic_on_graph(quartic.coeffs, cand.section)
                t0 = F(base[0])
                assert g(t0) == 0 and g.derivative()(t0) == 0
                for t1, _z1 in cand.second_tangencies:
                    assert t1 != t0
                    assert g(t1) == 0 and g.derivative()(t1) == 0

        rng = random.Random(43)
        third = RamificationData(
            (poly([1, 0, 0, 1, 0, 0, 0, 0, 1]), poly([0]), poly([0]), poly([0]), poly([1]))
        )
        quartics = [data, pair, third]
        checked = 0
        for quartic in quartics:
            for _ in range(34):
                s = poly([F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(3)])
                g = quartic_on_graph(quartic.coeffs, s)
                if g.is_zero:
                    continue
                assert multisection_from_section(quartic, s).genus == _branch_count_genus(g)
                checked += 1
        assert checked >= 100


def test_quartic_weierstrass_charts(capfd):
    with criterion("quartic <-> Weierstrass fiber charts", 10.0, capfd):
        data = restrict_quartic_to_cone(CONE)
        k3 = k3_weierstrass_model(data)
        for t0 in (F(0), F(1), F(3), F(1, 2), F(-2)):
            fiber = specialize(k3.fibration, t0)
            assert j_invariant(fiber) == quartic_j_invariant(tuple(c(t0) for c in k3.fiber_coeffs))

        count = 0
        for t0 in (F(2), F(3), F(5), F(1, 2), F(5, 2), F(-2), F(-3), F(4), F(7), F(3, 2)):
            a, b, fwd, inv, _e2 = quartic_to_weierstrass(tuple(c(t0) for c in k3.fiber_coeffs))
            curve = EllipticCurve(a, b)
            assert curve == specialize(k3.fibration, t0)
            base = Point(2 * t0 * t0, 4 * t0)
            slice_poly = Poly([c(t0) for c in k3.fiber_coeffs])
            for k in range(1, 11):
                p = ec_mul(curve, k, base)
                z, w = inv(p)
                assert w * w == slice_poly(z)
                assert fwd(z, w) == p
                count += 1
        assert count == 100


def test_deterministic_artifacts(tmp_path, capfd):
    with criterion("byte-identical artifacts across repeated runs", capfd=capfd):
        spec_a = tmp_path / "density.json"
        spec_a.write_text(WORKED_SPEC, encoding="utf-8")
        spec_b = tmp_path / "bitangents.json"
        spec_b.write_text(BITANGENT_SPEC, encoding="utf-8")

        blobs = []
        for tag in ("d1", "d2"):
            out = tmp_path / tag
            assert main(["densify", str(spec_a), "--out", str(out)]) == 0
            blobs.append(((out / "report.json").read_bytes(), (out / "points.csv").read_bytes()))
        assert blobs[0] == blobs[1]
        assert json.loads(blobs[0][0].decode("utf-8"))["fibers_attempted"] > 0

        blobs = []
        for tag in ("b1", "b2"):
            out = tmp_path / tag
            assert main(["enriques-bitangents", str(spec_b), "--out", str(out)]) == 0
            blobs.append((out / "bitangents.json").read_bytes())
        assert blobs[0] == blobs[1]
