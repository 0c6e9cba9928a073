"""Density pipeline tests: enumeration, certification, translation sweeps,
family strategy, and byte-stable reporting."""

from __future__ import annotations

import json
from fractions import Fraction as F

import pytest

from fibdense.density import (
    CertificationResult,
    DensityReport,
    Exhausted,
    Skipped,
    certify_and_translate,
    densify,
    enumerate_multisection_points,
    family_strategy,
    report_to_csv,
    report_to_json,
)
from fibdense.elliptic import INFINITY, EllipticCurve, InfiniteOrder, Point, Torsion, ec_add
from fibdense.errors import (
    DomainError,
    EmptyFamily,
    NoGeneratorSupplied,
    UnsupportedRepresentation,
)
from fibdense.exactmath import enumerate_rationals, poly, ratfn
from fibdense.fibration import (
    ConstantX,
    FibrationModel,
    GraphOnQuartic,
    NoOrderUpTo,
    Parametrized,
    SingularFiber,
    SplitList,
    ZeroSection,
    order_probe,
    ramification_points,
    specialize,
)

WORKED = FibrationModel(ratfn([0, 1]), ratfn([1]))
CUSPFIB = FibrationModel(ratfn([0]), ratfn([0, 1]))
TRISECTION = Parametrized(ratfn([-1, 0, 0, -1], [0, 1]), ratfn([0, 1]), ratfn([0]))

# w^2 = z^4 + (t^4 + t^3 + t^2 + t + 1), graph z = 0, covering curve generator (0, 1)
PENTA = poly([1, 1, 1, 1, 1])
GRAPH = GraphOnQuartic(
    p=poly([0]),
    fiber_coeffs=(PENTA, poly([0]), poly([0]), poly([0]), poly([1])),
    generator=(F(0), F(1)),
)
GRAPH_FIB = FibrationModel(ratfn([-4, -4, -4, -4, -4]), ratfn([0]))


class TestEnumerate:
    def test_constant_x_worked(self):
        pts = enumerate_multisection_points(WORKED, ConstantX(F(1)), 3)
        assert (F(2), Point(F(1), F(2))) in pts
        assert (F(-2), Point(F(1), F(0))) in pts
        # parameter is the y-coordinate; fiber parameter solves y^2 = t + 2
        for b, p in pts:
            assert p.x == F(1)
            assert p.y * p.y == b + 2

    def test_constant_x_needs_linear_parameter_equation(self):
        quad = FibrationModel(ratfn([0, 0, 1]), ratfn([1]))  # a = t^2
        with pytest.raises(UnsupportedRepresentation):
            enumerate_multisection_points(quad, ConstantX(F(1)), 2)

    def test_zero_section(self):
        pts = enumerate_multisection_points(WORKED, ZeroSection(), 3)
        params = enumerate_rationals(3)
        assert pts == [(b, INFINITY) for b in params]

    def test_parametrized(self):
        pts = enumerate_multisection_points(WORKED, TRISECTION, 4)
        assert pts, "the trisection has rational points at every nonzero parameter"
        for b, p in pts:
            # points are (s, 0) with b = -(s^3+1)/s
            s = p.x
            assert p.y == 0
            assert b == -(s**3 + 1) / s

    def test_split_list(self):
        split = SplitList(((ratfn([0]), ratfn([1])), (ratfn([0]), ratfn([-1]))))
        pts = enumerate_multisection_points(WORKED, split, 2)
        params = enumerate_rationals(2)
        assert len(pts) == 2 * len(params)
        assert (params[0], Point(F(0), F(1))) in pts

    def test_graph_multiples_distinct_and_on_fiber(self):
        pts = enumerate_multisection_points(GRAPH_FIB, GRAPH, 5)
        keys = [(b, p.x, p.y) for b, p in pts]
        assert len(keys) == len(set(keys))
        assert len(pts) >= 5
        for b, p in pts:
            fiber = specialize(GRAPH_FIB, b)
            assert isinstance(fiber, EllipticCurve)
            assert fiber.contains(p)

    def test_graph_without_generator(self):
        bare = GraphOnQuartic(p=GRAPH.p, fiber_coeffs=GRAPH.fiber_coeffs)
        with pytest.raises(NoGeneratorSupplied):
            enumerate_multisection_points(GRAPH_FIB, bare, 3)

    def test_graph_generator_off_cover(self):
        bad = GraphOnQuartic(
            p=GRAPH.p, fiber_coeffs=GRAPH.fiber_coeffs, generator=(F(0), F(2))
        )
        with pytest.raises(DomainError):
            enumerate_multisection_points(GRAPH_FIB, bad, 3)

    def test_graph_cover_must_be_quartic(self):
        cubic_cover = GraphOnQuartic(
            p=poly([0]),
            fiber_coeffs=(poly([1, 0, 0, 1]), poly([0]), poly([0]), poly([0]), poly([1])),
            generator=(F(0), F(1)),
        )
        fib = FibrationModel(ratfn([-4, 0, 0, -4]), ratfn([0]))
        with pytest.raises(UnsupportedRepresentation):
            enumerate_multisection_points(fib, cubic_cover, 3)


class TestCertifyAndTranslate:
    def test_worked_fiber_certifies(self):
        result, points = certify_and_translate(
            WORKED, ConstantX(F(1)), F(2), Point(F(1), F(2)), 3
        )
        assert result.verdict == InfiniteOrder()
        assert result.tau == Point(F(-7, 16), F(-13, 64))
        assert len(points) == 4
        assert len(set(points)) == 4
        assert points[0] == Point(F(1), F(2))
        fiber = specialize(WORKED, F(2))
        assert points[1] == ec_add(fiber, points[0], result.tau)
        for p in points:
            assert fiber.contains(p)

    def test_two_torsion_base_point_is_torsion(self):
        result, points = certify_and_translate(
            WORKED, ConstantX(F(1)), F(-2), Point(F(1), F(0)), 3
        )
        assert result.verdict == Torsion(1)
        assert result.tau is INFINITY
        assert points == []

    def test_singular_fiber_skipped(self):
        result, points = certify_and_translate(
            CUSPFIB, ZeroSection(), F(0), INFINITY, 3
        )
        assert result.verdict == Skipped("singular")
        assert points == []

    def test_large_trace_field_skipped(self):
        # the fiber cubic at b = 1 is irreducible, so the trisection cycle
        # cannot be built over degree <= 2 fields
        result, points = certify_and_translate(
            WORKED, TRISECTION, F(1), Point(F(0), F(1)), 3
        )
        assert result.verdict == Skipped("trace field too large")
        assert points == []


class TestDensify:
    def test_worked_example_thresholds(self):
        report = densify(WORKED, ConstantX(F(1)), 10, 5)
        assert report.fibers_certified >= 40
        assert report.points_emitted >= 200

    def test_trisection_certifies_nothing(self):
        report = densify(WORKED, TRISECTION, 6, 3)
        assert report.fibers_attempted > 0
        assert report.fibers_certified == 0
        assert report.points_emitted == 0

    def test_zero_height_bound(self):
        report = densify(WORKED, ConstantX(F(1)), 0, 5)
        assert report == DensityReport(0, 0, 0, 0, ())

    def test_soundness_every_point_on_fiber(self):
        report = densify(WORKED, ConstantX(F(1)), 6, 4)
        checked = 0
        for outcome in report.per_fiber:
            fiber = specialize(WORKED, outcome.b)
            for _k, pt in outcome.points:
                assert isinstance(fiber, EllipticCurve)
                assert fiber.contains(pt)
                checked += 1
        assert checked == report.points_emitted > 0

    def test_translates_pairwise_distinct_on_certified_fibers(self):
        report = densify(WORKED, ConstantX(F(1)), 8, 5)
        for outcome in report.per_fiber:
            if isinstance(outcome.result.verdict, InfiniteOrder):
                translate_keys = [(pt.x, pt.y) for k, pt in outcome.points]
                assert len(translate_keys) == len(set(translate_keys))
                ks = [k for k, _pt in outcome.points]
                assert set(range(6)).issubset(set(ks) | {0})

    def test_monotonicity_in_height_bound(self):
        small = densify(WORKED, ConstantX(F(1)), 5, 3)
        large = densify(WORKED, ConstantX(F(1)), 8, 3)
        assert large.fibers_certified >= small.fibers_certified
        assert large.points_emitted >= small.points_emitted
        assert large.fibers_attempted >= small.fibers_attempted

    def test_deterministic_across_threads(self):
        one = densify(WORKED, ConstantX(F(1)), 7, 4, threads=1)
        four = densify(WORKED, ConstantX(F(1)), 7, 4, threads=4)
        assert report_to_json(one) == report_to_json(four)
        assert report_to_csv(one) == report_to_csv(four)

    def test_per_fiber_sorted_by_parameter(self):
        report = densify(WORKED, ConstantX(F(1)), 6, 3)
        params = [o.b for o in report.per_fiber]
        assert params == sorted(params)

    def test_torsion_fibers_tallied(self):
        report = densify(WORKED, ConstantX(F(1)), 10, 3)
        torsion_fibers = [
            o for o in report.per_fiber if isinstance(o.result.verdict, Torsion)
        ]
        # the tangent fiber at b = -2 only carries the 2-torsion base point
        assert any(o.b == F(-2) for o in torsion_fibers)


class TestFamilyStrategy:
    def test_second_member_chosen(self):
        idx, report = family_strategy(WORKED, [TRISECTION, ConstantX(F(1))], 6, 3)
        assert idx == 1
        assert report.fibers_certified >= 1

    def test_first_member_chosen(self):
        idx, report = family_strategy(WORKED, [ConstantX(F(1))], 6, 3)
        assert idx == 0

    def test_empty_family(self):
        with pytest.raises(EmptyFamily):
            family_strategy(WORKED, [], 6, 3)

    def test_exhausted(self):
        got = family_strategy(WORKED, [TRISECTION], 6, 3)
        assert isinstance(got, Exhausted)
        assert len(got.reports) == 1
        assert got.reports[0].fibers_certified == 0


class TestReports:
    def test_csv_shape(self):
        report = densify(WORKED, ConstantX(F(1)), 6, 3)
        csv = report_to_csv(report)
        lines = csv.strip().split("\n")
        assert lines[0] == "b,x,y,k"
        assert len(lines) - 1 == report.points_emitted
        for line in lines[1:]:
            parts = line.split(",")
            assert len(parts) == 4
            b, x, y = F(parts[0]), F(parts[1]), F(parts[2])
            fiber = specialize(WORKED, b)
            assert fiber.contains(Point(x, y))

    def test_json_round_trip(self):
        report = densify(WORKED, ConstantX(F(1)), 5, 3)
        doc = json.loads(report_to_json(report))
        assert doc["fibers_attempted"] == report.fibers_attempted
        assert doc["fibers_certified"] == report.fibers_certified
        assert doc["points_emitted"] == report.points_emitted
        assert len(doc["per_fiber"]) == report.fibers_attempted
        emitted = sum(len(entry["points"]) for entry in doc["per_fiber"])
        assert emitted == report.points_emitted

    def test_byte_stability(self):
        a = report_to_json(densify(WORKED, ConstantX(F(1)), 5, 3))
        b = report_to_json(densify(WORKED, ConstantX(F(1)), 5, 3))
        assert a == b


class TestCrossModuleConsistency:
    def test_salient_ramification_forces_no_order(self):
        """A multisection with salient ramification can have no finite order;
        the probe must agree at every cap."""
        report = ramification_points(WORKED, ConstantX(F(1)))
        assert any(e.salient for e in report)
        for m_max in (2, 6, 12, 18):
            got = order_probe(WORKED, ConstantX(F(1)), [F(2), F(7), F(14)], m_max)
            assert got == NoOrderUpTo(m_max)
