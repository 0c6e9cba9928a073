"""Density pipeline tests: enumeration, certification, translation sweeps
and byte-stable reporting."""

from __future__ import annotations

import io
import json
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fibdense.density as density
from fibdense.density import (
    CertificationResult,
    DensityReport,
    FiberOutcome,
    Skipped,
    certify_and_translate,
    densify,
    enumerate_multisection_points,
    report_to_csv,
    report_to_json,
)
from fibdense.elliptic import (
    INFINITY,
    EllipticCurve,
    InfiniteOrder,
    Point,
    Torsion,
    ec_add,
    ec_mul,
)
from fibdense.errors import (
    DomainError,
    NoGeneratorSupplied,
    UnsupportedRepresentation,
)
from fibdense.exactmath import enumerate_rationals, poly, rat_to_string, ratfn
from fibdense.fibration import (
    ConstantX,
    FibrationModel,
    GraphOnQuartic,
    NonTorsion,
    Parametrized,
    SplitList,
    ZeroSection,
    order_probe,
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

    @pytest.mark.parametrize("k_max", [0, 1, 4])
    def test_translates_take_k_max_additions(self, k_max, monkeypatch):
        walks = []
        walk = density.translates
        monkeypatch.setattr(density, "translates", lambda *args: walks.append(args) or walk(*args))
        p = Point(F(1), F(2))
        result, points = certify_and_translate(WORKED, ConstantX(F(1)), F(2), p, k_max)
        assert result.verdict == InfiniteOrder()
        assert [(walked_p, walked_q, steps) for _fiber, walked_p, walked_q, steps in walks] == [
            (p, result.tau, k_max)
        ]
        fiber = specialize(WORKED, F(2))
        assert points == [ec_add(fiber, p, ec_mul(fiber, k, result.tau)) for k in range(k_max + 1)]

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

    def test_extra_base_point_equal_to_a_translate_emitted_once(self):
        m, b, p = ConstantX(F(1)), F(2), Point(F(1), F(2))
        result, translates = certify_and_translate(WORKED, m, b, p, 3)
        assert result.verdict == InfiniteOrder()
        other = Point(F(1), F(-2))
        assert other not in translates
        outcome = density._fiber_work(WORKED, m, b, [p, translates[2], other, INFINITY, other], 3)
        assert outcome.points == (*enumerate(translates), (0, other))

    def test_monotonicity_in_height_bound(self):
        small = densify(WORKED, ConstantX(F(1)), 5, 3)
        large = densify(WORKED, ConstantX(F(1)), 8, 3)
        assert large.fibers_certified >= small.fibers_certified
        assert large.points_emitted >= small.points_emitted
        assert large.fibers_attempted >= small.fibers_attempted

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


def _written(write, report) -> str:
    """What the report writer write puts into a text file."""
    buf = io.StringIO()
    write(report, buf)
    return buf.getvalue()


class TestReports:
    def test_csv_shape(self):
        report = densify(WORKED, ConstantX(F(1)), 6, 3)
        csv = _written(report_to_csv, report)
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
        doc = json.loads(_written(report_to_json, report))
        assert doc["fibers_attempted"] == report.fibers_attempted
        assert doc["fibers_certified"] == report.fibers_certified
        assert doc["points_emitted"] == report.points_emitted
        assert len(doc["per_fiber"]) == report.fibers_attempted
        emitted = sum(len(entry["points"]) for entry in doc["per_fiber"])
        assert emitted == report.points_emitted

    def test_byte_stability(self):
        a = _written(report_to_json, densify(WORKED, ConstantX(F(1)), 5, 3))
        b = _written(report_to_json, densify(WORKED, ConstantX(F(1)), 5, 3))
        assert a == b


def _reference_json(report):
    """report.json as one document dumped at once."""

    def point(p):
        return "inf" if p.is_infinity else [rat_to_string(p.x), rat_to_string(p.y)]

    def verdict(v):
        if isinstance(v, InfiniteOrder):
            return {"verdict": "non_torsion"}
        if isinstance(v, Torsion):
            return {"verdict": "torsion", "order": v.order}
        return {"verdict": "skipped", "reason": v.reason}

    doc = {
        "fibers_attempted": report.fibers_attempted,
        "fibers_certified": report.fibers_certified,
        "points_emitted": report.points_emitted,
        "max_height_seen": report.max_height_seen,
        "per_fiber": [
            {
                "b": rat_to_string(o.b),
                **verdict(o.result.verdict),
                "base": point(o.result.base),
                "tau": None if o.result.tau is None else point(o.result.tau),
                "points": [
                    {"k": k, "x": rat_to_string(pt.x), "y": rat_to_string(pt.y)}
                    for k, pt in o.points
                ],
            }
            for o in report.per_fiber
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


def _reference_csv(report):
    lines = ["b,x,y,k"]
    for o in report.per_fiber:
        for k, pt in o.points:
            lines.append(f"{rat_to_string(o.b)},{rat_to_string(pt.x)},{rat_to_string(pt.y)},{k}")
    return "\n".join(lines) + "\n"


def _one_fiber_report(result):
    return DensityReport(1, 0, 0, 0, (FiberOutcome(result.b, result, ()),))


class TestStreamedReports:
    CASES = {
        "empty": lambda: densify(WORKED, ConstantX(F(1)), 0, 5),
        "trace_field_too_large": lambda: _one_fiber_report(
            certify_and_translate(WORKED, TRISECTION, F(1), Point(F(0), F(1)), 3)[0]
        ),
        "singular": lambda: densify(CUSPFIB, ZeroSection(), 2, 3),
        "torsion": lambda: densify(WORKED, TRISECTION, 6, 3),
        "worked": lambda: densify(WORKED, ConstantX(F(1)), 10, 3),
    }

    def test_cases_cover_each_entry_shape(self):
        reports = {name: build() for name, build in self.CASES.items()}
        assert reports["empty"].per_fiber == ()
        for name, reason in (("trace_field_too_large", "trace field too large"), ("singular", "singular")):
            skipped = [o for o in reports[name].per_fiber if o.result.verdict == Skipped(reason)]
            assert skipped and all(o.result.tau is None for o in skipped)
        assert all(isinstance(o.result.verdict, Torsion) for o in reports["torsion"].per_fiber)
        verdicts = {type(o.result.verdict) for o in reports["worked"].per_fiber}
        assert {InfiniteOrder, Torsion} <= verdicts

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_streamed_files_equal_returned_strings(self, name, tmp_path):
        # the writers stream one fiber at a time; the files must still be
        # the documents dumped at once
        report = self.CASES[name]()
        for write, file_name in ((report_to_json, "report.json"), (report_to_csv, "points.csv")):
            with open(tmp_path / file_name, "w", encoding="utf-8", newline="") as fh:
                assert write(report, fh) is None
        text = (tmp_path / "report.json").read_text(encoding="utf-8")
        assert text == json.dumps(json.loads(text), indent=2) + "\n"
        assert text == _reference_json(report)
        assert (tmp_path / "points.csv").read_text(encoding="utf-8") == _reference_csv(report)


# free strings with every character class json escapes: quotes,
# backslashes, control characters and non-ASCII text
AWKWARD_TEXT = st.one_of(st.text(), st.text(alphabet='"\\/\n\t\x00\x7fé√€😀 az'))
RATIONALS = st.fractions() | st.integers(-(10**40), 10**40).map(F)
AFFINE = st.builds(Point, RATIONALS, RATIONALS)
FIBER_ENTRIES = st.builds(
    lambda b, base, tau, verdict, points: FiberOutcome(
        b, CertificationResult(b, base, tau, verdict), tuple(points)
    ),
    RATIONALS,
    st.just(INFINITY) | AFFINE,
    st.none() | st.just(INFINITY) | AFFINE,
    st.just(InfiniteOrder())
    | st.builds(Torsion, st.integers(1, 16))
    | st.builds(Skipped, AWKWARD_TEXT),
    st.lists(st.tuples(st.integers(0, 40), AFFINE), max_size=3),
)


@given(
    st.tuples(*[st.integers(0, 10**6)] * 4),
    st.lists(FIBER_ENTRIES, max_size=4),
)
@example((0, 0, 0, 0), [])
@example(
    (1, 0, 0, 0),
    [FiberOutcome(F(1), CertificationResult(F(1), INFINITY, None, Skipped('a "b"\\\n é√')), ())],
)
@settings(max_examples=200, deadline=None)
def test_report_json_is_the_indent_2_dump(counts, entries):
    report = DensityReport(*counts, per_fiber=tuple(entries))
    assert _written(report_to_json, report) == _reference_json(report)


class TestCrossModuleConsistency:
    def test_salient_ramification_forces_no_order(self):
        """A multisection with salient ramification can have no finite order;
        the probe must prove it."""
        report = ConstantX(F(1)).ramification(WORKED)
        assert any(e.salient for e in report.points)
        got = order_probe(WORKED, ConstantX(F(1)), [F(2), F(7), F(14)])
        assert got == NonTorsion(witness=F(2))
