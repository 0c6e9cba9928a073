"""Fibration-layer tests: specialization, fiber types, trace cycles, the
class map tau, order probing, ramification, and section differences."""

from __future__ import annotations

import random
from fractions import Fraction as F

import pytest

from fibdense.elliptic import (
    INFINITY,
    EllipticCurve,
    InfinityBranch,
    Point,
    QuarticModel,
    ec_mul,
    ec_sub,
    j_invariant,
    quartic_to_weierstrass,
)
from fibdense.errors import (
    DomainError,
    EmptySampleSet,
    PoleAtParameter,
    SingularFiberSkip,
    TraceFieldTooLarge,
)
from fibdense.exactmath import RatFn, divide_out_roots, enumerate_rationals, poly, ratfn
from fibdense.exactmath.numfield import NumFieldElement
from fibdense.fibration import (
    ConstantX,
    FibrationModel,
    GraphOnQuartic,
    NonTorsion,
    NoOrderUpTo,
    Order,
    Parametrized,
    SplitList,
    TorsionEvidence,
    UnresolvedRamification,
    ZeroSection,
    fiber_type,
    graph_cover_poly,
    odd_square_split,
    order_probe,
    section_difference_order,
    specialize,
    tau_map,
    trace_cycle,
)

# y^2 = x^3 + t x + 1: smooth over every rational parameter (4t^3 + 27 has no
# rational root), with section (0, 1)
WORKED = FibrationModel(ratfn([0, 1]), ratfn([1]))
# y^2 = x^3 + t (cusp at t = 0)
CUSPFIB = FibrationModel(ratfn([0]), ratfn([0, 1]))
# y^2 = x^3 + t x (type III at t = 0)
TXFIB = FibrationModel(ratfn([0, 1]), ratfn([0]))
# y^2 = x^3 - 3x + t (nodes at t = 2 and t = -2)
NODAL = FibrationModel(ratfn([-3]), ratfn([0, 1]))

# the 2-torsion 3-section {y = 0} of WORKED, parametrized by its x-coordinate:
# s -> (t, x, y) = (-(s^3+1)/s, s, 0)
TRISECTION = Parametrized(ratfn([-1, 0, 0, -1], [0, 1]), ratfn([0, 1]), ratfn([0]))


def trisection_samples(n):
    """Fiber parameters where the fiber cubic has a rational root, so the
    trisection cycle splits as Q + quadratic."""
    out = []
    k = 1
    while len(out) < n:
        x0 = F(k)
        b = -(x0**3 + 1) / x0
        if b not in out:
            out.append(b)
        k += 1
    return out


def embed_point(field, p):
    if p.is_infinity:
        return INFINITY
    return Point(field.embed(p.x), field.embed(p.y))


def embed_curve(field, e):
    return EllipticCurve(field.embed(e.a), field.embed(e.b))


class TestFibrationModel:
    def test_discriminant_formula(self):
        d = WORKED.discriminant
        assert d == RatFn(poly([-432, 0, 0, -64]))  # -16(4t^3 + 27)

    def test_zero_discriminant_rejected(self):
        with pytest.raises(DomainError):
            FibrationModel(ratfn([0]), ratfn([0]))

    def test_singular_parameters_nodal(self):
        assert NODAL.singular_parameters() == [F(-2), F(2)]

    def test_singular_parameters_worked_empty(self):
        assert WORKED.singular_parameters() == []

    def test_singular_parameters_include_poles(self):
        fib = FibrationModel(ratfn([1], [0, 1]), ratfn([1]))  # a = 1/t
        assert F(0) in fib.singular_parameters()


class TestSpecialize:
    def test_smooth_fiber(self):
        e = specialize(WORKED, F(2))
        assert e == EllipticCurve(F(2), F(1))
        assert WORKED.discriminant(F(2)) == -944  # -16 * 59

    def test_cusp_fiber(self):
        with pytest.raises(SingularFiberSkip, match="fiber at t = 0 is singular"):
            specialize(CUSPFIB, F(0))

    def test_node_fiber(self):
        with pytest.raises(SingularFiberSkip, match="fiber at t = 2 is singular"):
            specialize(NODAL, F(2))

    def test_pole(self):
        fib = FibrationModel(ratfn([1], [0, 1]), ratfn([1]))
        with pytest.raises(PoleAtParameter):
            specialize(fib, F(0))


class TestFiberType:
    def test_smooth_is_i0(self):
        ft = fiber_type(WORKED, F(2))
        assert (ft.ord_delta, ft.label, ft.irreducible) == (0, "I0", True)

    def test_cusp_is_type_ii(self):
        ft = fiber_type(CUSPFIB, F(0))
        assert ft.ord_delta == 2
        assert ft.ord_c4 is None  # c4 identically zero
        assert ft.label == "II"
        assert ft.irreducible is True

    def test_node_is_i1(self):
        ft = fiber_type(NODAL, F(2))
        assert (ft.ord_delta, ft.ord_c4, ft.label, ft.irreducible) == (1, 0, "I1", True)

    def test_type_iii_reported_other(self):
        ft = fiber_type(TXFIB, F(0))
        assert ft.ord_delta == 3
        assert ft.label == "Other"
        assert ft.irreducible is None

    def test_pole_raises(self):
        fib = FibrationModel(ratfn([1], [0, 1]), ratfn([1]))
        with pytest.raises(PoleAtParameter):
            fiber_type(fib, F(0))


class TestMultisectionShapes:
    def test_degrees(self):
        assert ZeroSection().degree == 1
        assert ConstantX(F(1)).degree == 2
        assert TRISECTION.degree == 3
        assert SplitList(((ratfn([0]), ratfn([1])), (ratfn([0]), ratfn([-1])))).degree == 2

    def test_graph_degree_and_validation(self):
        gq = GraphOnQuartic(
            p=poly([0]),
            fiber_coeffs=(poly([-2, 0, 0, 0, 1]), poly([0]), poly([0]), poly([0]), poly([1])),
        )
        assert gq.degree == 2
        with pytest.raises(DomainError):
            GraphOnQuartic(p=poly([0, 0, 0, 1]), fiber_coeffs=gq.fiber_coeffs)
        with pytest.raises(DomainError):
            GraphOnQuartic(p=poly([0]), fiber_coeffs=gq.fiber_coeffs[:4])
        with pytest.raises(DomainError):
            GraphOnQuartic(
                p=poly([0]),
                fiber_coeffs=(poly([1]), poly([0]), poly([0]), poly([0]), poly([2])),
            )


class TestTraceCycle:
    def test_constant_x_split_fiber(self):
        cycle, trace = trace_cycle(WORKED, ConstantX(F(1)), F(2))
        assert set(cycle.support) == {(Point(F(1), F(2)), 1), (Point(F(1), F(-2)), 1)}
        assert cycle.total_degree == 2
        assert trace.value is INFINITY

    def test_constant_x_tangent_fiber(self):
        cycle, trace = trace_cycle(WORKED, ConstantX(F(1)), F(-2))
        assert cycle.support == ((Point(F(1), F(0)), 2),)
        assert trace.value is INFINITY

    def test_constant_x_quadratic_fiber(self):
        # at b = 1 the vertical line x = 1 meets the fiber in conjugate points
        cycle, trace = trace_cycle(WORKED, ConstantX(F(1)), F(1))
        assert trace.value is INFINITY
        ys = [pt.y for pt, _ in cycle.support]
        assert all(isinstance(y, NumFieldElement) for y in ys)
        assert ys[0] == -ys[1]

    def test_zero_section(self):
        cycle, trace = trace_cycle(WORKED, ZeroSection(), F(5))
        assert cycle.support == ((INFINITY, 1),)
        assert trace.value is INFINITY

    def test_trisection_mixed_field_cycle(self):
        cycle, trace = trace_cycle(WORKED, TRISECTION, F(-2))
        assert cycle.total_degree == 3
        assert trace.value is INFINITY
        rational = [pt for pt, _ in cycle.support if isinstance(pt.x, F)]
        quadratic = [pt for pt, _ in cycle.support if isinstance(pt.x, NumFieldElement)]
        assert rational == [Point(F(1), F(0))]
        assert len(quadratic) == 2
        # conjugate pair
        assert quadratic[0].x.conjugate() == quadratic[1].x

    def test_trisection_irreducible_cubic_rejected(self):
        with pytest.raises(TraceFieldTooLarge):
            trace_cycle(WORKED, TRISECTION, F(1))

    def test_singular_fiber_skip(self):
        with pytest.raises(SingularFiberSkip):
            trace_cycle(CUSPFIB, ZeroSection(), F(0))

    def test_split_list(self):
        split = SplitList(((ratfn([0]), ratfn([1])), (ratfn([0]), ratfn([-1]))))
        cycle, trace = trace_cycle(WORKED, split, F(3))
        assert set(cycle.support) == {(Point(F(0), F(1)), 1), (Point(F(0), F(-1)), 1)}
        assert trace.value is INFINITY

    def test_parametrized_branch_at_infinity(self):
        # section (0, 1) reparametrized through t = 1/s; at b = 0 the only
        # preimage sits at s = infinity
        sec = Parametrized(ratfn([1], [0, 1]), ratfn([0]), ratfn([1]))
        assert sec.degree == 1
        cycle, trace = trace_cycle(WORKED, sec, F(0))
        assert cycle.support == ((Point(F(0), F(1)), 1),)
        assert trace.value == Point(F(0), F(1))

    def test_traces_always_rational(self):
        for b in [F(2), F(3), F(7, 2), F(-5, 3)]:
            for m in [ZeroSection(), ConstantX(F(1)), ConstantX(F(-2))]:
                _, trace = trace_cycle(WORKED, m, b)
                v = trace.value
                assert v.is_infinity or isinstance(v.x, F)


K3_GRAPH = GraphOnQuartic(
    p=poly([0]),
    fiber_coeffs=(poly([-2, 0, 0, 0, 1]), poly([0]), poly([0]), poly([0]), poly([1])),
)
# Weierstrass side of w^2 = z^4 + (t^4 - 2): y^2 = x^3 - 4(t^4 - 2)x
K3_FIB = FibrationModel(ratfn([8, 0, 0, 0, -4]), ratfn([0]))


class TestGraphOnQuartic:
    def test_cover_poly(self):
        assert graph_cover_poly(K3_GRAPH) == poly([-2, 0, 0, 0, 1])

    def test_cycle_and_trace(self):
        cycle, trace = trace_cycle(K3_FIB, K3_GRAPH, F(2))
        assert cycle.total_degree == 2
        # the two points are conjugate 2-torsion over Q(sqrt 14); their sum is
        # the rational 2-torsion point (0,0)
        assert trace.value == Point(F(0), F(0))
        for pt, _ in cycle.support:
            assert isinstance(pt.x, NumFieldElement)

    def test_wrong_fibration_rejected(self):
        with pytest.raises(DomainError):
            trace_cycle(WORKED, K3_GRAPH, F(2))

    def test_cover_normalization(self):
        # engineered double cover with square factors
        gq = GraphOnQuartic(
            p=poly([0, 1]),  # z = t
            fiber_coeffs=(poly([0]), poly([0]), poly([0]), poly([0]), poly([1])),
        )
        g = graph_cover_poly(gq)
        assert g == poly([0, 0, 0, 0, 1])  # t^4
        q, r = odd_square_split(g)
        assert q * r * r == g
        assert q == poly([1])


def engineered_bitangent_pair():
    """w^2 = (z^2 - A)(z^2 - B) with the degree-2 section z = t^2 tangent at
    t = 1 and t = -1, both over smooth fibers."""
    A = poly([-1, 1, 0, 1])  # t^3 + t - 1
    B = poly([-7, -14, -8, -2])  # -2t^3 - 8t^2 - 14t - 7
    f0 = A * B
    f2 = -(A + B)
    gq = GraphOnQuartic(
        p=poly([0, 0, 1]),
        fiber_coeffs=(f0, poly([0]), f2, poly([0]), poly([1])),
    )
    model = QuarticModel(
        (RatFn(f0), RatFn(0), RatFn(f2), RatFn(0), RatFn(1)),
        InfinityBranch(1),
    )
    curve, _fwd, _inv = quartic_to_weierstrass(model)
    fib = FibrationModel(curve.a, curve.b)
    return fib, gq


class TestRamification:
    def test_constant_x_worked_example(self):
        report = ConstantX(F(1)).ramification(WORKED)
        assert len(report.points) == 1
        entry = report.points[0]
        assert entry.b == F(-2)
        assert entry.point == Point(F(1), F(0))
        assert entry.salient is True
        assert WORKED.discriminant(F(-2)) == 80
        assert report.unresolved == ()

    def test_zero_section_empty(self):
        assert len(ZeroSection().ramification(WORKED).points) == 0

    def test_split_list_empty(self):
        split = SplitList(((ratfn([0]), ratfn([1])),))
        assert len(split.ramification(WORKED).points) == 0

    def test_trisection_never_salient(self):
        report = TRISECTION.ramification(WORKED)
        assert all(not e.salient for e in report.points)
        # the critical parameters satisfy 2s^3 = 1; the factor is certified to
        # lie entirely over singular fibers
        assert len(report.unresolved) == 1
        assert report.unresolved[0].all_singular is True

    def test_unresolved_factor_singular_or_not(self):
        # y^2 = x^3 + (t^3 - 2): the line x = 0 meets the fibration over the
        # roots of t^3 - 2, whose fibers are all singular (Delta ~ (t^3 - 2)^2)
        cubic = poly([-2, 0, 0, 1])
        singular = FibrationModel(ratfn([0]), RatFn(cubic))
        report = ConstantX(F(0)).ramification(singular)
        assert report.unresolved == (UnresolvedRamification(cubic, True),)
        # y^2 = x^3 + (t^3 - 3): x = 1 meets it over the same roots, where
        # Delta ~ (t^3 - 3)^2 does not vanish
        smooth = FibrationModel(ratfn([0]), ratfn([-3, 0, 0, 1]))
        report = ConstantX(F(1)).ramification(smooth)
        assert report.unresolved == (UnresolvedRamification(cubic, False),)

    def test_bitangent_graph_salient_at_both_tangencies(self):
        fib, gq = engineered_bitangent_pair()
        g = graph_cover_poly(gq)
        # G = (t-1)^2 (t+1)^2 (t^2+t+1) (t^2+7)
        assert g == poly([-1, 0, 1]) ** 2 * poly([1, 1, 1]) * poly([7, 0, 1])
        assert divide_out_roots(g, [F(1), F(-1)])[0] == [(F(1), 2), (F(-1), 2)]
        report = gq.ramification(fib)
        params = sorted(e.b for e in report.points)
        assert params == [F(-1), F(1)]
        assert all(e.salient for e in report.points)
        for e in report.points:
            fiber = specialize(fib, e.b)
            assert isinstance(fiber, EllipticCurve)
            assert fiber.contains(e.point)
        assert report.unresolved == ()

    def test_graph_without_double_roots_empty(self):
        assert len(K3_GRAPH.ramification(K3_FIB).points) == 0


class TestTauMap:
    def test_zero_section_identity(self):
        p = Point(F(1), F(2))
        assert tau_map(WORKED, ZeroSection(), p, F(2)) == p

    def test_constant_x_doubling(self):
        got = tau_map(WORKED, ConstantX(F(1)), Point(F(1), F(2)), F(2))
        assert got == Point(F(-7, 16), F(-13, 64))

    def test_trisection_fixes_two_torsion(self):
        p = Point(F(1), F(0))
        assert tau_map(WORKED, TRISECTION, p, F(-2)) == p

    def test_given_fiber_gives_the_same_image(self):
        for m, p, b in [
            (ZeroSection(), Point(F(1), F(2)), F(2)),
            (ConstantX(F(1)), Point(F(1), F(2)), F(2)),
            (TRISECTION, Point(F(1), F(0)), F(-2)),
        ]:
            fiber = specialize(WORKED, b)
            assert tau_map(WORKED, m, p, b, fiber=fiber) == tau_map(WORKED, m, p, b)

    def test_singular_fiber_refused(self):
        with pytest.raises(SingularFiberSkip):
            tau_map(CUSPFIB, ZeroSection(), Point(F(0), F(0)), F(0))

    def test_difference_law_200_samples(self):
        """tau(p) - tau(p') = [d](p - p') across three multisections."""
        rng = random.Random(7)
        checked = 0

        # ConstantX(1): rational pairs wherever 2 + b is a square
        m = ConstantX(F(1))
        for b in [F(2), F(7), F(14), F(23), F(34), F(47), F(2) + F(1, 4)]:
            e = specialize(WORKED, b)
            cycle, _ = trace_cycle(WORKED, m, b)
            pts = [pt for pt, _k in cycle.support]
            if len(pts) < 2 or any(not isinstance(p.x, F) for p in pts):
                continue
            p, q = pts
            lhs = ec_sub(e, tau_map(WORKED, m, p, b), tau_map(WORKED, m, q, b))
            rhs = ec_mul(e, m.degree, ec_sub(e, p, q))
            assert lhs == rhs
            checked += 1

        # ZeroSection: tau is the identity, law reduces to p - q = p - q on
        # random fiber points obtained from multiples of the (0,1) section
        for _ in range(120):
            b = F(rng.randint(-50, 50), rng.randint(1, 12))
            e = specialize(WORKED, b)
            g = Point(F(0), F(1))
            p = ec_mul(e, rng.randint(1, 4), g)
            q = ec_mul(e, rng.randint(5, 8), g)
            if p.is_infinity or q.is_infinity:
                continue
            lhs = ec_sub(e, tau_map(WORKED, ZeroSection(), p, b), tau_map(WORKED, ZeroSection(), q, b))
            rhs = ec_sub(e, p, q)
            assert lhs == rhs
            checked += 1

        # TRISECTION (d = 3) on fibers with a marked rational 2-torsion point
        for b in trisection_samples(40):
            e = specialize(WORKED, b)
            cycle, _ = trace_cycle(WORKED, TRISECTION, b)
            rational = [pt for pt, _k in cycle.support if pt.is_infinity or isinstance(pt.x, F)]
            others = [pt for pt, _k in cycle.support if not pt.is_infinity and not isinstance(pt.x, F)]
            p = rational[0]
            # rational pair against a quadratic conjugate pair member
            for q in others[:1]:
                K = q.x.field
                ek = embed_curve(K, e)
                taup = tau_map(WORKED, TRISECTION, p, b)
                tauq = tau_map(WORKED, TRISECTION, q, b)
                if taup.is_infinity or isinstance(taup.x, F):
                    taup = embed_point(K, taup)
                if tauq.is_infinity or isinstance(tauq.x, F):
                    tauq = embed_point(K, tauq)
                lhs = ec_sub(ek, taup, tauq)
                rhs = ec_mul(ek, 3, ec_sub(ek, embed_point(K, p), q))
                assert lhs == rhs
                checked += 1
            # and the rational point against itself translated: [3]p - trace
            taup = tau_map(WORKED, TRISECTION, p, b)
            assert taup == ec_mul(e, 3, p)  # trace is O on these fibers
            checked += 1

        assert checked >= 200

    def test_tau_total_on_rational_parameters(self):
        """tau never errors over smooth fibers with small parameters."""
        m = ConstantX(F(1))
        singular = set(WORKED.singular_parameters())
        count = 0
        for b in enumerate_rationals(20):
            if b in singular:
                continue
            cycle, _ = trace_cycle(WORKED, m, b)
            pt = cycle.support[0][0]
            got = tau_map(WORKED, m, pt, b)
            assert got is not None
            count += 1
        assert count > 100


class TestOrderProbe:
    def test_zero_section_order_one(self):
        assert order_probe(WORKED, ZeroSection(), [F(1), F(2), F(3)], 5) == Order(1)

    def test_trisection_order_two(self):
        samples = trisection_samples(10)
        assert order_probe(WORKED, TRISECTION, samples, 6) == Order(2)

    def test_constant_x_no_order(self):
        got = order_probe(WORKED, ConstantX(F(1)), [F(2), F(7), F(14)], 18)
        assert got == NoOrderUpTo(18)

    def test_no_order_implies_tau_injective_on_cycles(self):
        # divisors of d = 2 are all below the cap, so tau separates the
        # sampled cycles pointwise
        m = ConstantX(F(1))
        for b in [F(2), F(7), F(14)]:
            cycle, _ = trace_cycle(WORKED, m, b)
            pts = [pt for pt, _k in cycle.support]
            images = [tau_map(WORKED, m, p, b) for p in pts]
            assert len(set(images)) == len(pts)

    def test_empty_samples(self):
        with pytest.raises(EmptySampleSet):
            order_probe(WORKED, ZeroSection(), [], 5)

    def test_singular_sample_refused(self):
        with pytest.raises(SingularFiberSkip):
            order_probe(CUSPFIB, ZeroSection(), [F(0)], 5)


def split_family():
    """y^2 = x(x-1)(x-t) in depressed form, with the images of the sections
    x = 0 and infinity."""
    a = ratfn([-1, 1, -1], [3])
    b = ratfn([-2, 3, 3, -2], [27])
    fib = FibrationModel(a, b)
    x0 = RatFn(poly([-1, -1])) / 3  # image of (0, 0)
    assert (x0 * x0 * x0 + a * x0 + b).is_zero
    return fib, (x0, ratfn([0]))


class TestSectionDifference:
    def test_equal_sections(self):
        got = section_difference_order(WORKED, ZeroSection(), ZeroSection(), [F(1)])
        assert got == TorsionEvidence(1)

    def test_worked_section_non_torsion(self):
        sec = (ratfn([0]), ratfn([1]))
        got = section_difference_order(WORKED, ZeroSection(), sec, [F(1), F(2), F(5)])
        assert isinstance(got, NonTorsion)

    def test_split_family_two_torsion(self):
        fib, sec = split_family()
        got = section_difference_order(fib, ZeroSection(), sec, [F(2), F(3), F(5)])
        assert got == TorsionEvidence(2)

    def test_empty_samples(self):
        with pytest.raises(EmptySampleSet):
            section_difference_order(WORKED, ZeroSection(), ZeroSection(), [])

    def test_singular_sample_refused(self):
        fib, sec = split_family()
        with pytest.raises(SingularFiberSkip):
            section_difference_order(fib, ZeroSection(), sec, [F(1)])

