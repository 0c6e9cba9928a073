"""Fibration-layer tests: specialization, fiber types, trace cycles, the
class map tau, order probing, ramification, and section differences."""

from __future__ import annotations

import random
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fibdense import fibration
from fibdense.elliptic import (
    INFINITY,
    EllipticCurve,
    Point,
    ec_mul,
    ec_sub,
    quartic_to_weierstrass,
    torsion_certify,
)
from fibdense.errors import (
    DomainError,
    EmptySampleSet,
    PoleAtParameter,
    SingularFiberSkip,
    TraceFieldTooLarge,
    UnsupportedRepresentation,
)
from fibdense.exactmath import RatFn, enumerate_rationals, poly, ratfn, rational_roots
from fibdense.exactmath.numfield import NumFieldElement
from fibdense.fibration import (
    ConstantX,
    FibrationModel,
    GraphOnQuartic,
    NonTorsion,
    Order,
    Parametrized,
    SplitList,
    UnresolvedRamification,
    ZeroSection,
    fiber_cycle,
    fiber_type,
    odd_square_split,
    order_probe,
    quartic_on_graph,
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

    @settings(max_examples=40, deadline=None)
    @given(*[st.lists(st.fractions(min_value=-6, max_value=6, max_denominator=5), max_size=4)] * 4)
    def test_discriminant_on_numerators_is_the_q_t_formula(self, an, ad, bn, bd):
        # over Q(t) with polynomial and with rational coefficients alike
        assume(any(ad) and any(bd))
        a, b = RatFn(poly(an), poly(ad)), RatFn(poly(bn), poly(bd))
        expected = -16 * (4 * a * a * a + 27 * b * b)
        assume(not expected.is_zero)
        model = FibrationModel(a, b)
        assert model.discriminant == expected
        on_numerators = -16 * (4 * a.num**3 + 27 * b.num**2)
        if on_numerators:
            assert FibrationModel(RatFn(a.num), RatFn(b.num)).discriminant == on_numerators

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
        assert (ft.ord_delta, ft.label) == (0, "I0")

    def test_cusp_is_type_ii(self):
        ft = fiber_type(CUSPFIB, F(0))
        assert ft.ord_delta == 2
        assert ft.ord_c4 is None  # c4 identically zero
        assert ft.label == "II"

    def test_node_is_i1(self):
        ft = fiber_type(NODAL, F(2))
        assert (ft.ord_delta, ft.ord_c4, ft.label) == (1, 0, "I1")

    def test_type_iii_reported_other(self):
        ft = fiber_type(TXFIB, F(0))
        assert ft.ord_delta == 3
        assert ft.label == "Other"

    def test_pole_is_scaled_to_a_regular_model(self):
        # (a, b) -> (u^4 a, u^6 b) with u = t^n, n least making both regular:
        # a = 1/t gives n = 1, ord Delta = -3 + 12 and ord c4 = -1 + 4
        ft = fiber_type(FibrationModel(ratfn([1], [0, 1]), ratfn([1])), F(0))
        assert (ft.ord_delta, ft.ord_c4, ft.label) == (9, 3, "Other")
        # a = t^-4, b = t^-6 becomes y^2 = x^3 + x + 1, smooth at t = 0
        fib = FibrationModel(ratfn([1], [0, 0, 0, 0, 1]), ratfn([1], [0, 0, 0, 0, 0, 0, 1]))
        ft = fiber_type(fib, F(0))
        assert (ft.ord_delta, ft.ord_c4, ft.label) == (0, 0, "I0")
        # a zero coefficient sets no bound: b = 1/t alone gives n = 1
        ft = fiber_type(FibrationModel(ratfn([0]), ratfn([1], [0, 1])), F(0))
        assert (ft.ord_delta, ft.ord_c4, ft.label) == (10, None, "Other")

    def test_orders_take_no_root_split(self, monkeypatch):
        # singular_parameters splits its three polynomials once each; the
        # orders at each parameter come from exact division by t - b
        calls = []
        split = fibration.rational_roots
        monkeypatch.setattr(fibration, "rational_roots", lambda p: calls.append(p) or split(p))
        types = [fiber_type(NODAL, b) for b in NODAL.singular_parameters()]
        assert [(ft.ord_delta, ft.ord_c4, ft.label) for ft in types] == [(1, 0, "I1")] * 2
        assert len(calls) == 3


class TestMultisectionShapes:
    def test_degrees(self):
        assert ZeroSection().degree == 1
        assert ConstantX(F(1)).degree == 2
        assert TRISECTION.degree == 3
        assert SplitList(((ratfn([0]), ratfn([1])), (ratfn([0]), ratfn([-1])))).degree == 2

    def test_constant_x_points_match_a_fraction_solve(self):
        """ConstantX.points, which clears denominators once, equals solving
        n(t) - y^2 d(t) = 0 on Fractions for each y, for degree-1 a(t), b(t)
        whose coefficients have denominators; y with n1 = y^2 d1 is skipped."""
        rng = random.Random(19)

        def rat(lo=-9, hi=9):
            return F(rng.randint(lo, hi), rng.randint(1, 6))

        height, checked, skipped = 7, 0, 0
        for trial in range(80):
            c, a0, a1, b0, y0 = rat(), rat(), rat(), rat(), rat(-6, 6)
            e = rat() if trial % 4 else F(0)  # a common pole at t = -1/e, or none
            # with a pole, n1 = y0^2 d1 for the cleared t-equation of x = c
            b1 = y0 * y0 * e - c * a1 - c**3 * e if e else rat()
            try:
                model = FibrationModel(ratfn([a0, a1], [1, e]), ratfn([b0, b1], [1, e]))
                got = ConstantX(c).points(model, height)
            except (DomainError, UnsupportedRepresentation):
                continue  # a zero discriminant, or a t-equation of degree != 1
            h = model.a * c + model.b + c**3
            n0, n1 = h.num.coefficient(0), h.num.coefficient(1)
            d0, d1 = h.den.coefficient(0), h.den.coefficient(1)
            want = []
            for y in enumerate_rationals(height):
                lead = n1 - y * y * d1
                if lead:
                    want.append(((y * y * d0 - n0) / lead, Point(c, y)))
                else:
                    skipped += 1
            assert got == want
            for t, pt in got:
                assert type(t) is F
                if model.a.den(t) and model.b.den(t):
                    assert c**3 + model.a(t) * c + model.b(t) == pt.y * pt.y
            checked += 1
        assert checked >= 60 and skipped >= 10

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


def cycle_and_trace(model, m, b):
    """The checked support and the trace of m on the fiber of model at b."""
    fiber = specialize(model, b)
    return fiber_cycle(m, fiber, b), trace_cycle(fiber, m, b)


def cycle_degree(support):
    return sum(mult for _pt, mult in support)


class TestTraceCycle:
    def test_constant_x_split_fiber(self):
        cycle, trace = cycle_and_trace(WORKED, ConstantX(F(1)), F(2))
        assert set(cycle) == {(Point(F(1), F(2)), 1), (Point(F(1), F(-2)), 1)}
        assert cycle_degree(cycle) == 2
        assert trace is INFINITY

    def test_constant_x_tangent_fiber(self):
        cycle, trace = cycle_and_trace(WORKED, ConstantX(F(1)), F(-2))
        assert cycle == ((Point(F(1), F(0)), 2),)
        assert trace is INFINITY

    def test_constant_x_quadratic_fiber(self):
        # at b = 1 the vertical line x = 1 meets the fiber in conjugate points
        cycle, trace = cycle_and_trace(WORKED, ConstantX(F(1)), F(1))
        assert trace is INFINITY
        ys = [pt.y for pt, _ in cycle]
        assert all(isinstance(y, NumFieldElement) for y in ys)
        assert ys[0] == -ys[1]

    def test_zero_section(self):
        cycle, trace = cycle_and_trace(WORKED, ZeroSection(), F(5))
        assert cycle == ((INFINITY, 1),)
        assert trace is INFINITY

    def test_trisection_mixed_field_cycle(self):
        cycle, trace = cycle_and_trace(WORKED, TRISECTION, F(-2))
        assert cycle_degree(cycle) == 3
        assert trace is INFINITY
        rational = [pt for pt, _ in cycle if isinstance(pt.x, F)]
        quadratic = [pt for pt, _ in cycle if isinstance(pt.x, NumFieldElement)]
        assert rational == [Point(F(1), F(0))]
        assert len(quadratic) == 2
        # conjugate pair
        assert quadratic[0].x.conjugate() == quadratic[1].x

    def test_trisection_irreducible_cubic_rejected(self):
        with pytest.raises(TraceFieldTooLarge):
            trace_cycle(specialize(WORKED, F(1)), TRISECTION, F(1))

    def test_split_list(self):
        split = SplitList(((ratfn([0]), ratfn([1])), (ratfn([0]), ratfn([-1]))))
        cycle, trace = cycle_and_trace(WORKED, split, F(3))
        assert set(cycle) == {(Point(F(0), F(1)), 1), (Point(F(0), F(-1)), 1)}
        assert trace is INFINITY

    def test_parametrized_branch_at_infinity(self):
        # section (0, 1) reparametrized through t = 1/s; at b = 0 the only
        # preimage sits at s = infinity
        sec = Parametrized(ratfn([1], [0, 1]), ratfn([0]), ratfn([1]))
        assert sec.degree == 1
        cycle, trace = cycle_and_trace(WORKED, sec, F(0))
        assert cycle == ((Point(F(0), F(1)), 1),)
        assert trace == Point(F(0), F(1))

    def test_traces_always_rational(self):
        for b in [F(2), F(3), F(7, 2), F(-5, 3)]:
            for m in [ZeroSection(), ConstantX(F(1)), ConstantX(F(-2))]:
                v = trace_cycle(specialize(WORKED, b), m, b)
                assert v.is_infinity or isinstance(v.x, F)


K3_GRAPH = GraphOnQuartic(
    p=poly([0]),
    fiber_coeffs=(poly([-2, 0, 0, 0, 1]), poly([0]), poly([0]), poly([0]), poly([1])),
)
# Weierstrass side of w^2 = z^4 + (t^4 - 2): y^2 = x^3 - 4(t^4 - 2)x
K3_FIB = FibrationModel(ratfn([8, 0, 0, 0, -4]), ratfn([0]))


class TestGraphOnQuartic:
    def test_cover_poly(self):
        assert quartic_on_graph(K3_GRAPH.fiber_coeffs, K3_GRAPH.p) == poly([-2, 0, 0, 0, 1])

    def test_cycle_and_trace(self):
        cycle, trace = cycle_and_trace(K3_FIB, K3_GRAPH, F(2))
        assert cycle_degree(cycle) == 2
        # the two points are conjugate 2-torsion over Q(sqrt 14); their sum is
        # the rational 2-torsion point (0,0)
        assert trace == Point(F(0), F(0))
        for pt, _ in cycle:
            assert isinstance(pt.x, NumFieldElement)

    def test_wrong_fibration_rejected(self):
        fiber = specialize(WORKED, F(2))
        with pytest.raises(DomainError, match="different fibration"):
            trace_cycle(fiber, K3_GRAPH, F(2))
        with pytest.raises(DomainError, match="different fibration"):
            fiber_cycle(K3_GRAPH, fiber, F(2))

    def test_cover_normalization(self):
        # engineered double cover with square factors
        gq = GraphOnQuartic(
            p=poly([0, 1]),  # z = t
            fiber_coeffs=(poly([0]), poly([0]), poly([0]), poly([0]), poly([1])),
        )
        g = quartic_on_graph(gq.fiber_coeffs, gq.p)
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
    a, b, _fwd, _inv, _e2 = quartic_to_weierstrass((RatFn(f0), RatFn(0), RatFn(f2), RatFn(0), RatFn(1)))
    fib = FibrationModel(a, b)
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
        g = quartic_on_graph(gq.fiber_coeffs, gq.p)
        # G = (t-1)^2 (t+1)^2 (t^2+t+1) (t^2+7)
        assert g == poly([-1, 0, 1]) ** 2 * poly([1, 1, 1]) * poly([7, 0, 1])
        assert rational_roots(g)[0] == [(F(-1), 2), (F(1), 2)]
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
        assert tau_map(specialize(WORKED, F(2)), ZeroSection(), p, F(2)) == p

    def test_constant_x_doubling(self):
        got = tau_map(specialize(WORKED, F(2)), ConstantX(F(1)), Point(F(1), F(2)), F(2))
        assert got == Point(F(-7, 16), F(-13, 64))

    def test_trisection_fixes_two_torsion(self):
        p = Point(F(1), F(0))
        assert tau_map(specialize(WORKED, F(-2)), TRISECTION, p, F(-2)) == p

    def test_difference_law_200_samples(self):
        """tau(p) - tau(p') = [d](p - p') across three multisections."""
        rng = random.Random(7)
        checked = 0

        # ConstantX(1): rational pairs wherever 2 + b is a square
        m = ConstantX(F(1))
        for b in [F(2), F(7), F(14), F(23), F(34), F(47), F(2) + F(1, 4)]:
            e = specialize(WORKED, b)
            pts = [pt for pt, _k in fiber_cycle(m, e, b)]
            if len(pts) < 2 or any(not isinstance(p.x, F) for p in pts):
                continue
            p, q = pts
            lhs = ec_sub(e, tau_map(e, m, p, b), tau_map(e, m, q, b))
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
            lhs = ec_sub(e, tau_map(e, ZeroSection(), p, b), tau_map(e, ZeroSection(), q, b))
            rhs = ec_sub(e, p, q)
            assert lhs == rhs
            checked += 1

        # TRISECTION (d = 3) on fibers with a marked rational 2-torsion point
        for b in trisection_samples(40):
            e = specialize(WORKED, b)
            cycle = fiber_cycle(TRISECTION, e, b)
            rational = [pt for pt, _k in cycle if pt.is_infinity or isinstance(pt.x, F)]
            others = [pt for pt, _k in cycle if not pt.is_infinity and not isinstance(pt.x, F)]
            p = rational[0]
            # rational pair against a quadratic conjugate pair member
            for q in others[:1]:
                K = q.x.field
                ek = embed_curve(K, e)
                taup = tau_map(e, TRISECTION, p, b)
                tauq = tau_map(e, TRISECTION, q, b)
                if taup.is_infinity or isinstance(taup.x, F):
                    taup = embed_point(K, taup)
                if tauq.is_infinity or isinstance(tauq.x, F):
                    tauq = embed_point(K, tauq)
                lhs = ec_sub(ek, taup, tauq)
                rhs = ec_mul(ek, 3, ec_sub(ek, embed_point(K, p), q))
                assert lhs == rhs
                checked += 1
            # and the rational point against itself translated: [3]p - trace
            taup = tau_map(e, TRISECTION, p, b)
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
            e = specialize(WORKED, b)
            pt = fiber_cycle(m, e, b)[0][0]
            got = tau_map(e, m, pt, b)
            assert got is not None
            count += 1
        assert count > 100


class TestOrderProbe:
    def test_zero_section_order_one(self):
        assert order_probe(WORKED, ZeroSection(), [F(1), F(2), F(3)]) == Order(1)

    def test_trisection_order_two(self):
        samples = trisection_samples(10)
        assert order_probe(WORKED, TRISECTION, samples) == Order(2)

    def test_constant_x_no_order(self):
        got = order_probe(WORKED, ConstantX(F(1)), [F(2), F(7), F(14)])
        assert got == NonTorsion(witness=F(2))

    def test_no_order_implies_tau_injective_on_cycles(self):
        # tau(p) - tau(q) = [2](p - q), and a difference of infinite order
        # is not 2-torsion, so tau separates the sampled cycles pointwise
        m = ConstantX(F(1))
        for b in [F(2), F(7), F(14)]:
            e = specialize(WORKED, b)
            pts = [pt for pt, _k in fiber_cycle(m, e, b)]
            images = [tau_map(e, m, p, b) for p in pts]
            assert len(set(images)) == len(pts)

    def test_the_torsion_bound_follows_the_point(self):
        # a cycle difference over Q(sqrt d) on a fiber over Q gets the verdict
        # it gets on the fiber embedded in Q(sqrt d): the point's field sets
        # the uniform bound, 18 and not Q's 12
        checked = 0
        for c in (F(-1), F(0), F(1), F(2)):
            for b in enumerate_rationals(5):
                fiber = specialize(WORKED, b)
                pts = [pt for pt, _k in fiber_cycle(ConstantX(c), fiber, b)]
                if not isinstance(pts[0].x, NumFieldElement):
                    continue
                embedded = embed_curve(pts[0].x.field, fiber)
                for i, p in enumerate(pts):
                    for q in pts[i + 1 :]:
                        diff = ec_sub(fiber, p, q)
                        assert torsion_certify(fiber, diff) == torsion_certify(embedded, diff)
                        checked += 1
        assert checked >= 100

    def test_empty_samples(self):
        with pytest.raises(EmptySampleSet):
            order_probe(WORKED, ZeroSection(), [])

    def test_singular_sample_refused(self):
        with pytest.raises(SingularFiberSkip):
            order_probe(CUSPFIB, ZeroSection(), [F(0)])


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
        assert got == Order(1)

    def test_worked_section_non_torsion(self):
        sec = (ratfn([0]), ratfn([1]))
        got = section_difference_order(WORKED, ZeroSection(), SplitList((sec,)), [F(1), F(2), F(5)])
        assert isinstance(got, NonTorsion)

    def test_split_family_two_torsion(self):
        fib, sec = split_family()
        got = section_difference_order(fib, ZeroSection(), SplitList((sec,)), [F(2), F(3), F(5)])
        assert got == Order(2)

    def test_empty_samples(self):
        with pytest.raises(EmptySampleSet):
            section_difference_order(WORKED, ZeroSection(), ZeroSection(), [])

    def test_singular_sample_refused(self):
        fib, sec = split_family()
        with pytest.raises(SingularFiberSkip):
            section_difference_order(fib, ZeroSection(), SplitList((sec,)), [F(1)])

    def test_two_section_refused(self):
        # a section is a multisection of degree 1; x = 1 meets each fiber twice
        with pytest.raises(DomainError, match="degree 1"):
            section_difference_order(WORKED, ZeroSection(), ConstantX(F(1)), [F(1)])
        with pytest.raises(DomainError, match="degree 1"):
            section_difference_order(WORKED, ConstantX(F(1)), ZeroSection(), [F(1)])
