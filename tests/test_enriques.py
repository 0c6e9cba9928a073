"""Cone-quartic geometry tests: restriction charts, tangency linear algebra,
bitangent elimination, section covers, and the Weierstrass model of the
double cover."""

from __future__ import annotations

import random
import sys
from fractions import Fraction as F
from functools import cached_property
from math import comb

import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fibdense import enriques
from fibdense.elliptic import (
    EllipticCurve,
    Point,
    ec_mul,
    j_invariant,
    quartic_j_invariant,
    quartic_to_weierstrass,
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
from fibdense.errors import (
    DegenerateDiscriminant,
    DomainError,
    LeadingCoefficientNotSquare,
    NoCandidates,
    NonReducedRamification,
    NotInR0,
    NotOnR,
    VertexOnQuartic,
    ZeroIntersection,
)
from fibdense.exactmath import (
    NumFieldElement,
    Poly,
    RatFn,
    is_square,
    poly,
    ratfn,
    rational_roots,
    resultant_bivariate,
)
from fibdense.exactmath.poly import _isobaric_bound
from fibdense.fibration import (
    FibrationModel,
    GraphOnQuartic,
    Order,
    SplitList,
    ZeroSection,
    quartic_on_graph,
    section_difference_order,
    specialize,
)

# B = z3^4 + z0*z1*z2^2 - 2*z0^4, restricting to F = z^4 + t^4 - 2
CONE = ConeQuartic({(0, 0, 0, 4): 1, (1, 1, 2, 0): 1, (4, 0, 0, 0): -2})
FD = restrict_quartic_to_cone(CONE)


def fd_plus(g: Poly) -> RamificationData:
    """F = z^4 + g(t): the z = 0 section meets it in exactly g."""
    return RamificationData((g, poly([0]), poly([0]), poly([0]), poly([1])))


def engineered_pair() -> RamificationData:
    """F = (z^2 - A)(z^2 - B) built so that z = t^2 is bitangent:
    t^4 - A = (t-1)^2 (t^2+t+1) and t^4 - B = (t+1)^2 (t^2+7)."""
    a = poly([-1, 1, 0, 1])
    b = poly([-7, -14, -8, -2])
    return RamificationData((a * b, poly([0]), -(a + b), poly([0]), poly([1])))


def nodal_curve() -> RamificationData:
    """F = z * (z^3 - z + t^2 - 2t): a section and a trisection crossing in
    nodes at (0, 0) and (2, 0)."""
    return RamificationData((poly([0]), poly([0, -2, 1]), poly([-1]), poly([0]), poly([1])))


def random_section(rng: random.Random) -> Poly:
    pick = lambda: F(rng.randint(-9, 9), rng.randint(1, 4))
    return poly([pick(), pick(), pick()])


def _z_discriminant(data: RamificationData) -> Poly:
    """Res_z(F, F_z) as a polynomial in t, interpolated: the test oracle for
    a repeated root of the fiber quartic F(t0, z)."""
    return resultant_bivariate(data.coeffs, [i * data.coeffs[i] for i in range(1, 5)])


def sqrt2_tangencies(f1: Poly) -> RamificationData:
    """F = z^4 + f1 z + (t^2 - 2)^2 (t^4 + t + 1): the section z = 0 is
    tangent to it at t = +-sqrt(2), over Q(sqrt 2)."""
    f0 = poly([-2, 0, 1]) ** 2 * poly([1, 1, 0, 0, 1])
    return RamificationData((f0, f1, poly([0]), poly([0]), poly([1])))


def branch_count_genus(g: Poly) -> int:
    """Brute-force genus of w^2 = g(t) by factoring out branch points."""
    t = sympy.symbols("t")
    expr = sum(sympy.Rational(c.numerator, c.denominator) * t**i for i, c in enumerate(g.coeffs))
    _, factors = sympy.factor_list(expr, t)
    k = sum(sympy.Poly(f, t).degree() for f, mult in factors if mult % 2)
    if g.degree % 2:
        k += 1
    return k // 2 - 1


class TestConeQuartic:
    def test_restriction_worked_example(self):
        assert FD.coeffs[0] == poly([-2, 0, 0, 0, 1])
        assert FD.coeffs[4] == poly([1])
        assert all(FD.coeffs[i].is_zero for i in (1, 2, 3))

    def test_chart_substitution_identity(self):
        rng = random.Random(5)
        for _ in range(20):
            t0 = F(rng.randint(-6, 6), rng.randint(1, 3))
            z0 = F(rng.randint(-6, 6), rng.randint(1, 3))
            assert FD.evaluate(t0, z0) == CONE.evaluate(F(1), t0 * t0, t0, z0)
            infinity_fiber = Poly([c(t0) for c in FD.coeffs_infinity])
            assert infinity_fiber(z0) == CONE.evaluate(t0 * t0, F(1), t0, z0)

    def test_vertex_error(self):
        with pytest.raises(VertexOnQuartic):
            restrict_quartic_to_cone(ConeQuartic({(4, 0, 0, 0): 1}))

    def test_non_reduced_error(self):
        with pytest.raises(NonReducedRamification):
            restrict_quartic_to_cone(ConeQuartic({(0, 0, 0, 4): 1}))

    def test_restriction_stops_at_the_first_nonzero_node(self, monkeypatch):
        # Res_z(F, F_z) is only tested for zero: its value at the node t = 0,
        # res(z^4 - 2, 4z^3), is nonzero, so one of its 13 nodes decides
        calls = []
        module = sys.modules["fibdense.exactmath.poly"]
        kernel = module._int_resultant
        monkeypatch.setattr(module, "_int_resultant", lambda A, B: calls.append(1) or kernel(A, B))
        assert restrict_quartic_to_cone(CONE) == FD
        assert len(calls) == 1

    def test_bad_exponents(self):
        with pytest.raises(DomainError):
            ConeQuartic({(1, 1, 1, 0): 1})
        with pytest.raises(DomainError):
            ConeQuartic({(5, 0, 0, -1): 1})

    def test_degree_profile_enforced(self):
        with pytest.raises(DomainError):
            RamificationData((poly([0]), poly([0] * 7 + [1]), poly([0]), poly([0]), poly([1])))
        with pytest.raises(DomainError):
            RamificationData((poly([1]), poly([0]), poly([0]), poly([0]), poly([0, 1])))


class TestIntersectionPoly:
    def test_worked_sections(self):
        assert quartic_on_graph(FD.coeffs, poly([0, 0, 0])) == poly([-2, 0, 0, 0, 1])
        assert quartic_on_graph(FD.coeffs, poly([1, 0, 0])) == poly([-1, 0, 0, 0, 1])

    def test_degree_at_most_eight(self):
        rng = random.Random(11)
        for _ in range(100):
            coeffs = []
            for i in range(4):
                width = 8 - 2 * i
                coeffs.append(Poly([F(rng.randint(-5, 5)) for _ in range(width + 1)]))
            coeffs.append(poly([rng.randint(1, 5)]))
            data = RamificationData(tuple(coeffs))
            g = quartic_on_graph(data.coeffs, random_section(rng))
            assert g.degree <= 8

    def test_degree_eight_generically(self):
        rng = random.Random(12)
        hits = 0
        for _ in range(50):
            s = random_section(rng)
            g = quartic_on_graph(FD.coeffs, s)
            assert g.degree <= 8
            if s.coefficient(2):
                assert g.degree == 8
                hits += 1
        assert hits > 30


class TestTangentLine:
    def test_worked_line(self):
        line = tangent_line(FD, (1, 1))
        assert line.base == poly([2, -1, 0])
        assert line.direction == poly([1, -2, 1])
        s = line.base + line.direction * F(5)
        assert s.coeffs == (F(7), F(-11), F(5))

    def test_not_on_curve(self):
        with pytest.raises(NotOnR):
            tangent_line(FD, (1, 2))

    def test_vertical_point(self):
        # F = z^4 - 2z^2 + t has F_z = 0 at the on-curve point (1, 1)
        data = RamificationData((poly([0, 1]), poly([0]), poly([-2]), poly([0]), poly([1])))
        with pytest.raises(NotInR0):
            tangent_line(data, (1, 1))

    def test_line_solves_tangency_conditions(self):
        rng = random.Random(13)
        checked = 0
        while checked < 50:
            coeffs = [Poly([F(rng.randint(-4, 4)) for _ in range(8 - 2 * i + 1)]) for i in range(4)]
            coeffs.append(poly([1]))
            t0 = F(rng.randint(-3, 3), rng.randint(1, 2))
            z0 = F(rng.randint(-3, 3), rng.randint(1, 2))
            data = RamificationData(tuple(coeffs))
            shift = data.evaluate(t0, z0)
            data = RamificationData((coeffs[0] - shift,) + tuple(coeffs[1:]))
            if not data.z_slice(t0).derivative()(z0):
                continue
            line = tangent_line(data, (t0, z0))
            for lam in (F(0), F(1), F(-3), F(7, 2)):
                g = quartic_on_graph(data.coeffs, line.base + line.direction * lam)
                assert g(t0) == 0 and g.derivative()(t0) == 0
            # any conic satisfying both conditions lies on the line
            mu = F(rng.randint(-5, 5), rng.randint(1, 3))
            slope = line.base.coefficient(1)
            c1 = slope - 2 * t0 * mu
            c0 = z0 - c1 * t0 - mu * t0 * t0
            assert poly([c0, c1, mu]) == line.base + line.direction * mu
            checked += 1


def _assert_double_tangencies(data: RamificationData, candidate):
    """Direct oracle: the base point and every reported second tangency are
    double roots of the candidate's intersection divisor."""
    g = quartic_on_graph(data.coeffs, candidate.section)
    assert not g.is_zero
    for t1, z1 in candidate.second_tangencies:
        assert g(t1) == 0 and g.derivative()(t1) == 0
        assert data.evaluate(t1, z1) == 0
        assert candidate.section(t1) == z1


def _sympy_double_root_degrees(g: Poly) -> tuple[int, int]:
    """(deg gcd(G, G'), number of distinct multiple roots) over Q via sympy."""
    t = sympy.symbols("t")
    expr = sum(sympy.Rational(c.numerator, c.denominator) * t**i for i, c in enumerate(g.coeffs))
    gcd = sympy.gcd(expr, sympy.diff(expr, t))
    gp = sympy.Poly(gcd, t)
    distinct = sympy.Poly(sympy.quo(gp, sympy.gcd(gp, gp.diff()), t), t)
    return gp.degree(), distinct.degree()


class TestBitangent:
    def test_worked_example_symmetric_conic(self):
        report = bitangent_sections(FD, (1, 1))
        assert len(report) == 1
        cand = report.candidates[0]
        # the conic z = (3 - t^2)/2 through (1,1) and (-1,1)
        assert cand.section == poly([F(3, 2), 0, F(-1, 2)])
        assert cand.parameter == F(-1, 2)
        assert cand.second_tangencies == ((F(-1), F(1)),)
        assert report.higher_degree_parameters == 12  # regression value
        g = quartic_on_graph(FD.coeffs, cand.section)
        assert rational_roots(g)[0] == [(F(-1), 2), (F(1), 2)]

    def test_candidates_pass_independent_gcd_oracle(self):
        report = bitangent_sections(FD, (1, 1))
        for cand in report:
            _assert_double_tangencies(FD, cand)
            if all(isinstance(c, F) for c in cand.section.coeffs):
                g = quartic_on_graph(FD.coeffs, cand.section)
                gcd_degree, distinct = _sympy_double_root_degrees(g)
                assert gcd_degree >= 2 and distinct >= 2

    def test_engineered_bitangent_found(self):
        data = engineered_pair()
        report = bitangent_sections(data, (1, 1))
        hits = [c for c in report if c.section == poly([0, 0, 1])]
        assert len(hits) == 1
        cand = hits[0]
        assert cand.parameter == F(1)
        assert (F(-1), F(1)) in cand.second_tangencies
        for other in report:
            _assert_double_tangencies(data, other)

    def test_through_node_single_candidate(self):
        data = nodal_curve()
        report = bitangent_sections(data, (0, 1), through=(2, 0))
        assert len(report) == 1
        cand = report.candidates[0]
        assert cand.section == poly([1, 1, F(-3, 4)])
        assert (F(2), F(0)) in cand.second_tangencies
        _assert_double_tangencies(data, cand)

    def test_through_unreachable_point(self):
        data = nodal_curve()
        # the tangent line at (0, 1) is (1, 1, lam); every member passes
        # through t = 0 with z = 1, so z = 0 there is unreachable
        with pytest.raises(NoCandidates):
            bitangent_sections(data, (0, 1), through=(0, 0))

    def test_random_candidates_all_verified(self):
        rng = random.Random(17)
        seen = 0
        while seen < 6:
            coeffs = [Poly([F(rng.randint(-3, 3)) for _ in range(5)]) for _ in range(2)]
            coeffs += [Poly([F(rng.randint(-3, 3)) for _ in range(3)]), poly([0]), poly([1])]
            t0 = F(rng.randint(-2, 2))
            z0 = F(rng.randint(-2, 2), rng.randint(1, 2))
            data = RamificationData(tuple(coeffs))
            shift = data.evaluate(t0, z0)
            data = RamificationData((coeffs[0] - shift,) + tuple(coeffs[1:]))
            if _z_discriminant(data).is_zero:
                continue
            if not data.z_slice(t0).derivative()(z0):
                continue
            try:
                report = bitangent_sections(data, (t0, z0))
            except NoCandidates:
                seen += 1
                continue
            for cand in report:
                _assert_double_tangencies(data, cand)
            seen += 1


def _search(data: RamificationData, point):
    """bitangent_sections at one point, or the type and text of its refusal."""
    try:
        return bitangent_sections(data, point)
    except (NoCandidates, DegenerateDiscriminant) as exc:
        return type(exc), str(exc)


def _fresh_search(coeffs, point):
    return _search(RamificationData(coeffs), point)


_small = st.integers(-3, 3)


@st.composite
def _even_quartic_through_point(draw):
    """Coefficients of an F(t, z) with z^4 lead and only even powers of t,
    and a point (t0, z0) on it where F_z does not vanish. Half the draws are
    the cone-bitangents family z^4 + f2 z^2 + f0; the others add z^3 and
    z^1 terms, which are also even in t."""
    t0 = draw(st.sampled_from([F(1), F(2)]))
    z0 = draw(st.sampled_from([F(-1), F(1)]))
    odd_z = draw(st.booleans())

    def even(max_degree):
        return Poly([draw(_small) if k % 2 == 0 else 0 for k in range(max_degree + 1)])

    f3 = even(2) if odd_z else Poly()
    f1 = even(6) if odd_z else Poly()
    f2 = even(4)
    f0 = Poly([0, *even(8).coeffs[1:]])
    # solve the constant term so that (t0, z0) lies on F = 0
    f0 = f0 - RamificationData((f0, f1, f2, f3, poly([1]))).evaluate(t0, z0)
    coeffs = (f0, f1, f2, f3, poly([1]))
    assume(RamificationData(coeffs).z_slice(t0).derivative()(z0) != 0)
    return coeffs, t0, z0


@st.composite
def _even_cone_quartic(draw):
    """Coefficients of an F(t, z) with only even powers of t and a constant
    z^4 lead, a square or not (then k3_weierstrass_model twists)."""

    def even(max_degree):
        return Poly([draw(_small) if k % 2 == 0 else 0 for k in range(max_degree + 1)])

    lead = draw(st.sampled_from([F(1), F(4), F(1, 9), F(2), F(-3), F(5, 2)]))
    odd_z = draw(st.booleans())
    return (even(8), even(6) if odd_z else Poly(), even(4), even(2) if odd_z else Poly(), Poly([lead]))


@st.composite
def _cone_quartic_through_point(draw):
    """Coefficients of a general F(t, z), deg f_i <= 8 - 2i and f4 a nonzero
    constant, and a point (t0, z0) on it where F_z does not vanish."""
    t0 = draw(st.fractions(-3, 3, max_denominator=3))
    z0 = draw(st.fractions(-3, 3, max_denominator=3))
    coeffs = [Poly([draw(_small) for _ in range(9 - 2 * i)]) for i in range(4)]
    coeffs.append(poly([draw(st.sampled_from([F(1), F(-2), F(1, 3)]))]))
    coeffs[0] = coeffs[0] - RamificationData(tuple(coeffs)).evaluate(t0, z0)
    assume(RamificationData(tuple(coeffs)).z_slice(t0).derivative()(z0) != 0)
    return tuple(coeffs), t0, z0


def _binomial_pencil(data: RamificationData, line) -> list[Poly]:
    """F(t, base + lam * direction) per power of lam, by the binomial
    expansion: f_i (base + lam d)^i = sum_j C(i, j) f_i base^(i-j) d^j lam^j."""
    out = [Poly() for _ in range(5)]
    for i, f in enumerate(data.coeffs):
        for j in range(i + 1):
            out[j] = out[j] + comb(i, j) * f * line.base ** (i - j) * line.direction**j
    return out


def _in_tau(p: Poly, t0) -> Poly:
    """p(tau + t0), summing each term's power of tau + t0."""
    return sum((c * poly([t0, 1]) ** i for i, c in enumerate(p.coeffs)), Poly())


class _Eliminated(Exception):
    """Carries the first operand _parameter_roots hands to the resultant."""


def _eliminated_columns(data: RamificationData, line) -> list[Poly]:
    """The first operand of _parameter_roots' resultant."""

    def eliminated(columns, _derivative_columns):
        raise _Eliminated(columns)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(enriques, "resultant_bivariate", eliminated)
        with pytest.raises(_Eliminated) as caught:
            enriques._parameter_roots(data, line)
    return caught.value.args[0]


class TestPencil:
    @settings(max_examples=60, deadline=None)
    @given(_cone_quartic_through_point())
    def test_lambda_pencil_is_the_binomial_expansion(self, drawn):
        coeffs, t0, z0 = drawn
        line = tangent_line(RamificationData(coeffs), (t0, z0))
        # the same pencil written in tau = t - t0, where the direction is tau^2
        tau_data = RamificationData(tuple(_in_tau(f, t0) for f in coeffs))
        tau_line = type(line)(line.point, _in_tau(line.base, t0), _in_tau(line.direction, t0))
        assert tau_line.direction == poly([0, 0, 1])
        reduced = [g.exact_div(tau_line.direction) for g in _binomial_pencil(tau_data, tau_line)]
        # the lam^k coefficient of G / tau^2 carries tau^(2k - 2)
        assert all(h.coefficient(j) == 0 for k, h in enumerate(reduced) for j in range(2 * k - 2))
        # the tau^k columns of the reduced pencil, as polynomials in lam
        width = max(h.degree for h in reduced) + 1
        expected = [Poly([h.coefficient(k) for h in reduced]) for k in range(width)]
        assert _eliminated_columns(RamificationData(coeffs), line) == expected

    def test_isobaric_bound_on_the_acceptance_cone(self):
        # the reduced pencil at (1, 1) has tau-degree 6 and lam-degree 4; the
        # bound in tau is 29, where the plain bound 5*4 + 6*4 is 44
        line = tangent_line(FD, (1, 1))
        columns = _eliminated_columns(FD, line)
        degrees = [c.degree for c in columns]
        assert len(degrees) == 7 and max(degrees) == 4
        derivative = [k * columns[k] for k in range(1, len(columns))]
        assert _isobaric_bound(degrees, [c.degree for c in derivative]) == 29
        # the pencil in t, interpolated from 45 nodes, has the same discriminant
        reduced = [g.exact_div(line.direction) for g in _binomial_pencil(FD, line)]
        t_columns = [Poly([h.coefficient(k) for h in reduced]) for k in range(7)]
        disc = resultant_bivariate(t_columns, [k * t_columns[k] for k in range(1, 7)])
        assert disc.degree == 29 and resultant_bivariate(columns, derivative) == disc


class TestMirroredBasePoints:
    """For F even in t, the searches at (t0, z0) and (-t0, z0) share one
    parameter discriminant, and every report equals a fresh search."""

    @settings(max_examples=20, deadline=None)
    @given(_even_quartic_through_point())
    def test_shared_searches_match_fresh_ones(self, drawn):
        coeffs, t0, z0 = drawn
        assert RamificationData(coeffs).even_in_t
        plus, minus = (t0, z0), (-t0, z0)
        fresh = {pt: _fresh_search(coeffs, pt) for pt in (plus, minus)}
        for order in ((plus, minus), (minus, plus), (plus, plus)):
            data = RamificationData(coeffs)
            assert [_search(data, pt) for pt in order] == [fresh[pt] for pt in order]

    @staticmethod
    def _counted_resultants(monkeypatch):
        calls = []
        resultant = enriques.resultant_bivariate

        def counted(f, g):
            calls.append(1)
            return resultant(f, g)

        monkeypatch.setattr(enriques, "resultant_bivariate", counted)
        return calls

    def test_an_even_pair_takes_one_resultant(self, monkeypatch):
        data = restrict_quartic_to_cone(CONE)
        calls = self._counted_resultants(monkeypatch)
        reports = [bitangent_sections(data, pt) for pt in ((1, 1), (-1, 1), (1, 1))]
        assert len(calls) == 1
        monkeypatch.undo()
        assert reports == [_fresh_search(data.coeffs, pt) for pt in ((1, 1), (-1, 1), (1, 1))]

    @pytest.mark.parametrize("c", [1, -1])
    def test_an_odd_z2_monomial_takes_two(self, monkeypatch, c):
        # F = z^4 + (t^3 - t) z^2 + t^4 + c (t^3 - t) - 2: both (1, 1) and
        # (-1, 1) lie on it, but F(-t, z) != F(t, z), so their searches
        # share nothing. For c = 1 the two discriminants have 18 and 17
        # roots outside degree <= 2 fields; for c = -1 both searches find
        # the conic z = (3 - t^2)/2.
        odd = ConeQuartic(
            {
                (0, 0, 0, 4): 1,
                (0, 1, 1, 2): 1,
                (1, 0, 1, 2): -1,
                (1, 1, 2, 0): 1,
                (2, 1, 1, 0): c,
                (3, 0, 1, 0): -c,
                (4, 0, 0, 0): -2,
            }
        )
        data = restrict_quartic_to_cone(odd)
        assert not data.even_in_t
        calls = self._counted_resultants(monkeypatch)
        reports = [_search(data, pt) for pt in ((1, 1), (-1, 1))]
        assert len(calls) == 2
        monkeypatch.undo()
        assert reports == [_fresh_search(data.coeffs, pt) for pt in ((1, 1), (-1, 1))]


class TestSectionCover:
    def test_squarefree_degree_eight(self):
        cover = multisection_from_section(fd_plus(poly([1, 1, 0, 0, 0, 0, 0, 0, 1])), poly([0, 0, 0]))
        assert cover.genus == 3
        assert cover.model is None

    def test_two_double_roots_leave_a_quartic(self):
        quartic = poly([2, 0, 0, 0, 1])  # t^4 + 2, nonzero at +-1
        g = poly([-1, 0, 1]) ** 2 * quartic
        cover = multisection_from_section(fd_plus(g), poly([0, 0, 0]))
        assert cover.genus == 1
        assert cover.odd_part == quartic
        assert cover.square_part == poly([-1, 0, 1])
        assert cover.model == (F(2), F(0), F(0), F(0), F(1))
        assert [(t.t, t.z) for t in cover.tangencies] == [(F(-1), F(0)), (F(1), F(0))]

    def test_one_double_root_sextic(self):
        g = poly([-1, 1]) ** 2 * poly([2, 1, 0, 0, 0, 0, 1])
        cover = multisection_from_section(fd_plus(g), poly([0, 0, 0]))
        assert cover.genus == 2
        assert cover.model is None

    def test_square_divisor_splits(self):
        cover = multisection_from_section(fd_plus(poly([-1, 0, 1]) ** 2), poly([0, 0, 0]))
        assert cover.genus == -1

    def test_zero_intersection(self):
        data = RamificationData((poly([0]), poly([0, 1]), poly([0]), poly([0]), poly([1])))
        with pytest.raises(ZeroIntersection):
            multisection_from_section(data, poly([0, 0, 0]))

    def test_genus_matches_branch_count_oracle(self):
        rng = random.Random(19)
        quartics = [FD, engineered_pair(), fd_plus(poly([1, 0, 0, 1, 0, 0, 0, 0, 1]))]
        checked = 0
        for data in quartics:
            for _ in range(34):
                s = random_section(rng)
                g = quartic_on_graph(data.coeffs, s)
                if g.is_zero:
                    continue
                cover = multisection_from_section(data, s)
                assert cover.genus == branch_count_genus(g)
                checked += 1
        assert checked >= 100

    def test_bitangent_cover_is_elliptic_with_salient_tangencies(self):
        data = engineered_pair()
        cover = multisection_from_section(data, poly([0, 0, 1]))
        assert cover.genus == 1
        assert cover.odd_part == poly([1, 1, 1]) * poly([7, 0, 1])
        assert cover.model is not None
        assert {(t.t, t.z) for t in cover.tangencies} == {(F(1), F(1)), (F(-1), F(1))}
        assert all(t.salient for t in cover.tangencies)


class TestSalience:
    """A tangency is salient when the fiber quartic F(t0, z) is squarefree;
    the oracle is Res_z(F, F_z), interpolated and evaluated at t0."""

    def test_salience_is_the_discriminant_at_the_tangency(self):
        cases = [
            (FD, poly([F(3, 2), 0, F(-1, 2)])),
            (engineered_pair(), poly([0, 0, 1])),
            (fd_plus(poly([-1, 0, 1]) ** 2 * poly([2, 0, 0, 0, 1])), poly([0])),
            # F(+-1, z) = z^2 (z^2 + 1): one double root, gcd of degree 1
            (
                RamificationData(
                    (poly([-1, 0, 1]) ** 2 * poly([2, 0, 0, 0, 1]), poly([0]), poly([1]), poly([0]), poly([1]))
                ),
                poly([0]),
            ),
            (sqrt2_tangencies(poly([0])), poly([0])),
            (sqrt2_tangencies(poly([1, 0, 1])), poly([0])),
        ]
        for data, point in ((FD, (1, 1)), (engineered_pair(), (1, 1)), (engineered_pair(), (-1, 1))):
            cases += [(data, cand.section) for cand in bitangent_sections(data, point)]
        flags = []
        for data, section in cases:
            disc = _z_discriminant(data)
            for tangency in multisection_from_section(data, section).tangencies:
                assert tangency.salient == (disc(tangency.t) != 0)
                flags.append(tangency.salient)
        assert True in flags and False in flags

    @pytest.mark.parametrize("f1, salient", [(poly([0]), False), (poly([1, 0, 1]), True)])
    def test_salience_over_a_quadratic_field(self, f1, salient):
        # F(+-sqrt 2, z) is z^4 for f1 = 0 and z^4 + 3z for f1 = 1 + t^2
        data = sqrt2_tangencies(f1)
        tangencies = multisection_from_section(data, poly([0])).tangencies
        assert len(tangencies) == 2
        assert all(isinstance(tangency.t, NumFieldElement) for tangency in tangencies)
        disc = _z_discriminant(data)
        assert [disc(tangency.t) != 0 for tangency in tangencies] == [salient, salient]
        assert [tangency.salient for tangency in tangencies] == [salient, salient]

    def test_salience_takes_no_resultant(self, monkeypatch):
        calls = []
        module = sys.modules["fibdense.exactmath.poly"]
        kernel = module._int_resultant
        monkeypatch.setattr(module, "_int_resultant", lambda A, B: calls.append(1) or kernel(A, B))
        cover = multisection_from_section(FD, poly([F(3, 2), 0, F(-1, 2)]))
        assert [(t.t, t.z, t.salient) for t in cover.tangencies] == [
            (F(-1), F(1), True),
            (F(1), F(1), True),
        ]
        assert calls == []


class TestK3Model:
    def test_worked_model(self):
        k3 = k3_weierstrass_model(FD)
        assert k3.fibration.a == ratfn([8, 0, 0, 0, -4])
        assert k3.fibration.b == ratfn([0])
        assert k3.e2 == Point(ratfn([0]), ratfn([0]))
        assert k3.twist == 1

    def test_j_invariant_fiberwise(self):
        k3 = k3_weierstrass_model(FD)
        for t0 in (F(0), F(1), F(3), F(1, 2), F(-2)):
            fiber = specialize(k3.fibration, t0)
            quartic_j = quartic_j_invariant(tuple(c(t0) for c in k3.fiber_coeffs))
            assert j_invariant(fiber) == quartic_j == 1728

    def test_discriminant_is_computed_once(self, monkeypatch):
        # the model's check, its singular parameters and later reads share
        # one discriminant, and the curve's own formula is not run for it
        calls = []
        func = FibrationModel.discriminant.func
        counted = cached_property(lambda self: calls.append(type(self)) or func(self))
        counted.__set_name__(FibrationModel, "discriminant")
        monkeypatch.setattr(FibrationModel, "discriminant", counted)
        fget = EllipticCurve.discriminant.fget
        monkeypatch.setattr(EllipticCurve, "discriminant", property(lambda self: calls.append(type(self)) or fget(self)))
        fibration = k3_weierstrass_model(FD).fibration
        fibration.singular_parameters()
        assert fibration.discriminant is fibration.discriminant
        assert calls == [FibrationModel]

    def test_non_square_lead_needs_flag(self):
        cone = ConeQuartic({(0, 0, 0, 4): 2, (1, 1, 2, 0): 1, (4, 0, 0, 0): -2})
        data = restrict_quartic_to_cone(cone)
        with pytest.raises(LeadingCoefficientNotSquare):
            k3_weierstrass_model(data)
        k3 = k3_weierstrass_model(data, allow_quadratic_twist_extension=True)
        assert k3.twist == 2
        # the twist moves the model, not the fiberwise j-invariant
        for t0 in (F(0), F(1), F(3)):
            quartic_j = quartic_j_invariant(tuple(c(t0) for c in data.coeffs))
            assert j_invariant(specialize(k3.fibration, t0)) == quartic_j

    def test_non_reduced_rejected(self):
        data = RamificationData((poly([0, 0, 1]), poly([0]), poly([0, -2]), poly([0]), poly([1])))
        with pytest.raises(NonReducedRamification):
            k3_weierstrass_model(data)
        # 2(z^2 - t)^2: its lead 2 needs the twist before the check is reached
        doubled = RamificationData(tuple(2 * c for c in data.coeffs))
        with pytest.raises(NonReducedRamification):
            k3_weierstrass_model(doubled, allow_quadratic_twist_extension=True)

    @settings(max_examples=40, deadline=None)
    @given(_even_cone_quartic())
    def test_polynomial_route_matches_the_ratfn_route(self, coeffs):
        # the reduction over Q[t] gives what the same reduction gives over Q(t)
        data = RamificationData(coeffs)
        lead = data.lead_z
        twisted = coeffs if is_square(lead) else tuple(lead * c for c in coeffs)
        a, b, _fwd, _inv, e2 = quartic_to_weierstrass(tuple(RatFn(c) for c in twisted))
        if 4 * a * a * a + 27 * b * b == 0:
            with pytest.raises(NonReducedRamification):
                k3_weierstrass_model(data, allow_quadratic_twist_extension=True)
            return
        k3 = k3_weierstrass_model(data, allow_quadratic_twist_extension=True)
        assert k3.fiber_coeffs == twisted
        assert (k3.fibration.a, k3.fibration.b, k3.e2) == (a, b, e2)

    def test_section_difference_has_definite_verdict(self):
        k3 = k3_weierstrass_model(FD)
        verdict = section_difference_order(
            k3.fibration, ZeroSection(), SplitList(((k3.e2.x, k3.e2.y),)), [F(1), F(2), F(3)]
        )
        assert verdict == Order(2)

    def test_fiber_chart_round_trip(self):
        k3 = k3_weierstrass_model(FD)
        checked = 0
        for t0 in (F(2), F(3), F(1, 2)):
            a, b, fwd, inv, _e2 = quartic_to_weierstrass(tuple(c(t0) for c in k3.fiber_coeffs))
            curve = EllipticCurve(a, b)
            assert curve == specialize(k3.fibration, t0)
            base = Point(2 * t0 * t0, 4 * t0)
            assert curve.contains(base)
            for k in range(1, 5):
                p = ec_mul(curve, k, base)
                z, w = inv(p)
                assert w * w == Poly([c(t0) for c in k3.fiber_coeffs])(z)
                assert fwd(z, w) == p
                checked += 1
        assert checked == 12


class TestEndToEnd:
    def test_bitangent_feeds_the_density_pipeline(self):
        """Restriction -> bitangent -> degree-2 multisection of the
        Weierstrass model, with the tangency parameters salient."""
        data = engineered_pair()
        k3 = k3_weierstrass_model(data)
        cand = next(
            c for c in bitangent_sections(data, (1, 1)) if c.section == poly([0, 0, 1])
        )
        graph = GraphOnQuartic(p=cand.section, fiber_coeffs=k3.fiber_coeffs)
        assert graph.degree == 2
        report = graph.ramification(k3.fibration)
        params = {entry.b for entry in report.points}
        assert {F(1), F(-1)} <= params
        assert all(entry.salient for entry in report.points)
        # the cover-side salience computation agrees
        cover = multisection_from_section(data, cand.section)
        assert {t.t for t in cover.tangencies} == params
        assert all(t.salient for t in cover.tangencies)
