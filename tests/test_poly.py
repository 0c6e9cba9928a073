from __future__ import annotations

import contextlib
import random
import sys
from fractions import Fraction
from unittest import mock

import pytest
import sympy
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from fibdense.errors import BothZero, ZeroInput
from fibdense.exactmath import (
    NumField,
    Poly,
    poly,
    poly_gcd,
    rational_roots,
    resultant_bivariate,
    squarefree_decompose,
    squarefree_part,
)
from fibdense.exactmath.poly import (
    _int_horner_all,
    _simple_roots_mod_small_prime,
    _to_int_primitive,
)

_x = sympy.Symbol("x")


def _to_sympy(p: Poly):
    return sympy.Poly([sympy.Rational(c) for c in reversed(p.coeffs)] or [0], _x, domain="QQ")


def _rand_poly(rng: random.Random, max_deg: int, max_coef: int = 9) -> Poly:
    deg = rng.randint(0, max_deg)
    coeffs = [Fraction(rng.randint(-max_coef, max_coef)) for _ in range(deg + 1)]
    return Poly(coeffs)


@contextlib.contextmanager
def _counted_tries(cap: int = 64):
    """Record the heuristic gcd's evaluation points (one per try) and fail
    once `cap` tries have passed: a kernel that never accepts its answer
    would otherwise double xi forever."""
    tries = []
    evaluate = _int_horner_all

    def counted(polys, x):
        tries.append(x)
        assert len(tries) <= cap, "the heuristic gcd did not settle"
        return evaluate(polys, x)

    with mock.patch.object(sys.modules["fibdense.exactmath.poly"], "_int_horner_all", counted):
        yield tries


def test_construction_strips_trailing_zeros():
    assert poly([1, 2, 0, 0]).degree == 1
    assert poly([0, 0]).is_zero
    assert Poly().degree == -1


def test_basic_arithmetic():
    p = poly([1, 2, 1])
    q = poly([-1, 1])
    assert p * q == poly([-1, -1, 1, 1])
    assert p + q == poly([0, 3, 1])
    assert p - p == Poly()
    assert (poly([0, 1]) + 1) ** 2 == p
    assert p(Fraction(3)) == 16
    assert p.derivative() == poly([2, 2])


def test_divmod_exact_and_remainder():
    p = poly([-1, 0, 0, 0, 1])  # t^4 - 1
    q = poly([-1, 0, 1])  # t^2 - 1
    quo, rem = divmod(p, q)
    assert rem.is_zero and quo == poly([1, 0, 1])
    quo2, rem2 = divmod(poly([1, 1, 1]), poly([0, 1]))
    assert quo2 == poly([1, 1]) and rem2 == poly([1])
    with pytest.raises(ZeroInput):
        poly([1, 1]).exact_div(poly([0, 1]))


def test_gcd_fixed_values():
    with _counted_tries():
        assert poly_gcd(poly([-1, 0, 0, 0, 1]), poly([-1, 0, 0, 0, 0, 0, 1])) == poly([-1, 0, 1])
        assert poly_gcd(poly([1, 2, 1]), poly([1, 1])) == poly([1, 1])
    assert poly_gcd(poly([1, 1]), Poly()) == poly([1, 1])
    with pytest.raises(BothZero):
        poly_gcd(Poly(), Poly())


def _constant_coefficients(p: Poly) -> list[Poly]:
    """p read as a polynomial whose coefficients are constant polynomials."""
    return [Poly([c]) for c in p.coeffs]


def test_resultant_and_discriminant_fixed_values():
    def res(p, q):
        return resultant_bivariate(_constant_coefficients(p), _constant_coefficients(q))

    assert res(poly([-2, 1]), poly([1, 0, 1])) == poly([5])
    # res(p, p') = (-1)^(d(d-1)/2) * lead(p) * disc(p) for p of degree d
    assert res(poly([-1, 0, 1]), poly([0, 2])) == poly([-4])  # disc(x^2 - 1) = 4
    assert res(poly([0, -1, 0, 1]), poly([-1, 0, 3])) == poly([-4])  # disc(x^3 - x) = 4
    # y^2 = x^3 + 1 model polynomial x^3 + 1: disc = -27
    assert res(poly([1, 0, 0, 1]), poly([0, 0, 3])) == poly([27])
    with pytest.raises(ZeroInput):
        res(Poly(), poly([1, 1]))


def test_squarefree_decompose_fixed():
    f = poly([0, -1, 0, 1]) * poly([-2, 0, 1]) ** 2
    assert [(q, m) for q, m in squarefree_decompose(f)] == [
        (poly([0, -1, 0, 1]), 1),
        (poly([-2, 0, 1]), 2),
    ]
    assert squarefree_part(f) == (poly([0, -1, 0, 1]) * poly([-2, 0, 1])).monic()


def test_rational_roots_fixed():
    assert rational_roots(poly([-1, -1, 2])) == [(Fraction(-1, 2), 1), (Fraction(1), 1)]
    assert rational_roots(poly([1, 0, 1])) == []
    assert rational_roots(poly([0, 0, 1])) == [(Fraction(0), 2)]
    # multiplicities through a composite: (t-1)^3 (2t+3)
    f = poly([-1, 1]) ** 3 * poly([3, 2])
    assert rational_roots(f) == [(Fraction(-3, 2), 1), (Fraction(1), 3)]


def test_rational_roots_survives_large_coefficients():
    # product with a huge irreducible cofactor exercises the modular path
    big = poly([10**40 + 1, 0, 3, 0, 1])
    f = poly([-7, 3]) * poly([5, 2]) * big
    assert rational_roots(f) == [(Fraction(-5, 2), 1), (Fraction(7, 3), 1)]


@pytest.mark.parametrize(
    "roots, prime",
    [
        ([1, 102], 103),  # 1 and 102 meet mod 101
        ([1, 1 + 101 * 103], 107),  # meet mod 101 and mod 103
        ([1, Fraction(5, 101)], 103),  # 101 divides the leading coefficient
    ],
)
def test_rational_roots_skip_primes_with_repeated_roots(roots, prime):
    f = poly([-2, 0, 0, 1])
    for r in roots:
        f = f * poly([-Fraction(r).numerator, Fraction(r).denominator])
    g = _to_int_primitive(f)
    assert _simple_roots_mod_small_prime(g, [i * c for i, c in enumerate(g)][1:])[0] == prime
    assert rational_roots(f) == [(Fraction(r), 1) for r in sorted(roots)]


@settings(max_examples=40, deadline=None)
@given(
    lins=st.lists(
        st.tuples(st.integers(-10**30, 10**30), st.integers(1, 10**30), st.integers(1, 2)),
        min_size=1,
        max_size=3,
    ),
    cofactor=st.lists(st.integers(-9, 9), min_size=2, max_size=4),
)
# root 0 in a squarefree Yun factor of degree >= 3: t(t^2 + 1), and
# t(2t - 3)(t^3 + 2), a degree-5 factor that takes the modular search
@example(lins=[(0, 1, 1)], cofactor=[1, 0])
@example(lins=[(0, 1, 1), (3, 2, 1)], cofactor=[2, 0, 0])
# root 0 in the repeated Yun factor t(3t - 5)(2t + 7) of multiplicity 2
@example(lins=[(0, 1, 2), (5, 3, 2), (-7, 2, 2)], cofactor=[1, 0])
def test_rational_roots_match_sympy_factor_list(lins, cofactor):
    # (den x - num)^mult for each linear factor, times a monic irreducible
    # cofactor of degree 2-4 with small coefficients
    q = _x ** len(cofactor) + sum(c * _x**i for i, c in enumerate(cofactor))
    assume(sympy.Poly(q, _x).is_irreducible)
    expr = q
    for num, den, mult in lins:
        expr *= (den * _x - num) ** mult
    f = Poly([Fraction(int(c)) for c in reversed(sympy.Poly(expr, _x).all_coeffs())])

    expected = []
    for factor, mult in sympy.factor_list(expr, _x)[1]:
        if sympy.degree(factor, _x) == 1:
            a, b = sympy.Poly(factor, _x).all_coeffs()
            expected.append((Fraction(-int(b), int(a)), mult))
    assert rational_roots(f) == sorted(expected)


def test_resultant_bivariate_eliminates_main_variable():
    # res_z(z^2 - s, z - s) = s^2 - s
    fc = [poly([0, -1]), Poly(), poly([1])]
    gc = [poly([0, -1]), poly([1])]
    assert resultant_bivariate(fc, gc) == poly([0, -1, 1])


def test_gcd_matches_sympy_on_random_pairs():
    rng = random.Random(101)
    for _ in range(120):
        f = _rand_poly(rng, 6)
        g = _rand_poly(rng, 6)
        if f.is_zero and g.is_zero:
            continue
        with _counted_tries():
            ours = poly_gcd(f, g)
        theirs = sympy.gcd(_to_sympy(f), _to_sympy(g)).monic()
        assert _to_sympy(ours) == theirs


# rationals with numerators of up to 128 bits and denominators up to 2^20
_big_coeff = st.builds(Fraction, st.integers(-(2**128), 2**128), st.integers(1, 2**20))


def _big_poly(max_degree: int):
    return st.lists(_big_coeff, max_size=max_degree + 1).map(Poly).filter(lambda p: not p.is_zero)


@settings(max_examples=60, deadline=None)
@given(_big_poly(10), _big_poly(20), _big_poly(20))
def test_gcd_matches_sympy_on_planted_factors(g, a, b):
    # g * a and g * b share g; a and b are almost always coprime, and a
    # constant g (G = 1) or a constant a (a constant input) is drawn too
    f, h = g * a, g * b
    with _counted_tries():
        ours = poly_gcd(f, h)
    theirs = sympy.gcd(_to_sympy(f), _to_sympy(h)).monic()
    assert _to_sympy(ours) == theirs
    assert ours.lead == 1
    assert (f % ours).is_zero and (h % ours).is_zero
    assert (ours % g.monic()).is_zero


@pytest.mark.parametrize(
    "f,h,gcd",
    [
        # xi = 6: h = 24 reads back as x^2 - 2x, which divides only the
        # first input; xi = 12 gives h = 24 = 2x, whose primitive part is x
        (poly([0, -2, 1]), poly([0, 2, 1]), poly([0, 1])),
        (poly([0, 2, 1]), poly([0, -2, 1]), poly([0, 1])),
        # xi = 4: h = 3 reads back as x - 1, which divides only x - 1
        (poly([-1, 1]), poly([2, 1]), poly([1])),
        (poly([2, 1]), poly([-1, 1]), poly([1])),
    ],
)
def test_gcd_retries_when_the_first_point_fails(f, h, gcd):
    with _counted_tries() as tries:
        assert poly_gcd(f, h) == gcd
    assert tries[1] == 2 * tries[0]


def test_gcd_first_point_is_twice_the_smaller_norm_plus_two():
    # with xi = 3 = |A| the values A(3) = 2, B(3) = 5 are coprime and the
    # constant 1 would pass the division test, though the gcd is x - 2
    with _counted_tries() as tries:
        assert poly_gcd(poly([2, -3, 1]), poly([-4, 0, 1])) == poly([-2, 1])
    assert tries[0] == 2 * 3 + 2


def test_gcd_settles_when_every_value_shares_a_factor():
    # x^2 + x and x^2 + x + 2 are coprime, but both are even at every
    # integer, so h always carries an extra factor 2 (or more) that only the
    # primitive part removes
    g = poly([-1, 1])
    with _counted_tries() as tries:
        assert poly_gcd(g * poly([0, 1, 1]), g * poly([2, 1, 1])) == g
    assert len(tries) <= 3


def _sylvester_det_sympy(f: Poly, g: Poly):
    n, m = f.degree, g.degree
    size = n + m
    fd = [sympy.Rational(c) for c in reversed(f.coeffs)]
    gd = [sympy.Rational(c) for c in reversed(g.coeffs)]
    rows = [[0] * i + fd + [0] * (size - n - 1 - i) for i in range(m)]
    rows += [[0] * i + gd + [0] * (size - m - 1 - i) for i in range(n)]
    return sympy.Matrix(rows).det()


def test_resultant_matches_sympy_on_random_pairs():
    # Sign oracle: an explicit Sylvester determinant (ours is defined as
    # res(f, g) = det Syl(f, g)). sympy.resultant's sign relative to that
    # determinant is data-dependent when both degrees are odd, so sympy is
    # only used as a magnitude cross-check here.
    rng = random.Random(202)
    for _ in range(60):
        f = _rand_poly(rng, 5)
        g = _rand_poly(rng, 5)
        if f.degree < 1 or g.degree < 1:
            continue
        ours = resultant_bivariate(_constant_coefficients(f), _constant_coefficients(g)).coefficient(0)
        assert ours == _sylvester_det_sympy(f, g)
        theirs = sympy.resultant(_to_sympy(f).as_expr(), _to_sympy(g).as_expr(), _x)
        assert abs(ours) == abs(sympy.Rational(theirs))


def test_resultant_classical_convention_anchor():
    # res(x - 1, x^3 - 2) = value of x^3 - 2 at the root of x - 1
    lin, cube = _constant_coefficients(poly([-1, 1])), _constant_coefficients(poly([-2, 0, 0, 1]))
    assert resultant_bivariate(lin, cube) == poly([-1])
    # res(2x - 1, x^3 + 1) = 2^3 * ((1/2)^3 + 1) = 9
    lin, cube = _constant_coefficients(poly([-1, 2])), _constant_coefficients(poly([1, 0, 0, 1]))
    assert resultant_bivariate(lin, cube) == poly([9])


def test_rational_roots_match_sympy_on_random_polys():
    rng = random.Random(404)
    for _ in range(80):
        f = _rand_poly(rng, 6)
        if f.is_zero:
            continue
        ours = dict(rational_roots(f))
        sym_roots = sympy.roots(_to_sympy(f))
        theirs = {
            Fraction(int(r.p), int(r.q)): m
            for r, m in sym_roots.items()
            if r.is_rational
        }
        assert ours == theirs


def test_squarefree_decompose_reconstructs_random_products():
    rng = random.Random(505)
    for _ in range(60):
        f = _rand_poly(rng, 3)
        g = _rand_poly(rng, 2)
        if f.degree < 1 or g.degree < 1:
            continue
        prod = f * g * g
        parts = squarefree_decompose(prod)
        rebuilt = poly([prod.lead])
        for q, m in parts:
            assert q.lead == 1
            assert poly_gcd(q, q.derivative()).degree == 0
            rebuilt = rebuilt * q**m
        assert rebuilt == prod


def test_resultant_bivariate_matches_sympy():
    rng = random.Random(606)
    s = sympy.Symbol("s")
    z = sympy.Symbol("z")
    for _ in range(25):
        fc = [_rand_poly(rng, 2, 4) for _ in range(3)]
        gc = [_rand_poly(rng, 2, 4) for _ in range(2)]
        if fc[-1].is_zero or gc[-1].is_zero:
            continue
        ours = resultant_bivariate(fc, gc)
        f_expr = sum(_to_sympy(c).as_expr().subs(_x, s) * z**i for i, c in enumerate(fc))
        g_expr = sum(_to_sympy(c).as_expr().subs(_x, s) * z**i for i, c in enumerate(gc))
        theirs = sympy.Poly(sympy.resultant(f_expr, g_expr, z), s)
        assert _to_sympy(ours).as_expr().subs(_x, s).expand() == theirs.as_expr().expand()


_inner_coeff = st.fractions(min_value=-5, max_value=5, max_denominator=6)
_inner = st.lists(_inner_coeff, max_size=3).map(Poly)  # may be the zero polynomial
_nonzero_inner = _inner.filter(lambda p: not p.is_zero)
# (t - r) * q: the main-variable degree drops at the interpolation node r
_vanishing_at_node = st.builds(
    lambda r, q: Poly([Fraction(-r), Fraction(1)]) * q, st.integers(-2, 2), _nonzero_inner
)


@st.composite
def _bivariate(draw):
    """Coefficient list in z (ascending) of a polynomial of z-degree 1-4
    over Q[t], with a nonzero leading coefficient."""
    degree = draw(st.integers(1, 4))
    lower = draw(st.lists(_inner, min_size=degree, max_size=degree))
    return lower + [draw(st.one_of(_nonzero_inner, _vanishing_at_node))]


@settings(max_examples=100, deadline=None)
@given(_bivariate(), _bivariate())
def test_resultant_bivariate_matches_sympy_on_degree_drops(fc, gc):
    s, z = sympy.symbols("s z")

    def expr(cs):
        return sum(_to_sympy(c).as_expr().subs(_x, s) * z**i for i, c in enumerate(cs))

    # sympy.resultant(f, g) swaps f and g without the sign (-1)^(nm) when
    # deg f < deg g (see test_resultant_matches_sympy_on_random_pairs), so
    # it is called with the higher degree first and the sign applied here.
    n, m = len(fc) - 1, len(gc) - 1
    if n >= m:
        res = sympy.resultant(expr(fc), expr(gc), z)
    else:
        res = (-1) ** (n * m) * sympy.resultant(expr(gc), expr(fc), z)
    theirs = sympy.Poly(res, s, domain="QQ")
    ours = resultant_bivariate(fc, gc)
    assert [Fraction(int(c.p), int(c.q)) for c in reversed(theirs.all_coeffs())] == (
        list(ours.coeffs) or [Fraction(0)]
    )


def test_resultant_bivariate_is_over_q_only():
    root2 = NumField(poly([-2, 0, 1])).gen
    with pytest.raises(ZeroInput, match="over Q only"):
        resultant_bivariate([poly([1]), Poly([root2])], [poly([0, 1]), poly([1])])


# -- the integer kernels behind resultant_bivariate, squarefree_decompose and
# rational_roots, against sympy --

# t(t - 1)(t + 1) * q: the leading coefficient vanishes at the first three
# interpolation nodes 0, 1, -1, so each of them must be skipped
_vanishing_at_first_nodes = st.builds(lambda q: Poly([0, -1, 0, 1]) * q, _nonzero_inner)


def _bivariate_product(a: list[Poly], b: list[Poly]) -> list[Poly]:
    out = [Poly()] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] = out[i + j] + ca * cb
    return out


@st.composite
def _z_polynomial(draw, max_degree):
    degree = draw(st.integers(1, max_degree))
    lower = draw(st.lists(_inner, min_size=degree, max_size=degree))
    return lower + [draw(st.one_of(_nonzero_inner, _vanishing_at_first_nodes))]


@settings(max_examples=80, deadline=None)
@given(_z_polynomial(3), _z_polynomial(4), st.one_of(st.none(), _z_polynomial(1)))
# n < m, both leading coefficients vanishing at 0, 1 and -1
@example([Poly(), Poly([0, -1, 0, 1])], [Poly([1]), Poly([2]), Poly([0, -1, 0, 1])], None)
# only the leading coefficient of g vanishes at the first nodes
@example([Poly([1]), Poly([2]), Poly([1])], [Poly(), Poly([0, -1, 0, 1])], None)
# n < m, both odd: the swap inside the kernel carries the sign (-1)^(nm)
@example([Poly([0, 1]), Poly([1])], [Poly([1]), Poly([2]), Poly([0, 0, 1]), Poly([0, -1, 0, 1])], None)
# an abnormal remainder sequence: a remainder degree drops by 2
@example([Poly([c]) for c in (1, 2, 1, 0, -1)], [Poly([c]) for c in (0, 2, 1, -2, 1, 2)], None)
def test_resultant_bivariate_matches_sympy_resultant(fc, gc, common):
    s, z = sympy.symbols("s z")
    if common is not None:  # a shared factor of positive z-degree: the resultant is 0
        fc, gc = _bivariate_product(fc, common), _bivariate_product(gc, common)

    def expr(cs):
        return sum(_to_sympy(c).as_expr().subs(_x, s) * z**i for i, c in enumerate(cs))

    # higher degree first, with the sign (-1)^(nm) applied here (see
    # test_resultant_bivariate_matches_sympy_on_degree_drops)
    n, m = len(fc) - 1, len(gc) - 1
    if n >= m:
        res = sympy.resultant(expr(fc), expr(gc), z)
    else:
        res = (-1) ** (n * m) * sympy.resultant(expr(gc), expr(fc), z)
    theirs = [Fraction(int(c.p), int(c.q)) for c in reversed(sympy.Poly(res, s, domain="QQ").all_coeffs())]
    ours = resultant_bivariate(fc, gc)
    assert (list(ours.coeffs) or [Fraction(0)]) == theirs
    if common is not None:
        assert ours.is_zero


_int_factor = st.lists(st.integers(-4, 4), min_size=1, max_size=3).flatmap(
    lambda low: st.integers(1, 3).map(lambda lead: Poly([*low, lead]))
)
# neither monic nor primitive: a rational multiplier whose numerator is not +-1
_scale = st.builds(lambda k, d, sign: Fraction(sign * k, d), st.integers(2, 12), st.integers(1, 7), st.sampled_from([1, -1]))


@settings(max_examples=60, deadline=None)
@given(_scale, st.lists(st.tuples(_int_factor, st.integers(1, 3)), min_size=1, max_size=4))
def test_squarefree_decompose_matches_sympy_sqf_list(scale, factors):
    p = Poly([scale])
    for f, m in factors:
        p = p * f**m
    _lead, expected = _to_sympy(p).sqf_list()
    theirs = [(Poly([Fraction(int(c.p), int(c.q)) for c in reversed(q.all_coeffs())]), m) for q, m in expected]
    assert squarefree_decompose(p) == sorted(theirs, key=lambda fm: fm[1])


@settings(max_examples=60, deadline=None)
@given(
    _scale,
    st.lists(st.tuples(st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6)), st.integers(1, 3)), max_size=4),
    st.lists(st.tuples(_int_factor, st.integers(1, 2)), max_size=2),
)
def test_rational_root_multiplicities_match_sympy_roots(scale, lins, cofactors):
    p = Poly([scale])
    for r, m in lins:
        p = p * Poly([-r, 1]) ** m
    for f, m in cofactors:
        p = p * f**m
    theirs = {Fraction(int(r.p), int(r.q)): m for r, m in sympy.roots(_to_sympy(p), filter="Q").items()}
    ours = rational_roots(p)
    assert [r for r, _m in ours] == sorted(theirs)
    assert dict(ours) == theirs


def _schoolbook_product(a: Poly, b: Poly) -> Poly:
    """The reference product: one field multiplication and addition per
    pair of terms, the loop Poly.__mul__ keeps for coefficients outside Q."""
    if a.is_zero or b.is_zero:
        return Poly()
    out = [0] * (len(a.coeffs) + len(b.coeffs) - 1)
    for i, ca in enumerate(a.coeffs):
        for j, cb in enumerate(b.coeffs):
            out[i + j] = out[i + j] + ca * cb
    return Poly(out)


# zeros at any position, numerators up to 2^70 and denominators of either
# sign up to 2^64, so a product whose denominators do not cancel shows
_product_coeff = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-(2**70), 2**70), st.integers(-(2**64), 2**64).filter(bool)),
    st.builds(Fraction, st.integers(-9, 9), st.integers(-6, 6).filter(bool)),
)
_product_poly = st.lists(_product_coeff, max_size=9).map(Poly)


@settings(max_examples=150, deadline=None)
@given(_product_poly, _product_poly)
@example(Poly([1, 0, 0, 2]), Poly([Fraction(1, 3), 0, Fraction(-5, 7)]))
@example(Poly([Fraction(1, 2), 0, Fraction(1, 2)]), Poly([Fraction(-1, 3), Fraction(1, 3)]))
def test_rational_product_matches_sympy_and_the_schoolbook_loop(a, b):
    product = a * b
    assert product == _schoolbook_product(a, b)
    assert _to_sympy(product) == _to_sympy(a) * _to_sympy(b)
    assert all(type(c) is Fraction for c in product.coeffs)


@settings(max_examples=60, deadline=None)
@given(st.lists(_product_coeff, max_size=4).map(Poly), st.integers(0, 5))
def test_rational_power_matches_sympy_and_the_schoolbook_loop(p, n):
    expected = Poly([1])
    for _ in range(n):
        expected = _schoolbook_product(expected, p)
    assert p**n == expected
    assert _to_sympy(p**n) == _to_sympy(p) ** n


_ROOT2 = NumField(poly([-2, 0, 1]), "r")


@settings(max_examples=60, deadline=None)
@given(
    _product_poly,
    st.lists(st.tuples(_product_coeff, _product_coeff), min_size=1, max_size=6),
)
def test_products_with_quadratic_field_coefficients_take_the_generic_loop(a, pairs):
    b = Poly([_ROOT2.element([u, v]) for u, v in pairs])
    embedded = Poly([_ROOT2.embed(c) for c in a.coeffs])
    assert a * b == embedded * b == _schoolbook_product(embedded, b)
    assert b * a == a * b
