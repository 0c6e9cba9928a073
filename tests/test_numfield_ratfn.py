from __future__ import annotations

import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fibdense.errors import DomainError, NoSquareRoot, PoleAtParameter, ZeroInput
from fibdense.exactmath import (
    NumField,
    Poly,
    RatFn,
    is_square,
    poly,
    quadratic_field,
    ratfn,
)

FIELDS = [
    NumField(poly([-2, 0, 1]), "s"),  # sqrt(2)
    NumField(poly([1, 0, 1]), "i"),  # sqrt(-1)
]


def _rand_element(field: NumField, rng: random.Random):
    return field.element([Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(field.degree)])


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: str(f.minimal_polynomial))
def test_field_axioms_on_random_elements(field):
    rng = random.Random(hash(field) & 0xFFFF)
    for _ in range(40):
        a = _rand_element(field, rng)
        b = _rand_element(field, rng)
        c = _rand_element(field, rng)
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + (-a) == field.embed(0)
        if b:
            assert (a * b) / b == a
            assert b * b.inverse() == field.one


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: str(f.minimal_polynomial))
def test_generator_satisfies_minimal_polynomial(field):
    g = field.gen
    acc = field.embed(0)
    for k in range(field.degree + 1):
        acc = acc + field.embed(field.minimal_polynomial.coefficient(k)) * g**k
    assert acc == field.embed(0)


def test_mixed_arithmetic_with_ints_and_fractions():
    K = FIELDS[0]
    g = K.gen
    assert 1 + g == g + 1
    assert 2 * g - g == g
    assert (g / 2) * 2 == g
    assert Fraction(1, 2) + g == K.element([Fraction(1, 2), 1])
    assert 1 / g == g / 2  # 1/sqrt2 = sqrt2/2
    assert g**-2 == Fraction(1, 2)


_small_rat = st.builds(Fraction, st.integers(-50, 50), st.integers(1, 9))


@settings(max_examples=100, deadline=None)
@given(st.lists(_small_rat, min_size=2, max_size=2), st.one_of(st.integers(-20, 20), _small_rat).filter(bool))
def test_division_by_a_rational_matches_the_field_inverse(cs, r):
    for K in FIELDS:
        a = K.element(cs)
        got = a / r
        assert got == a * K.embed(r).inverse()
        assert all(isinstance(c, Fraction) for c in got.coeffs)


@settings(max_examples=100, deadline=None)
@given(st.lists(_small_rat, min_size=2, max_size=2), st.one_of(st.integers(-20, 20), _small_rat))
def test_adding_a_rational_matches_the_embedded_element(cs, r):
    for K in FIELDS:
        a, e = K.element(cs), K.embed(r)
        for got, want in ((a + r, a + e), (r + a, e + a), (a - r, a - e), (r - a, e - a)):
            assert got == want and got.field == K
            assert all(isinstance(c, Fraction) for c in got.coeffs)


def test_division_by_rational_zero_raises():
    a = FIELDS[0].element([1, 2])
    for zero in (0, Fraction(0)):
        with pytest.raises(ZeroInput):
            a / zero


def test_reducible_minimal_polynomials_rejected():
    with pytest.raises(DomainError):
        NumField(poly([1, 2, 1]))  # (x+1)^2
    with pytest.raises(DomainError):
        NumField(poly([-6, 1, 1]))  # (x+3)(x-2)
    with pytest.raises(DomainError):
        NumField(poly([4, 0, 5, 0, 1]))  # (x^2+1)(x^2+4)
    with pytest.raises(DomainError):
        NumField(poly([1, 0, 2, 0, 1]))  # (x^2+1)^2
    with pytest.raises(DomainError):
        NumField(poly([0, 1]))  # degree 1
    with pytest.raises(DomainError):
        NumField(poly([1] + [0] * 4 + [1]))  # degree 5


def test_higher_degree_minimal_polynomials_rejected():
    with pytest.raises(DomainError):
        NumField(poly([-2, 0, 0, 1]))  # x^3 - 2, irreducible
    with pytest.raises(DomainError):
        NumField(poly([2, 0, 0, 0, 1]))  # x^4 + 2, irreducible
    with pytest.raises(DomainError):
        NumField(poly([1, 1, 1, 1, 1]))  # 5th cyclotomic


_x = sympy.Symbol("x")
_rat64 = st.builds(Fraction, st.integers(-(2**64), 2**64), st.integers(1, 2**64))


def _to_sympy(coeffs):
    return sympy.Poly(
        [sympy.Rational(c.numerator, c.denominator) for c in reversed(coeffs)] or [0], _x, domain="QQ"
    )


@settings(max_examples=60, deadline=None)
@given(_rat64, _rat64, st.lists(_rat64, min_size=4, max_size=4))
def test_closed_forms_match_sympy(p1, p0, cs):
    """Product, inverse, norm and square root of x^2 + p1*x + p0 against
    polynomial arithmetic modulo the minimal polynomial."""
    assume(not is_square(p1 * p1 - 4 * p0))
    K = NumField(poly([p0, p1, 1]), "r")
    a, b = K.element(cs[:2]), K.element(cs[2:])
    m, sa, sb = _to_sympy([p0, p1, Fraction(1)]), _to_sympy(cs[:2]), _to_sympy(cs[2:])
    assert _to_sympy((a * b).coeffs) == (sa * sb).rem(m)
    norm = a * a.conjugate()
    assert norm.is_rational and norm.as_fraction() == Fraction(str(m.resultant(sa)))
    if a:
        assert _to_sympy(a.inverse().coeffs) == sa.invert(m)
    sq = a * a
    root = K.sqrt(sq)
    assert root * root == sq


def test_conjugate_properties():
    K = NumField(poly([-5, 1, 1]), "r")  # x^2 + x - 5
    rng = random.Random(7)
    for _ in range(25):
        a = _rand_element(K, rng)
        assert (a + a.conjugate()).is_rational
        assert (a * a.conjugate()).is_rational
        assert a.conjugate().conjugate() == a


def test_quadratic_field_roots():
    f = poly([-1, -1, 1])  # x^2 - x - 1
    K, r1, r2 = quadratic_field(f)
    assert f(r1) == K.embed(0) and f(r2) == K.embed(0)
    assert r1 != r2
    assert (r1 + r2).as_fraction() == 1
    assert (r1 * r2).as_fraction() == -1


def test_field_sqrt():
    K = FIELDS[0]
    s = K.gen
    assert K.sqrt(K.embed(2)) in (s, -s)
    got = K.sqrt(K.element([3, 2]))  # 3 + 2*sqrt2 = (1+sqrt2)^2
    assert got * got == K.element([3, 2])
    assert K.sqrt(K.embed(Fraction(9, 4))) == Fraction(3, 2)
    with pytest.raises(NoSquareRoot):
        K.sqrt(K.embed(3))
    with pytest.raises(NoSquareRoot):
        K.sqrt(K.element([1, 1]))
    rng = random.Random(11)
    for _ in range(30):
        a = _rand_element(K, rng)
        sq = a * a
        got = K.sqrt(sq)
        assert got * got == sq


def test_elements_of_distinct_fields_do_not_mix():
    a, b = FIELDS[0].gen, FIELDS[1].gen
    for op in (lambda: a + b, lambda: a - b, lambda: b - a):
        with pytest.raises(DomainError):
            op()


# -- rational functions --


def test_ratfn_reduction_and_normal_form():
    t = ratfn([0, 1])
    r = (t * t - 1) / (t - 1)
    assert r.is_polynomial and r.num == poly([1, 1])
    assert RatFn(poly([0, 2]), poly([0, 0, 4])) == RatFn(1, poly([0, 2]))
    assert RatFn(poly([0, 2]), poly([0, 0, 4])).den.lead == 1


def test_ratfn_field_axioms_random():
    rng = random.Random(13)

    def rand():
        num = Poly([Fraction(rng.randint(-4, 4)) for _ in range(rng.randint(1, 4))])
        den = Poly([Fraction(rng.randint(-4, 4)) for _ in range(rng.randint(1, 3))])
        if den.is_zero:
            den = poly([1])
        return RatFn(num, den)

    for _ in range(60):
        a, b, c = rand(), rand(), rand()
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert a - a == RatFn(0)
        if b:
            assert (a / b) * b == a


def test_ratfn_mixed_scalar_arithmetic():
    t = ratfn([0, 1])
    assert 2 * t == t + t
    assert (t + 1) - 1 == t
    assert 1 / t == RatFn(1, poly([0, 1]))
    assert t / 2 == RatFn(poly([0, Fraction(1, 2)]))
    assert t**0 == RatFn(1)
    assert t**-2 == RatFn(1, poly([0, 0, 1]))


def test_ratfn_evaluation_and_poles():
    t = ratfn([0, 1])
    r = (t + 1) / (t - 1)
    assert r(Fraction(3)) == 2
    with pytest.raises(PoleAtParameter):
        r(Fraction(1))
    with pytest.raises(ZeroInput):
        RatFn(1, 0)
    with pytest.raises(ZeroInput):
        (t - t) ** -1


def test_poly_evaluation_at_ratfn_argument():
    # generic Horner evaluation makes a(t(s)) work out of the box
    a = poly([1, 0, 3])  # 3t^2 + 1
    t_of_s = ratfn(poly([1, 1]), poly([0, 1]))  # (s+1)/s
    got = a(t_of_s)
    assert got == (3 * t_of_s * t_of_s + 1)
    assert got == ratfn(poly([3, 6, 4]), poly([0, 0, 1]))
