"""Property test of the shared root splitter over Q and quadratic fields,
with sympy's factorization as the oracle."""

from __future__ import annotations

import sys
from fractions import Fraction as F

import sympy
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from fibdense.exactmath import NumFieldElement, Poly, quadratic_field
from fibdense.fibration import small_field_roots

X = sympy.Symbol("x")

small = st.integers(-6, 6)
rationals = st.builds(F, small, st.integers(1, 4))
mults = st.integers(1, 3)
linears = st.tuples(rationals, mults)
quadratics = st.tuples(st.tuples(small, small), mults)  # x^2 + b x + c
cubics = st.tuples(st.tuples(small, small, small), st.integers(1, 2))  # x^3 + a x^2 + b x + c


def _to_poly(expr) -> Poly:
    coeffs = sympy.Poly(expr, X, domain="QQ").all_coeffs()
    return Poly([F(int(c.p), int(c.q)) for c in reversed(coeffs)])


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(
    lead=rationals.filter(bool),
    lins=st.lists(linears, max_size=3),
    quads=st.lists(quadratics, max_size=2),
    cubs=st.lists(cubics, max_size=1),
)
# (x^2 + 1)^2 (x - 1): degree 5, so decomposed; x^2 + 1 keeps multiplicity 2
@example(lead=F(1), lins=[(F(1), 1)], quads=[((0, 1), 2)], cubs=[])
# x^3 - 2: an irreducible cubic remainder, left unresolved without Yun
@example(lead=F(1), lins=[], quads=[], cubs=[((0, 0, -2), 1)])
# 3(x - 1)^2 (x + 1/2): a cubic, not decomposed, with a double rational root
@example(lead=F(3), lins=[(F(1), 2), (F(-1, 2), 1)], quads=[], cubs=[])
def test_small_field_roots_match_sympy(lead, lins, quads, cubs):
    factors = [(X - sympy.Rational(r.numerator, r.denominator), m) for r, m in lins]
    for (b, c), m in quads:
        q = X**2 + b * X + c
        assume(sympy.Poly(q, X).is_irreducible)
        factors.append((q, m))
    for (a, b, c), m in cubs:
        q = X**3 + a * X**2 + b * X + c
        assume(sympy.Poly(q, X).is_irreducible)
        factors.append((q, m))
    expr = sympy.Rational(lead.numerator, lead.denominator)
    for f, m in factors:
        expr *= f**m
    p = _to_poly(sympy.expand(expr))

    # expected: rational roots, and per multiplicity the product of the
    # nonlinear irreducible factors, which splits only when it is quadratic
    expected_rational = []
    grouped: dict[int, sympy.Expr] = {}
    for f, m in sympy.factor_list(expr, X)[1]:
        if sympy.degree(f, X) == 1:
            root = sympy.solve(f, X)[0]
            expected_rational.append((F(int(root.p), int(root.q)), m))
        else:
            grouped[m] = grouped.get(m, sympy.Integer(1)) * f
    expected_quadratic = {m: _to_poly(g).monic() for m, g in grouped.items() if sympy.degree(g, X) == 2}
    expected_unresolved = [_to_poly(g).monic() for m, g in sorted(grouped.items()) if sympy.degree(g, X) > 2]

    roots, unresolved = small_field_roots(p, "r")

    assert [(r, m) for r, m in roots if isinstance(r, F)] == sorted(expected_rational)
    quadratic = [(r, m) for r, m in roots if not isinstance(r, F)]
    assert sorted(m for _r, m in quadratic) == sorted(2 * list(expected_quadratic))
    for r, m in quadratic:
        assert isinstance(r, NumFieldElement) and not r.is_rational
        factor = expected_quadratic[m]
        assert r.field.minimal_polynomial == factor
        assert factor(r) == 0 and p(r) == 0
    assert unresolved == expected_unresolved


def test_small_field_roots_over_a_quadratic_field():
    K, r, _conj = quadratic_field(Poly([-2, 0, 1]), "r")
    x = Poly([0, 1])
    assert small_field_roots((x - r) * (x - 1 - r), "s") == ([(1 + r, 1), (r, 1)], [])
    assert small_field_roots((x - r) * (x - 1 - r) * (x - r), "s") == ([(1 + r, 1), (r, 2)], [])
    assert small_field_roots((x - r) ** 2, "s") == ([(r, 2)], [])
    # the discriminant -12 of x^2 + 3 has no square root in Q(r)
    p = Poly([K.embed(3), 0, 1])
    assert small_field_roots(p, "s") == ([], [p])


def test_small_field_roots_over_q_runs_yun_once(monkeypatch):
    # (x - 1)^2 (x^2 + 1)^2 (x^3 - 2): degree 9 with repeated factors; one
    # Yun run yields both the root and the leftover factors
    calls = []
    kernel = sys.modules["fibdense.exactmath.poly"]
    yun = kernel._int_yun
    monkeypatch.setattr(kernel, "_int_yun", lambda A: calls.append(A) or yun(A))
    x = Poly([0, 1])
    p = (x - 1) ** 2 * (x * x + 1) ** 2 * (x**3 - 2)
    roots, unresolved = small_field_roots(p, "r")
    assert len(calls) == 1
    assert roots[0] == (F(1), 2) and [m for _r, m in roots[1:]] == [2, 2]
    assert unresolved == [x**3 - 2]
