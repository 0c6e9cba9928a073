"""Property test of the shared root splitter over Q and quadratic fields,
with sympy's factorization as the oracle."""

from __future__ import annotations

from fractions import Fraction as F

import sympy
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from fibdense.exactmath import NumFieldElement, Poly
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
