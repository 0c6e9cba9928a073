from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import fibdense.elliptic as elliptic
from fibdense.errors import (
    BoundTooSmall,
    DomainError,
    MapUndefined,
    NoSquareRoot,
    NotSquarefree,
    PointNotOnCurve,
)
from fibdense.elliptic import (
    INFINITY,
    MAZUR_ORDERS,
    EllipticCurve,
    InfiniteOrder,
    InfinityBranch,
    Point,
    QuarticModel,
    Torsion,
    ec_add,
    ec_mul,
    ec_neg,
    ec_sub,
    infinity_branch_weierstrass,
    j_invariant,
    naive_height,
    quartic_j_invariant,
    quartic_to_weierstrass,
    smallest_order,
    torsion_certify,
)
from fibdense.exactmath import NumField, Poly, RatFn, poly, poly_gcd, ratfn

F = Fraction

# ten rational curves, each with a known point
POOL = [
    (F(0), F(1), Point(F(2), F(3))),
    (F(2), F(1), Point(F(1), F(2))),
    (F(0), F(-2), Point(F(3), F(5))),
    (F(-1), F(0), Point(F(0), F(0))),
    (F(-4), F(4), Point(F(2), F(2))),
    (F(0), F(4), Point(F(0), F(2))),
    (F(-1), F(1), Point(F(1), F(1))),
    (F(1), F(1), Point(F(0), F(1))),
    (F(-7), F(10), Point(F(1), F(2))),
    (F(0), F(17), Point(F(-2), F(3))),
]


def test_singular_curves_rejected():
    with pytest.raises(DomainError):
        EllipticCurve(F(0), F(0))
    with pytest.raises(DomainError):
        EllipticCurve(F(-3), F(2))  # 4*(-27) + 27*4 = 0


def test_group_law_fixed_examples():
    E = EllipticCurve(F(-1), F(0))
    assert ec_add(E, Point(F(0), F(0)), Point(F(1), F(0))) == Point(F(-1), F(0))
    assert ec_add(E, Point(F(1), F(0)), INFINITY) == Point(F(1), F(0))
    assert ec_add(E, Point(F(1), F(0)), Point(F(1), F(0))) == INFINITY


def test_mul_fixed_examples():
    E = EllipticCurve(F(2), F(1))
    assert ec_mul(E, 0, Point(F(1), F(2))) == INFINITY
    assert ec_mul(E, 2, Point(F(1), F(2))) == Point(F(-7, 16), F(-13, 64))
    E6 = EllipticCurve(F(0), F(1))
    assert ec_mul(E6, 6, Point(F(2), F(3))) == INFINITY
    # check the duplication lands on the curve equation exactly
    assert F(-13, 64) ** 2 == F(-7, 16) ** 3 + 2 * F(-7, 16) + 1


def test_mul_negation_symmetry():
    E = EllipticCurve(F(0), F(-2))
    P = Point(F(3), F(5))
    for n in range(1, 7):
        assert ec_mul(E, -n, P) == ec_neg(ec_mul(E, n, P))


def test_mul_doubles_only_while_bits_remain(monkeypatch):
    """[n]p by double-and-add equals n repeated additions, over Q and over a
    quadratic field, and forms no doubling past the top bit of |n|."""
    K = NumField(poly([-2, 0, 1]), "s")
    cases = [
        (EllipticCurve(F(0), F(-2)), Point(F(3), F(5))),
        (EllipticCurve(K.embed(0), K.embed(-2)), Point(K.embed(3), K.embed(5))),
    ]
    add = elliptic._add_unchecked
    doublings = []

    def counting_add(curve, p, q):
        if p == q:  # P has infinite order, so an addition never sees equal points
            doublings.append(p)
        return add(curve, p, q)

    for E, P in cases:
        for n in range(-5, 21):
            expected = INFINITY
            for _ in range(abs(n)):
                expected = add(E, expected, P if n > 0 else ec_neg(P))
            doublings.clear()
            monkeypatch.setattr(elliptic, "_add_unchecked", counting_add)
            got = elliptic._mul_unchecked(E, n, P)
            monkeypatch.setattr(elliptic, "_add_unchecked", add)
            assert got == expected, n
            assert len(doublings) == max(abs(n).bit_length() - 1, 0), n


_RAT = st.builds(F, st.integers(-(2**40), 2**40), st.integers(1, 2**20))
_INT_OR_RAT = st.one_of(st.integers(-1000, 1000), _RAT)


@settings(max_examples=300, deadline=None)
@given(_INT_OR_RAT, _INT_OR_RAT, _INT_OR_RAT, _INT_OR_RAT, _INT_OR_RAT)
def test_integer_contains_agrees_with_field_expression(x, y, a, b, delta):
    """contains decides y^2 = x^3 + ax + b on integers for points over Q;
    b is also set so that the point lies on the curve, and moved off it."""
    on_b = y * y - x * x * x - a * x
    for b_val, on in ((b, None), (on_b, True), (on_b + delta, delta == 0)):
        assume(4 * a * a * a + 27 * b_val * b_val != 0)
        got = EllipticCurve(a, b_val).contains(Point(x, y))
        assert got == (y * y == x * x * x + a * x + b_val)
        if on is not None:
            assert got == on


def test_integer_contains_fixed_examples():
    E = EllipticCurve(0, 1)  # int coefficients
    for x, y in ((0, 1), (0, -1), (-1, 0), (2, 3), (2, -3), (F(2), 3)):
        assert E.contains(Point(x, y))
    for x, y in ((1, 1), (0, 0), (F(1, 2), F(3, 2)), (2, F(3, 2))):
        assert not E.contains(Point(x, y))
    E2 = EllipticCurve(F(2), F(1))
    assert E2.contains(Point(F(-7, 16), F(-13, 64)))
    assert not E2.contains(Point(F(-7, 16), F(13, 63)))
    # denominators in the coefficients: y^2 = x^3 - x/4 + 1/9 through (0, -1/3)
    E3 = EllipticCurve(F(-1, 4), F(1, 9))
    assert E3.contains(Point(0, F(-1, 3)))
    assert not E3.contains(Point(0, F(1, 9)))


def test_off_curve_points_rejected():
    E = EllipticCurve(F(0), F(1))
    with pytest.raises(PointNotOnCurve):
        ec_add(E, Point(F(1), F(1)), INFINITY)
    with pytest.raises(PointNotOnCurve):
        ec_mul(E, 3, Point(F(5), F(5)))
    with pytest.raises(PointNotOnCurve):
        torsion_certify(E, Point(F(2), F(-4)))


def test_group_axioms_on_curve_pool():
    rng = random.Random(2024)
    for a, b, gen in POOL:
        E = EllipticCurve(a, b)
        pts = [ec_mul(E, k, gen) for k in range(-6, 7)]
        for p in pts:
            assert E.contains(p)
        for _ in range(100):
            p, q = rng.choice(pts), rng.choice(pts)
            s = ec_add(E, p, q)
            assert E.contains(s)
            assert s == ec_add(E, q, p)
            assert ec_add(E, p, ec_neg(p)) == INFINITY
            assert ec_add(E, p, INFINITY) == p
        for _ in range(100):
            p, q, r = rng.choice(pts), rng.choice(pts), rng.choice(pts)
            assert ec_add(E, ec_add(E, p, q), r) == ec_add(E, p, ec_add(E, q, r))


def test_torsion_fixed_examples():
    assert torsion_certify(EllipticCurve(F(0), F(1)), INFINITY) == Torsion(1)
    assert torsion_certify(EllipticCurve(F(0), F(1)), Point(F(2), F(3))) == Torsion(6)
    assert torsion_certify(EllipticCurve(F(0), F(-2)), Point(F(3), F(5))) == InfiniteOrder()
    assert torsion_certify(EllipticCurve(F(-1), F(0)), Point(F(0), F(0))) == Torsion(2)
    assert torsion_certify(EllipticCurve(F(0), F(4)), Point(F(0), F(2))) == Torsion(3)
    # order 7 example
    E7 = EllipticCurve(F(-43), F(166))
    assert torsion_certify(E7, Point(F(3), F(8))) == Torsion(7)


def test_torsion_orders_lie_in_mazur_set_and_divisor_property():
    examples = [
        (EllipticCurve(F(0), F(1)), Point(F(2), F(3))),
        (EllipticCurve(F(-1), F(0)), Point(F(0), F(0))),
        (EllipticCurve(F(0), F(4)), Point(F(0), F(2))),
        (EllipticCurve(F(-43), F(166)), Point(F(3), F(8))),
    ]
    for E, P in examples:
        res = torsion_certify(E, P)
        assert isinstance(res, Torsion)
        m = res.order
        assert m in MAZUR_ORDERS
        assert ec_mul(E, m, P) == INFINITY
        for d in range(1, m):
            if m % d == 0:
                assert ec_mul(E, d, P) != INFINITY


def test_torsion_bound_policing():
    E = EllipticCurve(F(0), F(-2))
    P = Point(F(3), F(5))
    assert torsion_certify(E, P) == InfiniteOrder()
    assert smallest_order(E, P, 20) is None
    # no uniform constant over Q(t): y^2 = x^3 + t^6 with (2t^2, 3t^3) of order 6
    t = ratfn([0, 1])
    Et = EllipticCurve(RatFn(0), t**6)
    Pt = Point(2 * t**2, 3 * t**3)
    with pytest.raises(BoundTooSmall):
        torsion_certify(Et, Pt)
    assert smallest_order(Et, Pt, 5) is None
    assert smallest_order(Et, Pt, 6) == 6


def test_torsion_over_quadratic_field_uses_bound_18(monkeypatch):
    K = NumField(poly([-2, 0, 1]), "s")
    E = EllipticCurve(K.embed(0), K.embed(-2))
    P = Point(K.embed(3), K.embed(5))
    additions = []
    add = elliptic._add_unchecked
    monkeypatch.setattr(elliptic, "_add_unchecked", lambda *args: additions.append(args) or add(*args))
    assert torsion_certify(E, P) == InfiniteOrder()
    # [m]P is looked at for m = 1, ..., 18 and [19]P is never formed
    assert len(additions) == 17


def test_naive_height():
    assert naive_height(INFINITY) == 0
    assert naive_height(Point(F(-7, 16), F(-13, 64))) == 16
    assert naive_height(Point(F(3), F(5))) == 3
    E = EllipticCurve(F(0), F(-2))
    P = Point(F(3), F(5))
    hs = [naive_height(ec_mul(E, n, P)) for n in range(1, 6)]
    assert all(h1 < h2 for h1, h2 in zip(hs, hs[1:]))


def test_conjugate_pair_addition_lands_in_q():
    # engineered: Q = P1 + P2 with P2 = (x0, sqrt(D)); Q + conj(Q) = 2*P1
    E = EllipticCurve(F(2), F(1))
    P1 = Point(F(1), F(2))
    samples = 0
    x0 = F(0)
    seen = []
    k = 0
    while samples < 100:
        k += 1
        x0 = F(k, 1 + (k % 3))
        D = x0**3 + 2 * x0 + 1
        if D == 0:
            continue
        num, den = D.numerator, D.denominator
        import math

        if math.isqrt(abs(num)) ** 2 == num and math.isqrt(den) ** 2 == den and num > 0:
            continue  # rational square; P2 would be rational
        K = NumField(poly([-D, 0, 1]), "r")
        EK = EllipticCurve(K.embed(2), K.embed(1))
        for mult in (1, 2, 3):
            base = ec_mul(E, mult, P1)
            P2 = Point(K.embed(x0), K.gen)
            assert EK.contains(P2)
            Q = ec_add(EK, Point(K.embed(base.x), K.embed(base.y)), P2)
            Qc = Point(Q.x.conjugate(), Q.y.conjugate())
            assert EK.contains(Qc)
            total = ec_add(EK, Q, Qc)
            assert not total.is_infinity
            assert total.x.is_rational and total.y.is_rational
            doubled = ec_mul(E, 2, base)
            assert total.x.as_fraction() == doubled.x
            assert total.y.as_fraction() == doubled.y
            samples += 1
        seen.append(x0)
    assert samples >= 100


# -- quartic models --


def test_quartic_model_validation():
    with pytest.raises(NotSquarefree):
        QuarticModel((F(1), F(0), F(2), F(0), F(1)), InfinityBranch(1))  # (z^2+1)^2
    with pytest.raises(PointNotOnCurve):
        QuarticModel((F(1), F(0), F(0), F(0), F(1)), (F(1), F(1)))
    with pytest.raises(NoSquareRoot):
        QuarticModel((F(1), F(1), F(0), F(0), F(3)), InfinityBranch(1))
    with pytest.raises(NoSquareRoot):
        QuarticModel((F(0), F(9), F(0), F(1), F(0)), InfinityBranch(1))
    with pytest.raises(DomainError):
        QuarticModel((F(1), F(1), F(1), F(0), F(0)), (F(0), F(1)))  # degree 2


def _expand(*factors) -> tuple:
    product = Poly([1])
    for f in factors:
        product = product * f
    return tuple(product.coefficient(k) for k in range(5))


def test_quartic_model_rejects_repeated_roots_over_q():
    z = poly([0, 1])
    for coeffs, marked in [
        (_expand(z - 1, z - 1, z * z + 1), (F(1), F(0))),
        (_expand(z - 2, z - 2, z - 3, z + 5), (F(2), F(0))),
        (_expand(z - 1, z - 1, z + 2), (F(1), F(0))),  # a cubic: q4 = 0
        (_expand(2 * z + 1, 2 * z + 1, z), (F(0), F(0))),
    ]:
        with pytest.raises(NotSquarefree):
            QuarticModel(coeffs, marked)
    # the cubic with simple roots is a valid model
    QuarticModel(_expand(z - 1, z + 1, z + 2), (F(1), F(0)))


def test_quartic_model_rejects_repeated_roots_over_q_t():
    t = ratfn([0, 1])
    zero, one = RatFn(0), RatFn(1)
    for coeffs in [
        # (z - t)^2 (z^2 + t): a double root at z = t
        (t**3, -2 * t * t, t * t + t, -2 * t, one),
        # (z - t)^2 (z + 1): a cubic over Q(t) with a double root
        (t * t, t * t - 2 * t, 1 - 2 * t, one, zero),
    ]:
        with pytest.raises(NotSquarefree):
            QuarticModel(coeffs, (t, zero))
    # (z - t)(z + t)(z^2 + 1) has distinct roots over Q(t)
    QuarticModel((-t * t, zero, 1 - t * t, zero, one), InfinityBranch(1))


_small = st.fractions(min_value=-6, max_value=6, max_denominator=4)


@st.composite
def _quartic_with_point(draw):
    """(q0, ..., q4) of degree 3 or 4 with a marked point on w^2 = q(z);
    half of them have a planted double root."""
    if draw(st.booleans()):
        r = draw(_small)
        rest = Poly([draw(_small), draw(_small), draw(_small)])
        coeffs = _expand(Poly([-r, 1]), Poly([-r, 1]), rest)
        marked = (r, F(0))
    else:
        w0 = draw(_small)
        coeffs = (w0 * w0, draw(_small), draw(_small), draw(_small), draw(_small))
        marked = (F(0), w0)
    assume(coeffs[3] or coeffs[4])
    return coeffs, marked


@settings(max_examples=200, deadline=None)
@given(_quartic_with_point())
def test_quartic_squarefree_check_agrees_with_gcd(case):
    coeffs, marked = case
    q = Poly(coeffs)
    repeated = poly_gcd(q, q.derivative()).degree > 0
    try:
        QuarticModel(coeffs, marked)
    except NotSquarefree:
        assert repeated
    else:
        assert not repeated


def test_quartic_spec_example_j_1728():
    M = QuarticModel((F(1), F(0), F(0), F(0), F(1)), (F(0), F(1)))
    curve, fwd, _ = quartic_to_weierstrass(M)
    assert curve == EllipticCurve(F(-4), F(0))
    assert j_invariant(curve) == 1728
    assert quartic_j_invariant(M.coeffs) == 1728
    assert fwd(F(0), F(1)) == INFINITY


MODELS = [
    # (model, seed quartic point) — one per reduction route
    (QuarticModel((F(1), F(1), F(1), F(1), F(1)), (F(3), F(11))), (F(0), F(1))),
    (QuarticModel((F(1), F(1), F(1), F(1), F(1)), InfinityBranch(1)), (F(0), F(1))),
    (QuarticModel((F(1), F(1), F(1), F(1), F(1)), InfinityBranch(-1)), (F(0), F(-1))),
    (QuarticModel((F(0), F(9), F(0), F(1), F(0)), (F(0), F(0))), (F(4), F(10))),
]


@pytest.mark.parametrize("model,seed", MODELS, ids=["finite", "inf+", "inf-", "cubic"])
def test_quartic_roundtrip_on_100_points(model, seed):
    curve, fwd, inv = quartic_to_weierstrass(model)
    rhs = Poly(model.coeffs)
    g = fwd(*seed)
    assert curve.contains(g)
    assert torsion_certify(curve, g) == InfiniteOrder()
    checked = 0
    while checked < 100:
        n = (checked // 2 + 1) * (1 if checked % 2 == 0 else -1)  # 1, -1, 2, -2, ...
        pt = ec_mul(curve, n, g)
        try:
            z, w = inv(pt)
        except MapUndefined:
            checked += 1  # exceptional set is allowed to be skipped
            continue
        assert w * w == rhs(z)
        assert fwd(z, w) == pt
        checked += 1
    # marked point goes to Infinity and, when finite, comes back exactly
    if not isinstance(model.marked, InfinityBranch):
        assert fwd(*model.marked) == INFINITY
        assert inv(INFINITY) == model.marked
    else:
        with pytest.raises(MapUndefined):
            inv(INFINITY)


@pytest.mark.parametrize("model,seed", MODELS, ids=["finite", "inf+", "inf-", "cubic"])
def test_quartic_j_preserved(model, seed):
    curve, _, _ = quartic_to_weierstrass(model)
    assert quartic_j_invariant(model.coeffs) == j_invariant(curve)


def test_quartic_j_preserved_on_random_models():
    rng = random.Random(77)
    built = 0
    while built < 50:
        coeffs = tuple(F(rng.randint(-6, 6)) for _ in range(4)) + (F(rng.choice([1, 4, 9])),)
        try:
            model = QuarticModel(coeffs, InfinityBranch(rng.choice([1, -1])))
        except (NotSquarefree, DomainError):
            continue
        curve, _, _ = quartic_to_weierstrass(model)
        assert quartic_j_invariant(coeffs) == j_invariant(curve)
        built += 1


def test_quartic_branches_map_to_distinct_curve_points():
    # the two infinity branches give Infinity and a 2-torsion-like point e2
    model_plus = QuarticModel((F(1), F(1), F(1), F(1), F(1)), InfinityBranch(1))
    curve, fwd, inv = quartic_to_weierstrass(model_plus)
    # a point with w = -P(z) collapses forward to the e2 fiber; its x must be b2/12-shifted 0
    # sanity: inverse is undefined exactly there
    seedp = fwd(F(0), F(1))
    seedm = fwd(F(0), F(-1))
    assert seedp != seedm
    assert curve.contains(seedp) and curve.contains(seedm)


_T = ratfn([0, 1])


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize(
    "coeffs",
    [
        (F(1), F(1), F(1), F(1), F(1)),
        (F(-3), F(2), F(0), F(5), F(4)),
        (_T * _T + 1, _T, 2 * _T, RatFn(1), RatFn(4)),
    ],
    ids=["q", "q-lead-4", "q(t)"],
)
def test_infinity_branch_weierstrass_matches_quartic_model(coeffs, sign):
    curve, _, _ = quartic_to_weierstrass(QuarticModel(coeffs, InfinityBranch(sign)))
    a, b, e2 = infinity_branch_weierstrass(coeffs, sign)
    assert (a, b) == (curve.a, curve.b)
    assert curve.contains(e2)
    # the unmarked branch is the point (0, -root) of the reversed chart
    # W^2 = q4 + q3 s + ... + q0 s^4, s = 1/z, whose model marked at (0, root)
    # reduces through the same branch
    zero, root = coeffs[0] * 0, sign * elliptic._sqrt_element(coeffs[4])
    reversed_model = QuarticModel(tuple(reversed(coeffs)), (zero, root))
    reversed_curve, reversed_fwd, _ = quartic_to_weierstrass(reversed_model)
    assert reversed_curve == curve
    assert reversed_fwd(zero, -root) == e2
    # Delta = 16 disc_z(q), and 4I^3 - J^2 = 27 disc_z(q)
    i_inv, j_inv = elliptic._quartic_invariants(coeffs)
    assert 27 * curve.discriminant == 16 * (4 * i_inv**3 - j_inv**2)


def test_ec_sub():
    E = EllipticCurve(F(2), F(1))
    P = Point(F(1), F(2))
    assert ec_sub(E, ec_mul(E, 3, P), P) == ec_mul(E, 2, P)
