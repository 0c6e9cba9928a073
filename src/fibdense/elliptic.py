"""Elliptic curves y^2 = x^3 + a*x + b over an exact field.

Coefficients and coordinates are duck-typed: Fraction, NumFieldElement, and
RatFn all work, and they mix, so the same group law and quartic-model
reduction serve curves over Q, their points over quadratic fields (trace
cycles), and curves over Q(t) (fibration generic fibers). The quartic
reduction also takes Poly coefficients over a rational q4, because it
divides only by integers and multiples of sqrt(q4): the cone's K3 model
runs it in Q[t]. Over Q the group law, the on-curve check and the
nonsingularity test run on integer numerators and denominators (see
_add_unchecked and EllipticCurve).

The quartic bridge (quartic_to_weierstrass) turns w^2 = q4*z^4 + ... + q0
with q4 a nonzero square into short Weierstrass coefficients, marked at one
of the two branches over z = infinity, together with explicit mutually
inverse point maps and the image e2 of the other branch. It is the only
reduction, because every quartic the package converts is marked there: the
fibers w^2 = F(t, z) of the double cover of the quadratic cone, whose z^4
coefficient is a nonzero constant, and a graph's covering curve, which needs
a square lead. Exceptional parameters raise MapUndefined.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    BoundTooSmall,
    DomainError,
    MapUndefined,
    NoSquareRoot,
    NotSquarefree,
    PointNotOnCurve,
)
from .exactmath import RatFn, rat_sqrt
from .exactmath.numfield import NumFieldElement, _on_curve

TORSION_BOUND_Q = 12
TORSION_BOUND_QUADRATIC = 18
MAZUR_ORDERS = frozenset({1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12})
_RATIONAL = (int, Fraction)


@dataclass(frozen=True)
class Point:
    """Affine point or the point at infinity (x is None)."""

    x: object = None
    y: object = None

    @property
    def is_infinity(self) -> bool:
        return self.x is None

    def __repr__(self):
        if self.is_infinity:
            return "Infinity"
        return f"({self.x}, {self.y})"


INFINITY = Point()


@dataclass(frozen=True)
class EllipticCurve:
    a: object
    b: object

    def __post_init__(self):
        """Reject 4a^3 + 27b^2 = 0. Over Q the test runs on integers as
        4 an^3 bd^2 + 27 bn^2 ad^3 = 0, the same sum times ad^3 bd^2 > 0."""
        a, b = self.a, self.b
        if isinstance(a, _RATIONAL) and isinstance(b, _RATIONAL):
            an, ad, bn, bd = a.numerator, a.denominator, b.numerator, b.denominator
            nonsingular = 4 * an * an * an * bd * bd + 27 * bn * bn * ad * ad * ad
        else:
            nonsingular = self.discriminant
        if not nonsingular:
            raise DomainError(f"singular curve: a={self.a}, b={self.b}")

    @property
    def discriminant(self):
        a, b = self.a, self.b
        return -16 * (4 * a * a * a + 27 * b * b)

    def contains(self, p: Point) -> bool:
        """Whether p lies on the curve, decided exactly.

        When x, y, a and b are all rationals (int or Fraction), with
        x = xn/xd, y = yn/yd, a = an/ad, b = bn/bd, the test is the
        cross-multiplied identity

            yn^2 * xd^3 * ad * bd == yd^2 * (xn^3 * ad * bd
                                             + an * bd * xn * xd^2
                                             + bn * ad * xd^3)

        on integers: y^2 = x^3 + a x + b multiplied through by
        yd^2 xd^3 ad bd. Every denominator is positive, so that factor is
        nonzero and the two equations hold together; no Fraction is built and
        no gcd is taken. A point over a quadratic field on a curve over Q is
        checked by the same identity in Z[gen] (numfield's _on_curve). Other
        coefficient rings use the field expression."""
        if p.is_infinity:
            return True
        x, y, a, b = p.x, p.y, self.a, self.b
        if not (
            isinstance(x, _RATIONAL)
            and isinstance(y, _RATIONAL)
            and isinstance(a, _RATIONAL)
            and isinstance(b, _RATIONAL)
        ):
            if (isinstance(x, NumFieldElement) or isinstance(y, NumFieldElement)) and (
                isinstance(a, _RATIONAL) and isinstance(b, _RATIONAL)
            ):
                return _on_curve(x, y, a, b)
            return y * y == x * x * x + a * x + b
        xn, xd = x.numerator, x.denominator
        yn, yd = y.numerator, y.denominator
        an, ad = a.numerator, a.denominator
        bn, bd = b.numerator, b.denominator
        xd2 = xd * xd
        xd3 = xd2 * xd
        abd = ad * bd
        lhs = yn * yn * xd3 * abd
        rhs = yd * yd * (xn * (xn * xn * abd + an * bd * xd2) + bn * ad * xd3)
        return lhs == rhs

    def __repr__(self):
        return f"EllipticCurve(a={self.a}, b={self.b})"


def _exact_quotient(num, den):
    """num / den, as a Fraction when both are ints (where / gives a float)."""
    if isinstance(num, int) and isinstance(den, int):
        return Fraction(num, den)
    return num / den


def j_invariant(curve: EllipticCurve):
    a, b = curve.a, curve.b
    num = 1728 * 4 * a * a * a
    den = 4 * a * a * a + 27 * b * b
    return _exact_quotient(num, den)


def _require_on_curve(curve: EllipticCurve, p: Point) -> None:
    if not curve.contains(p):
        raise PointNotOnCurve(f"{p} is not on {curve}")


def ec_neg(p: Point) -> Point:
    if p.is_infinity:
        return INFINITY
    return Point(p.x, -p.y)


def _add_unchecked(curve: EllipticCurve, p: Point, q: Point) -> Point:
    """p + q by chord and tangent; p and q are not checked on the curve.

    When a and the coordinates are rationals (int or Fraction), x_i =
    xn_i/xd_i, y_i = yn_i/yd_i and a = an/ad, the slope s = sn/sd (reduced) is

        chord    (yn2 yd1 - yn1 yd2) xd1 xd2 / (yd1 yd2 (xn2 xd1 - xn1 xd2))
        tangent  (3 xn1^2 ad + an xd1^2) yd1 / (2 yn1 xd1^2 ad)

    and x3 = s^2 - x1 - x2, then y3 = s (x1 - x3) - y1 with x3 = x3n/x3d, are

        x3 = (sn^2 xd1 xd2 - sd^2 (xn1 xd2 + xn2 xd1)) / (sd^2 xd1 xd2)
        y3 = (sn (xn1 x3d - x3n xd1) yd1 - yn1 sd xd1 x3d) / (sd xd1 x3d yd1)

    on integers: each coordinate is one Fraction, and no Fraction product or
    sum is formed. Other coefficient rings use the field expression."""
    if p.is_infinity:
        return q
    if q.is_infinity:
        return p
    x1, y1, x2, y2, a = p.x, p.y, q.x, q.y, curve.a
    rational = isinstance(x1, _RATIONAL) and isinstance(y1, _RATIONAL) and isinstance(a, _RATIONAL)
    if not (rational and isinstance(x2, _RATIONAL) and isinstance(y2, _RATIONAL)):
        if x1 == x2:
            if y1 == -y2:
                return INFINITY
            slope = (3 * x1 * x1 + a) / (2 * y1)
        else:
            slope = (y2 - y1) / (x2 - x1)
        x3 = slope * slope - x1 - x2
        return Point(x3, slope * (x1 - x3) - y1)
    xn1, xd1, yn1, yd1 = x1.numerator, x1.denominator, y1.numerator, y1.denominator
    xn2, xd2, yn2, yd2 = x2.numerator, x2.denominator, y2.numerator, y2.denominator
    if xn1 == xn2 and xd1 == xd2:  # x1 == x2, both being reduced
        if yn1 == -yn2 and yd1 == yd2:
            return INFINITY
        ad, xd1_2 = a.denominator, xd1 * xd1
        sn, sd = (3 * xn1 * xn1 * ad + a.numerator * xd1_2) * yd1, 2 * yn1 * xd1_2 * ad
    else:
        sn, sd = (yn2 * yd1 - yn1 * yd2) * xd1 * xd2, yd1 * yd2 * (xn2 * xd1 - xn1 * xd2)
    g = math.gcd(sn, sd)
    sn, sd = sn // g, sd // g
    sd2 = sd * sd
    x3 = Fraction(sn * sn * xd1 * xd2 - sd2 * (xn1 * xd2 + xn2 * xd1), sd2 * xd1 * xd2)
    x3n, x3d = x3.numerator, x3.denominator
    y3 = Fraction(sn * (xn1 * x3d - x3n * xd1) * yd1 - yn1 * sd * xd1 * x3d, sd * xd1 * x3d * yd1)
    return Point(x3, y3)


def ec_add(curve: EllipticCurve, p: Point, q: Point) -> Point:
    _require_on_curve(curve, p)
    _require_on_curve(curve, q)
    return _add_unchecked(curve, p, q)


def ec_sub(curve: EllipticCurve, p: Point, q: Point) -> Point:
    return ec_add(curve, p, ec_neg(q))


def ec_mul(curve: EllipticCurve, n: int, p: Point) -> Point:
    _require_on_curve(curve, p)
    return _mul_unchecked(curve, n, p)


def _mul_unchecked(curve: EllipticCurve, n: int, p: Point) -> Point:
    if n < 0:
        n, p = -n, ec_neg(p)
    result = INFINITY
    base = p
    while n:
        if n & 1:
            result = _add_unchecked(curve, result, base)
        n >>= 1
        if n:
            base = _add_unchecked(curve, base, base)
    return result


@dataclass(frozen=True)
class Torsion:
    order: int


@dataclass(frozen=True)
class InfiniteOrder:
    pass


def _uniform_bound(curve: EllipticCurve, p: Point) -> int:
    """The uniform torsion bound of the field of p, else of the curve."""
    if isinstance(p.x, NumFieldElement):
        return TORSION_BOUND_QUADRATIC
    sample = curve.a if curve.a else curve.b
    if isinstance(sample, _RATIONAL):
        return TORSION_BOUND_Q
    if isinstance(sample, NumFieldElement):
        return TORSION_BOUND_QUADRATIC
    raise BoundTooSmall("torsion certification needs a curve over Q or a quadratic field")


def torsion_certify(curve: EllipticCurve, p: Point):
    """Exact order if it is at most the uniform torsion bound of the field
    of p, else of the curve (12 over Q by Mazur, 18 over a quadratic field
    by Kamienny and Kenku-Momose), otherwise a proof of infinite order.
    Other fields raise BoundTooSmall.

    When the curve and p are both over Q, a non-integral multiple of p on
    the integral model proves infinite order outright (Nagell-Lutz; see
    smallest_order), so most non-torsion points are decided after a few
    additions."""
    _require_on_curve(curve, p)
    if p.is_infinity:
        return Torsion(1)
    bound = _uniform_bound(curve, p)
    order = smallest_order(curve, p, bound)
    if order is None:
        return InfiniteOrder()
    if bound == TORSION_BOUND_Q and order not in MAZUR_ORDERS:
        raise DomainError(f"order {order} violates the rational torsion bound")
    return Torsion(order)


def smallest_order(curve: EllipticCurve, p: Point, bound: int) -> int | None:
    """Least m <= bound with [m]p = Infinity, or None when there is none.

    Over Q the loop also stops, with None, at the first multiple [m]p whose
    x-denominator does not divide u^2, u = lcm(den a, den b). The map
    (x, y) -> (u^2 x, u^3 y) sends the curve to the integral model
    Y^2 = X^3 + u^4 a X + u^6 b, where every torsion point, and so every
    multiple of one, has integral coordinates (Nagell-Lutz; Silverman, The
    Arithmetic of Elliptic Curves, VII.3). A non-integral multiple therefore
    proves that p has infinite order, and None is the answer for any bound.
    Curves and points over number fields always run to the bound.

    p must lie on the curve; it is not checked again here."""
    scale = _integral_scale(curve, p)
    acc = p
    for m in range(1, bound + 1):
        if acc.is_infinity:
            return m
        if scale is not None and scale % acc.x.denominator:
            return None
        if m < bound:  # [bound + 1]p is never looked at
            acc = _add_unchecked(curve, acc, p)
    return None


def _integral_scale(curve: EllipticCurve, p: Point) -> int | None:
    """u^2 for the integral model of a curve over Q (see smallest_order);
    None unless the curve and p are both over Q."""
    if not all(isinstance(c, _RATIONAL) for c in (curve.a, curve.b, p.x)):
        return None
    return math.lcm(curve.a.denominator, curve.b.denominator) ** 2


# -- quartic models --


def _sqrt_element(x):
    """Exact square root of a rational or a constant RatFn; NoSquareRoot otherwise."""
    if isinstance(x, _RATIONAL):
        return rat_sqrt(Fraction(x))
    if isinstance(x, RatFn):
        if x.is_constant:
            return RatFn(rat_sqrt(x.as_fraction()))
        raise NoSquareRoot("square roots of non-constant rational functions are not taken")
    raise NoSquareRoot(f"no square root rule for {type(x).__name__}")


def _long_to_short(a1, a2, a3, a4, a6):
    """Complete the square and cube; returns the short coefficients (A, B)
    and the (u,v) <-> Point maps."""
    b2 = a1 * a1 + 4 * a2
    b4 = 2 * a4 + a1 * a3
    b6 = a3 * a3 + 4 * a6
    A = b4 / 2 - b2 * b2 / 48
    B = b6 / 4 - b2 * b4 / 24 + b2 * b2 * b2 / 864

    def to_short(u, v) -> Point:
        return Point(u + b2 / 12, v + (a1 * u + a3) / 2)

    def from_short(p: Point):
        u = p.x - b2 / 12
        v = p.y - (a1 * u + a3) / 2
        return u, v

    return (A, B), to_short, from_short


def quartic_to_weierstrass(coeffs, sign: int = 1):
    """(a, b, forward, inverse, e2) for w^2 = q(z), q = q4 z^4 + ... + q0
    with coeffs = (q0, ..., q4), marked at the branch w ~ alpha z^2 over
    z = infinity, alpha = sign * sqrt(q4); q4 must be a nonzero square
    (NoSquareRoot otherwise).

    y^2 = x^3 + a x + b is the Weierstrass model. forward: (z, w) -> Point
    sends the marked branch to Infinity and the opposite branch to the affine
    point e2; inverse: Point -> (z, w). Both raise MapUndefined on their
    finite exceptional sets; they are mutually inverse everywhere else.

    Nothing is validated and no curve is built: for this reduction
    Delta(y^2 = x^3 + a x + b) = 16 * disc_z(q) for either sign, so the
    discriminant check of EllipticCurve(a, b), or of whatever model the caller
    builds, is the squarefreeness check of q."""
    q0, q1, q2, q3, q4 = coeffs
    if not q4:
        raise NoSquareRoot("no branch at infinity: the z^4 coefficient is zero")
    alpha = sign * _sqrt_element(q4)
    beta = q3 / (2 * alpha)
    gamma = (q2 - beta * beta) / (2 * alpha)
    dt = q1 - 2 * beta * gamma
    et = q0 - gamma * gamma
    zero = alpha * 0
    (a, b), to_short, from_short = _long_to_short(
        2 * beta, -4 * alpha * gamma, 2 * alpha * dt, -4 * alpha * alpha * et, zero
    )

    def forward(z, w) -> Point:
        big_p = alpha * z * z + beta * z + gamma
        t = w + big_p
        return to_short(2 * alpha * t, 4 * alpha * alpha * z * t)

    def inverse(p: Point):
        if p.is_infinity:
            raise MapUndefined("Infinity corresponds to the marked branch at z = infinity")
        u, v = from_short(p)
        if not u:
            raise MapUndefined(f"{p} lies over z = infinity or on the collapsed chord")
        z = v / (2 * alpha * u)
        w = u / (2 * alpha) - (alpha * z * z + beta * z + gamma)
        return z, w

    return a, b, forward, inverse, to_short(zero, -2 * alpha * dt)


def _quartic_invariants(coeffs):
    """The classical invariants I, J of the binary quartic with coefficients
    (q0, ..., q4). 4*I^3 - J^2 is 27 times its discriminant, so it vanishes
    exactly when the quartic has a repeated root, counting a root at infinity
    when q4 = 0: with q4 = 0 and q3 != 0, exactly when the cubic has one."""
    q0, q1, q2, q3, q4 = coeffs
    i_inv = 12 * q4 * q0 - 3 * q3 * q1 + q2 * q2
    j_inv = (
        72 * q4 * q2 * q0
        - 27 * q4 * q1 * q1
        - 27 * q3 * q3 * q0
        + 9 * q3 * q2 * q1
        - 2 * q2 * q2 * q2
    )
    return i_inv, j_inv


def quartic_j_invariant(coeffs):
    """j-invariant of w^2 = quartic via the classical degree-4 invariants."""
    i_inv, j_inv = _quartic_invariants(coeffs)
    den = 4 * i_inv * i_inv * i_inv - j_inv * j_inv
    if not den:
        raise NotSquarefree("degenerate quartic: vanishing discriminant combination")
    return _exact_quotient(1728 * 4 * i_inv * i_inv * i_inv, den)
