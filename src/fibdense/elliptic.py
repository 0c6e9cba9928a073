"""Elliptic curves y^2 = x^3 + a*x + b over an exact field.

Coefficients and coordinates are duck-typed: Fraction, NumFieldElement, and
RatFn all work, and they mix, so the same group law and quartic-model
reduction serve curves over Q, their points over quadratic fields (trace
cycles), and curves over Q(t) (fibration generic fibers). The on-curve check
of a point over Q on a curve over Q runs on integer numerators and
denominators (see EllipticCurve.contains).

The quartic bridge turns w^2 = q4*z^4 + ... + q0 with a marked rational
point into a short Weierstrass curve together with explicit mutually inverse
point maps. Three classical routes are used: a square leading coefficient
gives a branch at infinity directly; a finite marked point with w0 != 0 is
shifted to z = 0 and inverted into that case; a finite marked point with
w0 = 0 reduces to a cubic. Exceptional parameters raise MapUndefined.
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
from .exactmath import Poly, RatFn, rat_sqrt
from .exactmath.numfield import NumFieldElement

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
            return "inf"
        return f"({self.x}, {self.y})"


INFINITY = Point()


@dataclass(frozen=True)
class EllipticCurve:
    a: object
    b: object

    def __post_init__(self):
        if not self.discriminant:
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
        no gcd is taken. Other coefficient rings use the field expression."""
        if p.is_infinity:
            return True
        x, y, a, b = p.x, p.y, self.a, self.b
        if not (
            isinstance(x, _RATIONAL)
            and isinstance(y, _RATIONAL)
            and isinstance(a, _RATIONAL)
            and isinstance(b, _RATIONAL)
        ):
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


def j_invariant(curve: EllipticCurve):
    a, b = curve.a, curve.b
    num = 1728 * 4 * a * a * a
    den = 4 * a * a * a + 27 * b * b
    return num / den


def _require_on_curve(curve: EllipticCurve, p: Point) -> None:
    if not curve.contains(p):
        raise PointNotOnCurve(f"{p} is not on {curve}")


def ec_neg(p: Point) -> Point:
    if p.is_infinity:
        return INFINITY
    return Point(p.x, -p.y)


def _add_unchecked(curve: EllipticCurve, p: Point, q: Point) -> Point:
    if p.is_infinity:
        return q
    if q.is_infinity:
        return p
    if p.x == q.x:
        if p.y == -q.y:
            return INFINITY
        slope = (3 * p.x * p.x + curve.a) / (2 * p.y)
    else:
        slope = (q.y - p.y) / (q.x - p.x)
    x3 = slope * slope - p.x - q.x
    y3 = slope * (p.x - x3) - p.y
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


def _uniform_bound(curve: EllipticCurve) -> int:
    sample = curve.a if curve.a else curve.b
    if isinstance(sample, _RATIONAL):
        return TORSION_BOUND_Q
    if isinstance(sample, NumFieldElement):
        return TORSION_BOUND_QUADRATIC
    raise BoundTooSmall("torsion certification needs a curve over Q or a quadratic field")


def torsion_certify(curve: EllipticCurve, p: Point):
    """Exact order if it is at most the field's uniform torsion bound (12
    over Q by Mazur, 18 over a quadratic field), otherwise a proof of
    infinite order. Other fields raise BoundTooSmall.

    Over Q a non-integral multiple of p on the integral model proves
    infinite order outright (Nagell-Lutz; Silverman, The Arithmetic of
    Elliptic Curves, VII.3; see smallest_order), so most non-torsion points
    are decided after a few additions."""
    _require_on_curve(curve, p)
    if p.is_infinity:
        return Torsion(1)
    bound = _uniform_bound(curve)
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
    Curves over number fields always run to the bound.

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


def naive_height(p: Point) -> int:
    if p.is_infinity:
        return 0
    x = p.x
    if not isinstance(x, Fraction):
        raise DomainError("naive height is defined for points over Q")
    return max(abs(x.numerator), x.denominator)


# -- quartic models --


@dataclass(frozen=True)
class InfinityBranch:
    """Marks one of the two branches over z = infinity; requires the z^4
    coefficient to be a nonzero square, whose chosen root is sign * sqrt."""

    sign: int = 1


def _sqrt_element(x):
    """Exact square root of a field element; NoSquareRoot when none exists."""
    if isinstance(x, _RATIONAL):
        return rat_sqrt(Fraction(x))
    if isinstance(x, NumFieldElement):
        return x.field.sqrt(x)
    if isinstance(x, RatFn):
        if x.is_constant:
            return RatFn(rat_sqrt(x.as_fraction()))
        raise NoSquareRoot("square roots of non-constant rational functions are not taken")
    raise NoSquareRoot(f"no square root rule for {type(x).__name__}")


@dataclass(frozen=True)
class QuarticModel:
    """w^2 = q4 z^4 + q3 z^3 + q2 z^2 + q1 z + q0 with a marked rational point."""

    coeffs: tuple  # (q0, q1, q2, q3, q4) ascending
    marked: object  # (z0, w0) pair or InfinityBranch

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(self.coeffs))
        if len(self.coeffs) != 5:
            raise DomainError("a quartic model takes exactly five coefficients")
        q = Poly(self.coeffs)
        if q.degree < 3:
            raise DomainError("the right-hand side must have degree 3 or 4")
        i_inv, j_inv = _quartic_invariants(self.coeffs)
        if not 4 * i_inv * i_inv * i_inv - j_inv * j_inv:
            raise NotSquarefree(f"right-hand side {q} is not squarefree")
        if isinstance(self.marked, InfinityBranch):
            lead = self.coeffs[4]
            if not lead:
                raise NoSquareRoot("no branch at infinity: the z^4 coefficient is zero")
            _sqrt_element(lead)  # raises NoSquareRoot when not a square
        else:
            z0, w0 = self.marked
            if w0 * w0 != q(z0):
                raise PointNotOnCurve(f"marked point ({z0}, {w0}) is not on w^2 = {q}")


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


def _reduce_infinity_branch(coeffs, alpha):
    """Quartic with branch w ~ alpha*z^2 at infinity; that branch goes to
    Infinity, the opposite branch to the distinguished affine point e2.
    Returns the short coefficients (A, B), the point maps and e2."""
    q0, q1, q2, q3, _q4 = coeffs
    beta = q3 / (2 * alpha)
    gamma = (q2 - beta * beta) / (2 * alpha)
    dt = q1 - 2 * beta * gamma
    et = q0 - gamma * gamma
    zero = alpha * 0
    coeffs_ab, to_short, from_short = _long_to_short(
        2 * beta, -4 * alpha * gamma, 2 * alpha * dt, -4 * alpha * alpha * et, zero
    )
    e2 = to_short(zero, -2 * alpha * dt)

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

    return coeffs_ab, forward, inverse, e2


def quartic_to_weierstrass(model: QuarticModel):
    """Short Weierstrass model with forward/inverse point maps.

    forward: (z, w) -> Point, sending the marked point to Infinity.
    inverse: Point -> (z, w). Both raise MapUndefined on their finite
    exceptional sets; they are mutually inverse everywhere else.
    """
    coeffs = model.coeffs
    if isinstance(model.marked, InfinityBranch):
        alpha = model.marked.sign * _sqrt_element(coeffs[4])
        coeffs_ab, forward, inverse, _e2 = _reduce_infinity_branch(coeffs, alpha)
        return EllipticCurve(*coeffs_ab), forward, inverse

    z0, w0 = model.marked
    shifted = Poly(coeffs).shift(z0)  # p(h) = q(z0 + h)
    p = [shifted.coefficient(k) for k in range(5)]

    if w0:
        # invert: s = 1/(z - z0), W = w/(z - z0)^2 gives lead p0 = w0^2
        rev = (p[4], p[3], p[2], p[1], p[0])
        coeffs_ab, fwd_inf, inv_inf, e2 = _reduce_infinity_branch(rev, w0)

        def forward(z, w) -> Point:
            if z == z0:
                if w == w0:
                    return INFINITY
                return e2
            s = 1 / (z - z0)
            return fwd_inf(s, w * s * s)

        def inverse(pt: Point):
            if pt.is_infinity:
                return z0, w0
            if pt == e2:
                return z0, -w0
            s, big_w = inv_inf(pt)
            if not s:
                raise MapUndefined(f"{pt} lies over z = infinity")
            h = 1 / s
            return z0 + h, big_w * h * h

        return EllipticCurve(*coeffs_ab), forward, inverse

    # marked point with w0 = 0: the shifted quartic has p0 = 0, p1 != 0,
    # and W^2 = p1 s^3 + p2 s^2 + p3 s + p4 monicizes to a cubic model
    p1, p2, p3, p4 = p[1], p[2], p[3], p[4]
    zero = p1 * 0
    coeffs_ab, to_short, from_short = _long_to_short(zero, p2, zero, p1 * p3, p1 * p1 * p4)

    def forward(z, w) -> Point:
        if z == z0:
            return INFINITY
        s = 1 / (z - z0)
        return to_short(p1 * s, p1 * w * s * s)

    def inverse(pt: Point):
        if pt.is_infinity:
            return z0, w0
        u, v = from_short(pt)
        if not u:
            raise MapUndefined(f"{pt} lies over z = infinity")
        h = p1 / u
        return z0 + h, (v / p1) * h * h

    return EllipticCurve(*coeffs_ab), forward, inverse


def infinity_branch_weierstrass(coeffs, sign: int = 1) -> tuple[object, object, Point]:
    """Weierstrass coefficients (a, b) of w^2 = q(z), q = q4 z^4 + ... + q0
    with coeffs = (q0, ..., q4), and the image e2 of the branch over
    z = infinity that is not marked, from one reduction.

    The marked branch is w ~ sign * sqrt(q4) z^2, which goes to Infinity; q4
    must be a nonzero square (NoSquareRoot otherwise). y^2 = x^3 + a x + b is
    the curve quartic_to_weierstrass gives for QuarticModel(coeffs,
    InfinityBranch(sign)), but the coefficients are not validated and no
    curve is built: for this reduction Delta(y^2 = x^3 + a x + b) =
    16 * disc_z(q) for either sign, so the discriminant of whatever model the
    caller builds from (a, b) is the squarefreeness check of q."""
    alpha = sign * _sqrt_element(coeffs[4])
    (a, b), _fwd, _inv, e2 = _reduce_infinity_branch(coeffs, alpha)
    return a, b, e2


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
    return 1728 * 4 * i_inv * i_inv * i_inv / den
