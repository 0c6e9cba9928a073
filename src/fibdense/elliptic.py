"""Elliptic curves y^2 = x^3 + a*x + b over an exact field.

Coefficients and coordinates are duck-typed: Fraction, NumFieldElement, and
RatFn all work, so the same group law and quartic-model reduction serve
curves over Q, over small number fields (trace cycles), and over Q(t)
(fibration generic fibers).

The quartic bridge turns w^2 = q4*z^4 + ... + q0 with a marked rational
point into a short Weierstrass curve together with explicit mutually inverse
point maps. Three classical routes are used: a square leading coefficient
gives a branch at infinity directly; a finite marked point with w0 != 0 is
shifted to z = 0 and inverted into that case; a finite marked point with
w0 = 0 reduces to a cubic. Exceptional parameters raise MapUndefined.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .errors import (
    BoundTooSmall,
    DomainError,
    MapUndefined,
    NoSquareRoot,
    NotSquarefree,
    PointNotOnCurve,
)
from .exactmath import Poly, RatFn, poly_gcd, rat_sqrt
from .exactmath.numfield import NumFieldElement

TORSION_BOUND_Q = 12
TORSION_BOUND_QUADRATIC = 18
MAZUR_ORDERS = frozenset({1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12})


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
        if p.is_infinity:
            return True
        x, y = p.x, p.y
        return y * y == x * x * x + self.a * x + self.b

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
    if n < 0:
        n, p = -n, ec_neg(p)
    result = INFINITY
    base = p
    while n:
        if n & 1:
            result = _add_unchecked(curve, result, base)
        base = _add_unchecked(curve, base, base)
        n >>= 1
    return result


@dataclass(frozen=True)
class Torsion:
    order: int


@dataclass(frozen=True)
class InfiniteOrder:
    pass


def _default_torsion_bound(curve: EllipticCurve) -> int:
    sample = curve.a if curve.a else curve.b
    if isinstance(sample, (int, Fraction)):
        return TORSION_BOUND_Q
    if isinstance(sample, NumFieldElement):
        if sample.field.degree == 2:
            return TORSION_BOUND_QUADRATIC
        raise BoundTooSmall(
            "no uniform torsion constant for fields of degree "
            f"{sample.field.degree}; pass an explicit bound"
        )
    raise BoundTooSmall("torsion certification needs a curve over Q or a quadratic field")


def torsion_certify(
    curve: EllipticCurve,
    p: Point,
    bound: int | None = None,
    allow_low_bound: bool = False,
):
    """Exact order if it is at most the field's uniform torsion bound,
    otherwise a proof of infinite order (relative to that bound)."""
    _require_on_curve(curve, p)
    if p.is_infinity:
        return Torsion(1)
    uniform = None
    try:
        uniform = _default_torsion_bound(curve)
    except BoundTooSmall:
        if bound is None or not allow_low_bound:
            raise
    if bound is None:
        bound = uniform
    elif uniform is not None and bound < uniform and not allow_low_bound:
        raise BoundTooSmall(f"bound {bound} is below the uniform constant {uniform}")
    order = smallest_order(curve, p, bound)
    if order is None:
        return InfiniteOrder()
    if uniform == TORSION_BOUND_Q and order not in MAZUR_ORDERS:
        raise DomainError(f"order {order} violates the rational torsion bound")
    return Torsion(order)


def smallest_order(curve: EllipticCurve, p: Point, bound: int) -> int | None:
    """Least m <= bound with [m]p = Infinity, or None when there is none.

    p must lie on the curve; it is not checked again here."""
    acc = p
    for m in range(1, bound + 1):
        if acc.is_infinity:
            return m
        if m < bound:  # [bound + 1]p is never looked at
            acc = _add_unchecked(curve, acc, p)
    return None


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
    if isinstance(x, (int, Fraction)):
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
        if poly_gcd(q, q.derivative()).degree > 0:
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

    @property
    def rhs(self) -> Poly:
        return Poly(self.coeffs)


def _long_to_short(a1, a2, a3, a4, a6):
    """Complete the square and cube; returns the curve and (u,v) <-> Point maps."""
    b2 = a1 * a1 + 4 * a2
    b4 = 2 * a4 + a1 * a3
    b6 = a3 * a3 + 4 * a6
    A = b4 / 2 - b2 * b2 / 48
    B = b6 / 4 - b2 * b4 / 24 + b2 * b2 * b2 / 864
    curve = EllipticCurve(A, B)

    def to_short(u, v) -> Point:
        return Point(u + b2 / 12, v + (a1 * u + a3) / 2)

    def from_short(p: Point):
        u = p.x - b2 / 12
        v = p.y - (a1 * u + a3) / 2
        return u, v

    return curve, to_short, from_short


def _reduce_infinity_branch(coeffs, alpha):
    """Quartic with branch w ~ alpha*z^2 at infinity; that branch goes to
    Infinity, the opposite branch to the distinguished affine point e2."""
    q0, q1, q2, q3, _q4 = coeffs
    beta = q3 / (2 * alpha)
    gamma = (q2 - beta * beta) / (2 * alpha)
    dt = q1 - 2 * beta * gamma
    et = q0 - gamma * gamma
    zero = alpha * 0
    curve, to_short, from_short = _long_to_short(
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

    return curve, forward, inverse, e2


def quartic_to_weierstrass(model: QuarticModel):
    """Short Weierstrass model with forward/inverse point maps.

    forward: (z, w) -> Point, sending the marked point to Infinity.
    inverse: Point -> (z, w). Both raise MapUndefined on their finite
    exceptional sets; they are mutually inverse everywhere else.
    """
    coeffs = model.coeffs
    if isinstance(model.marked, InfinityBranch):
        alpha = model.marked.sign * _sqrt_element(coeffs[4])
        return _reduce_infinity_branch(coeffs, alpha)[:3]

    z0, w0 = model.marked
    shifted = Poly(coeffs).shift(z0)  # p(h) = q(z0 + h)
    p = [shifted.coefficient(k) for k in range(5)]

    if w0 * w0 != p[0]:  # pragma: no cover - guarded at construction
        raise PointNotOnCurve("marked point drifted off the model")

    if w0:
        # invert: s = 1/(z - z0), W = w/(z - z0)^2 gives lead p0 = w0^2
        rev = (p[4], p[3], p[2], p[1], p[0])
        curve, fwd_inf, inv_inf, e2 = _reduce_infinity_branch(rev, w0)

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

        return curve, forward, inverse

    # marked point with w0 = 0: the shifted quartic has p0 = 0, p1 != 0,
    # and W^2 = p1 s^3 + p2 s^2 + p3 s + p4 monicizes to a cubic model
    p1, p2, p3, p4 = p[1], p[2], p[3], p[4]
    zero = p1 * 0
    curve, to_short, from_short = _long_to_short(zero, p2, zero, p1 * p3, p1 * p1 * p4)

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

    return curve, forward, inverse


def opposite_branch_point(model: QuarticModel) -> Point:
    """Weierstrass image of the unmarked branch over z = infinity.

    The conversion of a quartic marked at infinity sends the marked branch
    to Infinity; the other branch lands on this finite point."""
    if not isinstance(model.marked, InfinityBranch):
        raise DomainError("only models marked at infinity carry a second branch")
    alpha = model.marked.sign * _sqrt_element(model.coeffs[4])
    return _reduce_infinity_branch(model.coeffs, alpha)[3]


def quartic_j_invariant(coeffs):
    """j-invariant of w^2 = quartic via the classical degree-4 invariants."""
    q0, q1, q2, q3, q4 = coeffs
    i_inv = 12 * q4 * q0 - 3 * q3 * q1 + q2 * q2
    j_inv = (
        72 * q4 * q2 * q0
        - 27 * q4 * q1 * q1
        - 27 * q3 * q3 * q0
        + 9 * q3 * q2 * q1
        - 2 * q2 * q2 * q2
    )
    den = 4 * i_inv * i_inv * i_inv - j_inv * j_inv
    if not den:
        raise NotSquarefree("degenerate quartic: vanishing discriminant combination")
    return 1728 * 4 * i_inv * i_inv * i_inv / den
