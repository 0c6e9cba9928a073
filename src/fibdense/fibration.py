"""Elliptic fibrations over the t-line as Weierstrass models over Q(t).

A FibrationModel is the generic fiber y^2 = x^3 + a(t)x + b(t): an
EllipticCurve with RatFn coefficients, whose discriminant it forms once and
whose refusal of a zero one is the curve's.
Multisections come in five shapes (zero section, constant-x, parametrized,
graph on a quartic-model fibration, split list). Each shape is one class
with the same four methods, so the pipeline never asks which shape it has:
points(model, height_bound) lists its rational points by parameter height,
cycle(fiber, b) cuts out its zero-cycle on the smooth fiber at t = b,
trace(fiber, b) gives that cycle's group-law sum over Q, and
ramification(model) locates the branch points of its projection to the
t-line. A fiber cycle is defined over Q, so cycle returns it as
(rational, pairs): the points over Q, and O, with their multiplicities,
and one point P of each conjugate pair {P, conj(P)} with the multiplicity
the two share. Its sum (the trace) is rational, and tau(p) = [d]p - trace
is the workhorse class map. The functions on one fiber take the smooth
fiber the caller specialized: fiber_cycle(m, fiber, b), trace_cycle(fiber,
m, b, p=None) and tau_map(fiber, m, p, b). A section is the degree-1 case: a
section difference takes two multisections of degree 1 and reads each one's
point on a fiber as its trace.

No trace but a parametrized curve's takes a root. The zero section and
x = c trace to O, and a graph to the image of the unmarked branch at
infinity, in closed form (see each trace method for its divisor). A
parametrized curve and a split list sum their checked cycle over Q, each
conjugate pair by its chord; a split list's points are all rational or O,
so it has no pair. A cycle that takes a root evaluates its point at the
first root of each conjugate pair only: x(s), y(s) and the chart maps are
defined over Q, so the point at the other root is the conjugate.

tau_map hands its base point p, one of the cycle's points, to the trace.
Only a parametrized curve reads it: the parameter of p is a root of its
fiber equation, which it divides out before the root search (see
Parametrized.cycle).

Fiber points are only ever constructed over Q or quadratic fields, by one
evaluation (RatFn.__call__) and one root splitter (small_field_roots). Over
Q the splitter is one rational_roots call: its one Yun run gives the
rational roots and the factors they leave, and a quadratic factor becomes a
field.
Anything needing a larger field raises TraceFieldTooLarge instead of
approximating; ramification analysis reports higher-degree parameter
factors unresolved, with an exact all-singular divisibility certificate.
Both order probes (order_probe, section_difference_order) hand each sampled
difference to torsion_certify, which decides its order exactly, so a probe
returns a NonTorsion proof or Order evidence.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .elliptic import (
    INFINITY,
    EllipticCurve,
    InfiniteOrder,
    Point,
    Value,
    _add_unchecked,
    _mul_unchecked,
    ec_add,
    ec_mul,
    ec_neg,
    quartic_to_weierstrass,
    torsion_certify,
)
from .errors import (
    DomainError,
    EmptySampleSet,
    MapUndefined,
    NoGeneratorSupplied,
    NoSquareRoot,
    PoleAtParameter,
    SingularFiberSkip,
    TraceFieldTooLarge,
    UnsupportedRepresentation,
)
from .exactmath import (
    Poly,
    RatFn,
    enumerate_rationals,
    is_square,
    poly_gcd,
    quadratic_field,
    rational_roots,
    squarefree_decompose,
)
from .exactmath.numfield import NumFieldElement
from .exactmath.poly import _cleared, _is_rational_poly

Rat = Fraction


class FibrationModel(EllipticCurve):
    """Generic fiber y^2 = x^3 + a(t)x + b(t): the elliptic curve over Q(t)
    with RatFn coefficients. Its discriminant -16(4 an^3 bd^2 + 27 bn^2 ad^3)
    / (ad^3 bd^2), for a = an/ad and b = bn/bd, is formed once, at
    construction, with one gcd (none when ad = bd = 1), and a zero one is
    refused."""

    __slots__ = ("discriminant",)
    __repr__ = Value.__repr__

    def __init__(self, a: RatFn, b: RatFn):
        an, ad, bn, bd = a.num, a.den, b.num, b.den
        self.discriminant = RatFn(-16 * (4 * an**3 * bd**2 + 27 * bn**2 * ad**3), ad**3 * bd**2)
        super().__init__(a, b)

    def singular_parameters(self) -> list[Rat]:
        """Rational parameters where the fiber is singular or undefined."""
        found = set()
        for fn in (self.discriminant.num, self.a.den, self.b.den):
            for r, _ in rational_roots(fn)[0]:
                found.add(r)
        return sorted(found)


def specialize(model: FibrationModel, b: Rat) -> EllipticCurve:
    """The fiber curve at t = b; PoleAtParameter at a pole of a or b,
    SingularFiberSkip when the fiber is singular."""
    a, c = model.a(b), model.b(b)
    if a is None or c is None:
        raise PoleAtParameter(f"coefficient pole at t = {b}")
    try:
        return EllipticCurve(a, c)
    except DomainError:
        raise SingularFiberSkip(f"fiber at t = {b} is singular") from None


def _order_at(fn: RatFn, b: Rat) -> int:
    """The order of fn at t = b, by exact division of num and den by t - b."""
    if fn.is_zero:
        raise ZeroDivisionError("order of the zero function")
    order, linear = 0, Poly([-b, Fraction(1)])
    for p, sign in ((fn.num, 1), (fn.den, -1)):
        while not p(b):
            p, order = p.exact_div(linear), order + sign
    return order


class FiberType:
    __slots__ = ("ord_delta", "ord_c4", "label")

    def __init__(self, ord_delta: int, ord_c4: int | None, label: str):
        self.ord_delta, self.label = ord_delta, label
        self.ord_c4 = ord_c4  # None encodes c4 identically zero


def fiber_type(model: FibrationModel, b: Rat) -> FiberType:
    """Minimal I0/I1/II classifier, each an irreducible fiber; anything else
    is Other, with irreducibility left undecided.

    The model is first made minimal at b. With u = (t - b)^n, the model with
    u^4 a and u^6 b is isomorphic over Q(t), and its discriminant and c4 are
    u^12 and u^4 times the old ones. n is the least integer that leaves
    neither nonzero coefficient a pole; it is negative where the given model
    is not minimal, and positive at a pole. c4 = -48a has the order of a."""
    n = max(-(_order_at(fn, b) // w) for fn, w in ((model.a, 4), (model.b, 6)) if not fn.is_zero)
    ord_delta = _order_at(model.discriminant, b) + 12 * n
    ord_c4 = None if model.a.is_zero else _order_at(model.a, b) + 4 * n
    if ord_delta == 0:
        return FiberType(0, ord_c4, "I0")
    if ord_delta == 1 and ord_c4 == 0:
        return FiberType(1, ord_c4, "I1")
    if ord_delta == 2 and (ord_c4 is None or ord_c4 >= 1):
        return FiberType(2, ord_c4, "II")
    return FiberType(ord_delta, ord_c4, "Other")


# -- points and roots over Q and quadratic fields --


def _eval_point(x_fn: RatFn, y_fn: RatFn, s) -> Point:
    """The point (x(s), y(s)), or INFINITY at a pole of either coordinate."""
    xv, yv = x_fn(s), y_fn(s)
    return INFINITY if xv is None or yv is None else Point(xv, yv)


def _irrational(c) -> bool:
    """Whether c is a field element outside Q (a Fraction and O's None are not)."""
    return isinstance(c, NumFieldElement) and not c.is_rational


def _descend_point(p: Point) -> Point:
    """p over Q when both coordinates are rational, field elements or not."""
    x, y = p.x, p.y
    if _irrational(x) or _irrational(y):
        return p
    if isinstance(x, NumFieldElement) or isinstance(y, NumFieldElement):
        return Point(*(c.as_fraction() if isinstance(c, NumFieldElement) else c for c in (x, y)))
    return p


def small_field_roots(p: Poly, name: str):
    """Roots of a nonzero p over Q and quadratic fields.

    Returns (roots, unresolved). roots lists (root, multiplicity) pairs: the
    rational roots in ascending order, then the conjugate roots of each
    irreducible quadratic squarefree part, in a new field whose generator is
    named `name`. unresolved lists the monic squarefree parts left over,
    whose roots need a larger field. For p over a quadratic field only roots
    inside that same field are produced.

    Over Q, rational_roots splits p with one Yun run, and each factor it
    leaves keeps its multiplicity.
    """
    quadratic, unresolved = [], []
    if _is_rational_poly(p):
        rational, rest = rational_roots(p)
        for factor, mult in rest:
            if factor.degree == 2:
                _K, root, conj = quadratic_field(factor, name)
                quadratic += [(root, mult), (conj, mult)]
            else:
                unresolved.append(factor)
        return rational + quadratic, unresolved
    field = next(c.field for c in p.coeffs if isinstance(c, NumFieldElement))
    for factor, mult in squarefree_decompose(p):
        if factor.degree == 1:
            quadratic.append((-factor.coefficient(0), mult))
        elif factor.degree == 2:
            b, c = factor.coefficient(1), factor.coefficient(0)
            try:
                root = field.sqrt(b * b - 4 * c)
            except NoSquareRoot:
                unresolved.append(factor)
            else:
                half = Fraction(1, 2)
                quadratic += [((-b + root) * half, mult), ((-b - root) * half, mult)]
        else:
            unresolved.append(factor)
    return quadratic, unresolved


def odd_square_split(g: Poly) -> tuple[Poly, Poly]:
    """g = q * r^2 with q the squarefree odd-multiplicity part (lead folded in)."""
    q = Poly([g.lead])
    r = Poly([Fraction(1)])
    for factor, mult in squarefree_decompose(g):
        if mult % 2:
            q = q * factor
        r = r * factor ** (mult // 2)
    return q, r


# -- ramification reports --


class RamificationPoint:
    __slots__ = ("b", "point", "salient")

    def __init__(self, b, point: Point, salient: bool):
        self.b = b  # Rat or NumFieldElement
        self.point, self.salient = point, salient


class UnresolvedRamification(Value):
    """A parameter factor of degree > 2; all_singular certifies that every
    root of the factor is a singular-fiber parameter."""

    __slots__ = _fields = ("factor", "all_singular")

    def __init__(self, factor: Poly, all_singular: bool):
        self.factor, self.all_singular = factor, all_singular


class RamificationReport:
    """Ramification of a multisection's projection to the t-line, resolved
    over degree <= 2 parameter fields; salient means the fiber there is smooth."""

    __slots__ = ("points", "unresolved")

    def __init__(self, points: tuple, unresolved: tuple = ()):
        self.points, self.unresolved = points, unresolved


def _branch_report(model, branch_poly: Poly, name: str, locate, target: Poly):
    """Ramification report over the roots of branch_poly in degree <= 2
    fields; locate(root) gives the fiber parameter and the point there.

    A point is salient when the discriminant is finite and nonzero at its
    parameter. An unresolved factor, monic and squarefree, has only singular
    roots exactly when it divides target, the discriminant's numerator in
    the factor's variable, that is when gcd(factor, target) has the degree
    of factor. The target is never zero: FibrationModel rejects a zero
    discriminant, and a pullback is along a nonconstant t(s)."""
    roots, unresolved = small_field_roots(branch_poly, name)
    disc = model.discriminant
    points = []
    for root, _mult in roots:
        b, pt = locate(root)
        points.append(RamificationPoint(b, pt, b is not None and bool(disc(b))))
    singular = (UnresolvedRamification(f, poly_gcd(f, target).degree == f.degree) for f in unresolved)
    return RamificationReport(tuple(points), tuple(singular))


# -- multisections --


class ZeroSection(Value):
    __slots__ = _fields = ()

    @property
    def degree(self) -> int:
        return 1

    def points(self, model: FibrationModel, height_bound: int):
        return [(b, INFINITY) for b in enumerate_rationals(height_bound)]

    def cycle(self, fiber: EllipticCurve, b: Rat):
        return [(INFINITY, 1)], []

    def trace(self, fiber: EllipticCurve, b: Rat, p: Point | None = None) -> Point:
        """O: the cycle is O itself."""
        return INFINITY

    def ramification(self, model: FibrationModel) -> RamificationReport:
        return RamificationReport(points=())


class ConstantX(Value):
    __slots__ = _fields = ("c",)

    def __init__(self, c: Rat):
        self.c = c

    @property
    def degree(self) -> int:
        return 2

    def _rhs(self, model: FibrationModel) -> RatFn:
        """x^3 + a(t)x + b(t) at x = c, as a function of t."""
        return model.a * self.c + model.b + self.c**3

    def points(self, model: FibrationModel, height_bound: int):
        h = self._rhs(model)
        n, d = h.num, h.den
        if max(n.degree, d.degree) != 1:
            raise UnsupportedRepresentation(
                "constant-x enumeration needs a degree-1 fiber-parameter equation"
            )
        # n(t) = y^2 d(t) at y = p/q, times q^2 L with n0, n1, d0, d1 cleared by
        # L, their denominators' lcm: t = (p^2 d0 - q^2 n0) / (q^2 n1 - p^2 d1)
        (n0, n1, d0, d1), _lcm = _cleared([f.coefficient(k) for f in (n, d) for k in (0, 1)])
        out = []
        for y in enumerate_rationals(height_bound):
            p2, q2 = y.numerator**2, y.denominator**2
            lead = q2 * n1 - p2 * d1
            if lead:
                out.append((Fraction(p2 * d0 - q2 * n0, lead), Point(self.c, y)))
        return out

    def cycle(self, fiber: EllipticCurve, b: Rat):
        w2 = self.c**3 + fiber.a * self.c + fiber.b
        roots, _none = small_field_roots(Poly([-w2, 0, 1]), "w")
        return _cycle_over_roots(roots, lambda w: Point(w * 0 + self.c, w))

    def trace(self, fiber: EllipticCurve, b: Rat, p: Point | None = None) -> Point:
        """O, with no root taken.

        x - c is a function on the fiber with a double pole at O and zeros
        at the points over x = c: div(x - c) = (c, w) + (c, -w) - 2O for
        w^2 = c^3 + a c + b, so the cycle (c, w) + (c, -w) sums to O. When
        w = 0, (c, 0) is a 2-torsion point and the cycle is 2(c, 0), which
        sums to O as well. Either way the cycle is principal, whether w is
        rational or lies in Q(w)."""
        return INFINITY

    def ramification(self, model: FibrationModel) -> RamificationReport:
        h = self._rhs(model)
        if h.is_zero:
            raise DomainError("constant-x multisection lies in the singular locus")

        def locate(b):
            zero = b * 0  # zero in the field of b
            return b, Point(zero + self.c, zero)

        return _branch_report(model, h.num, "b", locate, model.discriminant.num)


class Parametrized(Value):
    """Curve s -> (t(s), x(s), y(s)) with y^2 = x^3 + a(t)x + b(t) identically."""

    __slots__ = _fields = ("t", "x", "y")

    def __init__(self, t: RatFn, x: RatFn, y: RatFn):
        self.t, self.x, self.y = t, x, y

    @property
    def degree(self) -> int:
        return max(self.t.num.degree, self.t.den.degree)

    def points(self, model: FibrationModel, height_bound: int):
        return [
            (tv, _eval_point(self.x, self.y, s))
            for s in enumerate_rationals(height_bound)
            if (tv := self.t(s)) is not None
        ]

    def cycle(self, fiber: EllipticCurve, b: Rat, p: Point | None = None):
        """The points at the roots of the solver t.num - b*t.den and at
        s = infinity. Given a rational point p, a linear g = gcd(solver,
        x.num - p.x*x.den) is divided out before the root search and its root
        joins the cofactor's with multiplicity 1: the same list, for any p."""
        solver = self.t.num - b * self.t.den
        drop = self.degree - solver.degree
        # the missing preimages sit at s = infinity
        at_infinity = [(_eval_point(self.x, self.y, None), drop)] if drop > 0 else []
        g = self._factor_over(solver, p)
        roots, unresolved = small_field_roots(solver if g is None else solver.exact_div(g), "s")
        if unresolved:
            factor = unresolved[0]
            raise TraceFieldTooLarge(
                f"fiber points at t = {b} need a degree-{factor.degree} factor {factor}"
            )
        if g is not None:
            roots = _with_root(roots, -g.coefficient(0))
        rational, pairs = _cycle_over_roots(roots, lambda s: _descend_point(_eval_point(self.x, self.y, s)))
        return at_infinity + rational, pairs

    def _factor_over(self, solver: Poly, p: Point | None) -> Poly | None:
        """gcd(solver, x.num - p.x*x.den) when it is linear, else None (no
        p, O, a constant x, or several parameters over p.x)."""
        if p is None or not isinstance(p.x, Fraction):
            return None
        over = self.x.num - p.x * self.x.den
        if over.degree < 1:
            return None
        g = poly_gcd(solver, over)
        return g if g.degree == 1 else None

    def trace(self, fiber: EllipticCurve, b: Rat, p: Point | None = None) -> Point:
        """The sum of the checked cycle, taken with p (see cycle)."""
        return _support_trace(self, fiber, b, self.cycle(fiber, b, p))

    def ramification(self, model: FibrationModel) -> RamificationReport:
        n, d = self.t.num, self.t.den
        crit = n.derivative() * d - n * d.derivative()
        if crit.is_zero:
            raise DomainError("parametrized multisection has constant t(s)")
        # exclude critical parameters that are poles of t(s)
        g = poly_gcd(crit, d)
        while g.degree > 0:
            crit = crit.exact_div(g)
            g = poly_gcd(crit, d)
        pulled = model.discriminant.num(self.t)  # Poly evaluated at RatFn
        disc_pullback = pulled.num if isinstance(pulled, RatFn) else Poly([pulled])

        def locate(s):
            # ramification parameters are s-values; the report carries t-images
            tv = self.t(s)
            if isinstance(tv, NumFieldElement) and tv.is_rational:
                tv = tv.as_fraction()
            return tv, _descend_point(_eval_point(self.x, self.y, s))

        return _branch_report(model, crit, "s", locate, disc_pullback)


class GraphOnQuartic(Value):
    """Graph z = p(t) on a quartic-model fibration w^2 = sum_i f_i(t) z^i.

    fiber_coeffs lists (f_0, ..., f_4) with f_4 a nonzero square constant;
    sign picks the branch at infinity used for the Weierstrass conversion.
    generator optionally names a point (t0, w0) on the normalized covering
    curve w~^2 = q(t), where G = F(t, p(t)) = q * r^2 with q squarefree; it is
    used by enumeration when that curve is elliptic.
    """

    __slots__ = _fields = ("p", "fiber_coeffs", "sign", "generator")

    def __init__(self, p: Poly, fiber_coeffs: tuple, sign: int = 1, generator: tuple | None = None):
        self.p, self.sign, self.generator = p, sign, generator
        self.fiber_coeffs = tuple(Poly(c) if not isinstance(c, Poly) else c for c in fiber_coeffs)
        if len(self.fiber_coeffs) != 5:
            raise DomainError("a quartic-model fibration takes five coefficient polynomials")
        if self.p.degree > 2:
            raise DomainError("graph sections have degree at most 2 in t")
        lead = self.fiber_coeffs[4]
        if lead.degree > 0 or lead.is_zero:
            raise DomainError("the z^4 coefficient must be a nonzero constant")
        if not is_square(lead.coefficient(0)):
            raise DomainError("the z^4 coefficient must be a rational square")

    @property
    def degree(self) -> int:
        return 2

    def _chart(self, b, fiber: EllipticCurve | None = None):
        """(forward, e2) of the fiber quartic's Weierstrass chart at t = b;
        with the fiber, DomainError unless the chart's curve is that fiber."""
        a, c, forward, _inv, e2 = quartic_to_weierstrass([f(b) for f in self.fiber_coeffs], self.sign)
        if fiber is not None and (a, c) != (fiber.a, fiber.b):
            raise DomainError("graph multisection is attached to a different fibration")
        return forward, e2

    def points(self, model: FibrationModel, height_bound: int):
        """Multiples [+-k]g, k <= height_bound, of the generator g on the
        covering curve, lifted to the surface."""
        if self.generator is None:
            raise NoGeneratorSupplied(
                "enumerating a graph multisection needs a generator on its covering curve"
            )
        # G = q * r^2 with q squarefree; points of the normalized covering
        # curve w~^2 = q(t) lift to the surface via w = w~ * r(t)
        q, r = odd_square_split(quartic_on_graph(self.fiber_coeffs, self.p))
        if q.degree != 4:
            raise UnsupportedRepresentation(
                "covering curve enumeration needs a degree-4 squarefree cover"
            )
        t0, w0 = self.generator
        if w0 * w0 != q(t0):
            raise DomainError(f"generator ({t0}, {w0}) is not on the covering curve")
        a, c, fwd, inv, _e2 = quartic_to_weierstrass(tuple(q.coefficient(i) for i in range(5)))
        curve = EllipticCurve(a, c)
        g = fwd(t0, w0)
        if g.is_infinity:
            raise UnsupportedRepresentation("generator maps to the group origin")
        out = []
        for k in range(1, height_bound + 1):
            for signed in (k, -k):
                pk = ec_mul(curve, signed, g)
                if pk.is_infinity:
                    continue
                try:
                    b, wk = inv(pk)
                except MapUndefined:
                    continue
                out.append((b, self._chart(b)[0](self.p(b), wk * r(b))))
        return out

    def cycle(self, fiber: EllipticCurve, b: Rat):
        g = quartic_on_graph(self.fiber_coeffs, self.p)
        roots, _none = small_field_roots(Poly([-g(b), 0, 1]), "w")
        fwd, _e2 = self._chart(b, fiber)
        z0 = self.p(b)
        return _cycle_over_roots(roots, lambda w: fwd(z0, w))

    def trace(self, fiber: EllipticCurve, b: Rat, p: Point | None = None) -> Point:
        """e2, the image of the branch at infinity that is not marked, with
        no root of the cover taken.

        On the fiber w^2 = F(b, z), the function z - z0 has its zeros at the
        points over z0 = p(b) and its poles at the two branches over
        z = infinity: div(z - z0) = (z0, w) + (z0, -w) - inf+ - inf-. The
        marked branch inf+ is the origin, so the cycle sums to inf-, which
        the chart sends to e2; with w = 0 the cycle is 2(z0, 0) and the
        identity is the same. The trace does not depend on p."""
        return self._chart(b, fiber)[1]

    def ramification(self, model: FibrationModel) -> RamificationReport:
        g = quartic_on_graph(self.fiber_coeffs, self.p)
        if g.is_zero:
            raise DomainError("graph multisection lies on the branch locus")

        def locate(b):
            return b, self._chart(b)[0](self.p(b), b * 0)

        target = model.discriminant.num
        return _branch_report(model, poly_gcd(g, g.derivative()), "b", locate, target)


class SplitList(Value):
    """Finitely many sections (x_i(t), y_i(t))."""

    __slots__ = _fields = ("sections",)

    def __init__(self, sections: tuple):
        self.sections = sections  # of (RatFn, RatFn) pairs

    @property
    def degree(self) -> int:
        return len(self.sections)

    def points(self, model: FibrationModel, height_bound: int):
        return [
            (b, _eval_point(x_fn, y_fn, b))
            for b in enumerate_rationals(height_bound)
            for x_fn, y_fn in self.sections
        ]

    def cycle(self, fiber: EllipticCurve, b: Rat):
        return [(_eval_point(x_fn, y_fn, b), 1) for x_fn, y_fn in self.sections], []

    def trace(self, fiber: EllipticCurve, b: Rat, p: Point | None = None) -> Point:
        """The section points are rational or O, so the support path takes
        no root; each point is checked on the fiber, and a section off the
        fibration is refused."""
        return _support_trace(self, fiber, b, self.cycle(fiber, b))

    def ramification(self, model: FibrationModel) -> RamificationReport:
        return RamificationReport(points=())


Multisection = ZeroSection | ConstantX | Parametrized | GraphOnQuartic | SplitList


def quartic_on_graph(coeffs, p: Poly) -> Poly:
    """F(t, p(t)) for F(t, z) = sum_i coeffs[i](t) z^i, by Horner in z: the
    polynomial whose square roots give the fiber points of the graph z = p(t).
    On the cone (deg coeffs[i] <= 8 - 2i, deg p <= 2) it has degree <= 8, and
    a deficit counts the graph's meetings with F = 0 in the swapped chart at
    t = infinity."""
    total = Poly()
    for c in reversed(coeffs):
        total = total * p + c
    return total


def _check_support(curve: EllipticCurve, support) -> None:
    for pt, _mult in support:
        if not curve.contains(pt):
            raise DomainError(f"cycle point {pt} is off the fiber")


def _conjugate(p: Point) -> Point:
    """conj(P), coordinate by coordinate; a Fraction is its own conjugate."""
    return Point(p.x.conjugate(), p.y.conjugate())


def _with_root(roots, r0: Rat):
    """The (root, multiplicity) list of small_field_roots with one more root
    r0 over Q: its multiplicity raised by 1 when listed, else (r0, 1) in its
    ascending place among the rational roots, which come first."""
    for i, (r, mult) in enumerate(roots):
        if isinstance(r, NumFieldElement) or r > r0:
            return roots[:i] + [(r0, 1)] + roots[i:]
        if r == r0:
            return roots[:i] + [(r0, mult + 1)] + roots[i + 1 :]
    return roots + [(r0, 1)]


def _cycle_over_roots(roots, point):
    """(rational, pairs) for the cycle of the points point(r), r over the
    (root, multiplicity) list that small_field_roots gives over Q.

    That list holds the two roots of each quadratic factor side by side,
    and point is defined over Q, so the point at the second root of a pair
    is the conjugate of the point at the first: point is evaluated at the
    first only. A point that is its own conjugate (no irrational
    coordinate: rational, or O) is listed under rational once for each
    root; any other is one pair."""
    rational, pairs = [], []
    roots = iter(roots)
    for r, mult in roots:
        pt = point(r)
        if isinstance(r, NumFieldElement):
            next(roots)
            if _irrational(pt.x) or _irrational(pt.y):
                pt.y.coeffs  # a rational y beside a quadratic x (the trisection defect, ROADMAP item 2) fails here
                pairs.append((pt, mult))
                continue
            rational.append((pt, mult))
        rational.append((pt, mult))
    return rational, pairs


def _pair_sum(p: Point) -> Point:
    """P + conj(P) over Q for P = (ax + bx*g, ay + by*g) on a curve over Q,
    with E*g^2 + P1*g + P0 = 0.

    The chord through P and conj(P) has slope l = by/bx; its third point is
    rational, x3 = l^2 - (2ax - bx*P1/E) and y3 = l*(ax - x3) - ay. When x
    is rational (bx = 0, or x a Fraction) and y is not, conj(P) = -P on the
    curve and the sum is the origin. This is Cantor's reduction of a
    degree-2 divisor (D. G. Cantor, Math. Comp. 48, 1987). With
    x = (xn0 + xn1*g)/xd and y = (yn0 + yn1*g)/yd, the slope is sn/sd =
    yn1*xd/(yd*xn1) and the trace 2ax - bx*P1/E is (2*E*xn0 - P1*xn1)/(E*xd),
    so x3 and y3 are each one Fraction of integers, as in _add_unchecked.
    No other code in this module reads the integer form of a field element."""
    x, y = p.x, p.y
    if not isinstance(x, NumFieldElement) or not x.n1:
        return INFINITY
    K, xn0, xd, yn0, yd = x.field, x.n0, x.d, y.n0, y.d
    sn, sd = y.n1 * xd, yd * x.n1
    sd2, Exd = sd * sd, K.E * xd
    x3 = Fraction(sn * sn * Exd - sd2 * (2 * K.E * xn0 - K.P1 * x.n1), sd2 * Exd)
    x3n, x3d = x3.numerator, x3.denominator
    return Point(x3, Fraction(sn * (xn0 * x3d - x3n * xd) * yd - yn0 * sd * xd * x3d, sd * xd * x3d * yd))


def _checked_support(m: Multisection, fiber: EllipticCurve, b: Rat, cycle):
    """(rational, pairs) = cycle, m's zero-cycle on the smooth fiber at
    t = b as m.cycle lists it, checked: on the fiber and of degree m.degree
    (DomainError otherwise). The fiber is defined over Q, so conjugation
    maps its points to its points, and one point of each pair is checked
    on it; a pair counts twice in the degree."""
    rational, pairs = cycle
    _check_support(fiber, rational + pairs)
    degree = sum(mult for _pt, mult in rational) + 2 * sum(mult for _pt, mult in pairs)
    if degree != m.degree:
        raise DomainError(f"cycle at t = {b} has degree {degree}, expected {m.degree}")
    return rational, pairs


def _support_trace(m: Multisection, fiber: EllipticCurve, b: Rat, cycle) -> Point:
    """The sum of the checked cycle (see _checked_support) over Q: the
    rational points with their multiplicities, and each conjugate pair by
    its chord (_pair_sum)."""
    rational, pairs = _checked_support(m, fiber, b, cycle)
    trace = INFINITY
    for pt, mult in rational + [(_pair_sum(pt), mult) for pt, mult in pairs]:
        trace = _add_unchecked(fiber, trace, _mul_unchecked(fiber, mult, pt))
    return trace


def fiber_cycle(m: Multisection, fiber: EllipticCurve, b: Rat) -> tuple:
    """The checked support, (point, multiplicity) pairs, of the
    multisection's zero-cycle on the smooth fiber at t = b (see
    _checked_support): the rational points, then each conjugate pair as P
    and conj(P)."""
    rational, pairs = _checked_support(m, fiber, b, m.cycle(fiber, b))
    return tuple(rational) + tuple(q for pt, mult in pairs for q in ((pt, mult), (_conjugate(pt), mult)))


def trace_cycle(fiber: EllipticCurve, m: Multisection, b: Rat, p: Point | None = None) -> Point:
    """The group sum over Q of the multisection's cycle on fiber, the
    smooth fiber at t = b: m.trace(fiber, b, p). A parametrized curve reads
    the optional rational point p as a known root (see Parametrized.cycle);
    the sum does not depend on it."""
    return m.trace(fiber, b, p)


def tau_map(fiber: EllipticCurve, m: Multisection, p: Point, b: Rat) -> Point:
    """tau(p) = [d]p - trace of the fiber cycle, on fiber, the smooth fiber
    at t = b; the trace takes p, a point of the cycle."""
    trace = trace_cycle(fiber, m, b, p)
    return ec_add(fiber, ec_mul(fiber, m.degree, p), ec_neg(trace))


# -- order probing --


class Order(Value):
    """Sample-level evidence: m is the lcm of the exact orders of the
    sampled differences (each pairwise cycle difference in order_probe,
    s1 - s2 in section_difference_order), so every m' that kills them all
    is a multiple of m."""

    __slots__ = _fields = ("m",)

    def __init__(self, m: int):
        self.m = m


class NonTorsion(Value):
    """Proof: a sampled difference on the smooth fiber at t = witness has
    infinite order, so no multiple of the generic difference vanishes."""

    __slots__ = _fields = ("witness",)

    def __init__(self, witness: Rat):
        self.witness = witness


def _sample_verdict(model: FibrationModel, samples, differences):
    """NonTorsion at the first sample b where a point of differences(fiber, b)
    has infinite order on the fiber at t = b, otherwise Order(m) with m the
    lcm of the exact orders torsion_certify gives every sampled difference."""
    samples = list(samples)
    if not samples:
        raise EmptySampleSet("an order probe needs at least one fiber sample")
    overall = 1
    for b in samples:
        fiber = specialize(model, b)
        for diff in differences(fiber, b):
            res = torsion_certify(fiber, diff)
            if isinstance(res, InfiniteOrder):
                return NonTorsion(witness=b)
            overall = math.lcm(overall, res.order)
    return Order(overall)


def order_probe(model: FibrationModel, m: Multisection, fiber_samples):
    """The sample verdict (see _sample_verdict) on the pairwise differences
    of m's fiber cycle: tau(p_i) - tau(p_j) = [d](p_i - p_j), so one of
    infinite order proves m non-torsion. TraceFieldTooLarge when two points
    lie over different quadratic fields."""

    def differences(fiber, b):
        pts = [pt for pt, _mult in fiber_cycle(m, fiber, b)]
        for i, p in enumerate(pts):
            for q in pts[i + 1 :]:
                if len({pt.x.field for pt in (p, q) if isinstance(pt.x, NumFieldElement)}) > 1:
                    raise TraceFieldTooLarge(f"difference at t = {b} mixes incompatible fields")
                yield ec_add(fiber, p, ec_neg(q))

    return _sample_verdict(model, fiber_samples, differences)


# -- section differences --


def section_difference_order(model: FibrationModel, s1: Multisection, s2: Multisection, samples):
    """The sample verdict (see _sample_verdict) on s1 - s2.

    A section is a multisection of degree 1 (DomainError for any other
    degree), and its point on a fiber is its trace there: O, or a point
    the trace has checked on the fiber, so only the difference is checked,
    by torsion_certify."""
    if (s1.degree, s2.degree) != (1, 1):
        raise DomainError("a section difference takes two multisections of degree 1")

    def differences(fiber, b):
        return [_add_unchecked(fiber, trace_cycle(fiber, s1, b), ec_neg(trace_cycle(fiber, s2, b)))]

    return _sample_verdict(model, samples, differences)
