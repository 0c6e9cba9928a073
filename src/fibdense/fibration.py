"""Elliptic fibrations over the t-line as Weierstrass models over Q(t).

A FibrationModel is y^2 = x^3 + a(t)x + b(t) with RatFn coefficients.
Multisections come in five shapes (zero section, constant-x, parametrized,
graph on a quartic-model fibration, split list). Each shape is one class
with the same three methods, so the pipeline never asks which shape it has:
points(model, height_bound) lists its rational points by parameter height,
cycle(fiber, b) cuts out its zero-cycle on the smooth fiber at t = b, and
ramification(model) locates the branch points of its projection to the
t-line. Each fiber cycle is Galois-stable, so its group-law sum (the trace)
is rational, and tau(p) = [d]p - trace is the workhorse class map.

Fiber points are only ever constructed over Q or quadratic fields. Anything
needing a larger field raises TraceFieldTooLarge instead of approximating;
ramification analysis reports higher-degree parameter factors unresolved,
with an exact all-singular divisibility certificate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from operator import mul

from .elliptic import (
    INFINITY,
    EllipticCurve,
    InfiniteOrder,
    InfinityBranch,
    Point,
    QuarticModel,
    _add_unchecked,
    _mul_unchecked,
    ec_add,
    ec_mul,
    ec_neg,
    quartic_to_weierstrass,
    smallest_order,
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
    divide_out_roots,
    enumerate_rationals,
    is_square,
    poly_gcd,
    quadratic_field,
    rat_sqrt,
    rational_roots,
    squarefree_decompose,
)
from .exactmath.numfield import NumField, NumFieldElement

Rat = Fraction


def _as_ratfn(x) -> RatFn:
    if isinstance(x, RatFn):
        return x
    return RatFn(x)


@dataclass(frozen=True)
class FibrationModel:
    """Generic fiber y^2 = x^3 + a(t)x + b(t) over Q(t)."""

    a: RatFn
    b: RatFn

    def __post_init__(self):
        object.__setattr__(self, "a", _as_ratfn(self.a))
        object.__setattr__(self, "b", _as_ratfn(self.b))
        disc = self.discriminant
        if disc.is_zero:
            raise DomainError("fibration has identically zero discriminant")

    @property
    def discriminant(self) -> RatFn:
        a, b = self.a, self.b
        return -16 * (4 * a * a * a + 27 * b * b)

    @property
    def c4(self) -> RatFn:
        return -48 * self.a

    def singular_parameters(self) -> list[Rat]:
        """Rational parameters where the fiber is singular or undefined."""
        found = set()
        disc = self.discriminant
        for r, _ in rational_roots(disc.num):
            found.add(r)
        for fn in (self.a, self.b):
            for r, _ in rational_roots(fn.den):
                found.add(r)
        return sorted(found)


def specialize(model: FibrationModel, b: Rat) -> EllipticCurve:
    """The fiber curve at t = b; PoleAtParameter at a pole of a or b,
    SingularFiberSkip when the fiber is singular."""
    if model.a.den(b) == 0 or model.b.den(b) == 0:
        raise PoleAtParameter(f"coefficient pole at t = {b}")
    try:
        return EllipticCurve(model.a(b), model.b(b))
    except DomainError:
        raise SingularFiberSkip(f"fiber at t = {b} is singular") from None


def _order_at(fn: RatFn, b: Rat) -> int:
    if fn.is_zero:
        raise ZeroDivisionError("order of the zero function")
    num_found, _rest = divide_out_roots(fn.num, [b])
    den_found, _rest = divide_out_roots(fn.den, [b])
    return sum(k for _r, k in num_found) - sum(k for _r, k in den_found)


@dataclass(frozen=True)
class FiberType:
    ord_delta: int
    ord_c4: int | None  # None encodes c4 identically zero
    label: str
    irreducible: bool | None


def fiber_type(model: FibrationModel, b: Rat) -> FiberType:
    """Minimal I0/I1/II classifier; anything else is Other with
    irreducibility left undecided."""
    if model.a.den(b) == 0 or model.b.den(b) == 0:
        raise PoleAtParameter(f"coefficient pole at t = {b}")
    ord_delta = _order_at(model.discriminant, b)
    c4 = model.c4
    ord_c4 = None if c4.is_zero else _order_at(c4, b)
    if ord_delta == 0:
        return FiberType(0, ord_c4, "I0", True)
    if ord_delta == 1 and ord_c4 == 0:
        return FiberType(1, ord_c4, "I1", True)
    if ord_delta == 2 and (ord_c4 is None or ord_c4 >= 1):
        return FiberType(2, ord_c4, "II", True)
    return FiberType(ord_delta, ord_c4, "Other", None)


# -- evaluation and roots over Q and quadratic fields --


def _eval_ratfn(fn: RatFn, s):
    """fn at s, over Q or a number field; s = None means s = infinity.

    Returns None at a pole. A constant fn evaluates to a Fraction even at a
    number-field s."""
    if s is None:
        n, d = fn.num.degree, fn.den.degree
        if n > d:
            return None
        return fn.num.lead / fn.den.lead if n == d else Fraction(0)
    den = fn.den(s)
    if not den:
        return None
    return fn.num(s) / den


def _eval_point(x_fn: RatFn, y_fn: RatFn, s) -> Point:
    """The point (x(s), y(s)), or INFINITY at a pole of either coordinate."""
    xv = _eval_ratfn(x_fn, s)
    yv = _eval_ratfn(y_fn, s)
    return INFINITY if xv is None or yv is None else Point(xv, yv)


def _descend_point(p: Point) -> Point:
    """p over Q when its number-field coordinates are both rational."""
    x, y = p.x, p.y
    if isinstance(x, NumFieldElement) and x.is_rational and y.is_rational:
        return Point(x.as_fraction(), y.as_fraction())
    return p


def small_field_roots(p: Poly, name: str):
    """Roots of a nonzero p over Q and quadratic fields.

    Returns (roots, unresolved). roots lists (root, multiplicity) pairs: the
    rational roots in ascending order, then the conjugate roots of each
    irreducible quadratic squarefree part, in a new field whose generator is
    named `name`. unresolved lists the monic squarefree parts left over,
    whose roots need a larger field. For p over a quadratic field only roots
    inside that same field are produced.

    Over Q, rational_roots runs once. A p of degree <= 3 goes to it whole:
    once its rational roots are divided out, what is left has degree <= 3
    and no rational root, so it is irreducible (and squarefree). A p of
    degree >= 4 is decomposed once, rational_roots runs on the product of
    its squarefree factors, and each factor has its roots divided out; what
    is left of it keeps that factor's multiplicity.
    """
    field = next((c.field for c in p.coeffs if isinstance(c, NumFieldElement)), None)
    quadratic, unresolved = [], []
    if field is None:
        factors = squarefree_decompose(p) if p.degree >= 4 else [(p, 1)]
        candidates = [r for r, _m in rational_roots(reduce(mul, (f for f, _m in factors)))]
        rational = []
        for factor, mult in factors:
            found, rest = divide_out_roots(factor, candidates)
            rational += [(r, k * mult) for r, k in found]
            if rest.degree == 2:
                _K, root, conj = quadratic_field(rest, name)
                quadratic += [(root, mult), (conj, mult)]
            elif rest.degree > 0:
                unresolved.append(rest)
        rational.sort(key=lambda rm: rm[0])
        return rational + quadratic, unresolved
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


def _square_roots(value: Rat):
    """(field, [(w, multiplicity)]) for the square roots w of a rational
    value: a double root 0, a rational pair, or a conjugate pair in Q(w)."""
    if value == 0:
        return None, [(Fraction(0), 2)]
    if is_square(value):
        w = rat_sqrt(value)
        return None, [(w, 1), (-w, 1)]
    K = NumField(Poly([-value, Fraction(0), Fraction(1)]), "w")
    return K, [(K.gen, 1), (-K.gen, 1)]


# -- ramification reports --


@dataclass(frozen=True)
class RamificationPoint:
    b: object  # Rat or NumFieldElement
    point: Point
    salient: bool


@dataclass(frozen=True)
class UnresolvedRamification:
    """A parameter factor of degree > 2; all_singular certifies that every
    root of the factor is a singular-fiber parameter."""

    factor: Poly
    all_singular: bool


@dataclass(frozen=True)
class RamificationReport:
    """Ramification of a multisection's projection to the t-line, resolved
    over degree <= 2 parameter fields; salient means the fiber there is smooth."""

    points: tuple
    unresolved: tuple = ()


def _delta_nonzero_at(model: FibrationModel, b) -> bool:
    disc = model.discriminant
    den = disc.den(b)
    if not den:
        return False
    return bool(disc.num(b))


def _all_roots_singular(model: FibrationModel, factor: Poly, through=None) -> bool:
    """Every root of factor, monic and squarefree, is a zero of the
    discriminant numerator, or of through when given (exactly).

    factor is squarefree, so that holds exactly when factor divides the
    target, that is when gcd(factor, target) has the degree of factor. The
    target is never zero: FibrationModel rejects a zero discriminant, and
    through is its numerator pulled back along a nonconstant t(s)."""
    disc = model.discriminant
    target = disc.num if through is None else through
    return poly_gcd(factor, target).degree == factor.degree


def _branch_report(model, branch_poly: Poly, name: str, locate, through=None):
    """Ramification report over the roots of branch_poly in degree <= 2
    fields; locate(root) gives the fiber parameter and the point there."""
    roots, unresolved = small_field_roots(branch_poly, name)
    points = []
    for root, _mult in roots:
        b, pt = locate(root)
        points.append(RamificationPoint(b, pt, b is not None and _delta_nonzero_at(model, b)))
    return RamificationReport(
        tuple(points),
        tuple(UnresolvedRamification(f, _all_roots_singular(model, f, through)) for f in unresolved),
    )


# -- multisections --


@dataclass(frozen=True)
class ZeroSection:
    @property
    def degree(self) -> int:
        return 1

    def points(self, model: FibrationModel, height_bound: int):
        return [(b, INFINITY) for b in enumerate_rationals(height_bound)]

    def cycle(self, fiber: EllipticCurve, b: Rat):
        return [(INFINITY, 1)]

    def ramification(self, model: FibrationModel) -> RamificationReport:
        return RamificationReport(points=())


@dataclass(frozen=True)
class ConstantX:
    c: Rat

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
        n0, n1 = n.coefficient(0), n.coefficient(1)
        d0, d1 = d.coefficient(0), d.coefficient(1)
        out = []
        for y in enumerate_rationals(height_bound):
            v = y * y
            # solve n(t) - v d(t) = 0
            lead = n1 - v * d1
            if lead:
                out.append(((v * d0 - n0) / lead, Point(self.c, y)))
        return out

    def cycle(self, fiber: EllipticCurve, b: Rat):
        K, roots = _square_roots(self.c**3 + fiber.a * self.c + fiber.b)
        x = self.c if K is None else K.embed(self.c)
        return [(Point(x, w), mult) for w, mult in roots]

    def ramification(self, model: FibrationModel) -> RamificationReport:
        h = self._rhs(model)
        if h.is_zero:
            raise DomainError("constant-x multisection lies in the singular locus")

        def locate(b):
            zero = b * 0  # zero in the field of b
            return b, Point(zero + self.c, zero)

        return _branch_report(model, h.num, "b", locate)


@dataclass(frozen=True)
class Parametrized:
    """Curve s -> (t(s), x(s), y(s)) with y^2 = x^3 + a(t)x + b(t) identically."""

    t: RatFn
    x: RatFn
    y: RatFn

    @property
    def degree(self) -> int:
        return max(self.t.num.degree, self.t.den.degree)

    def points(self, model: FibrationModel, height_bound: int):
        return [
            (self.t(s), _eval_point(self.x, self.y, s))
            for s in enumerate_rationals(height_bound)
            if self.t.den(s) != 0
        ]

    def cycle(self, fiber: EllipticCurve, b: Rat):
        solver = self.t.num - b * self.t.den
        support = []
        drop = self.degree - solver.degree
        if drop > 0:
            # the missing preimages sit at s = infinity
            support.append((_eval_point(self.x, self.y, None), drop))
        roots, unresolved = small_field_roots(solver, "s")
        if unresolved:
            factor = unresolved[0]
            raise TraceFieldTooLarge(
                f"fiber points at t = {b} need a degree-{factor.degree} factor {factor}"
            )
        support += [(_descend_point(_eval_point(self.x, self.y, s)), mult) for s, mult in roots]
        return support

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
            tv = _eval_ratfn(self.t, s)
            if isinstance(tv, NumFieldElement) and tv.is_rational:
                tv = tv.as_fraction()
            return tv, _descend_point(_eval_point(self.x, self.y, s))

        return _branch_report(model, crit, "s", locate, through=disc_pullback)


@dataclass(frozen=True)
class GraphOnQuartic:
    """Graph z = p(t) on a quartic-model fibration w^2 = sum_i f_i(t) z^i.

    fiber_coeffs lists (f_0, ..., f_4) with f_4 a nonzero square constant;
    sign picks the branch at infinity used for the Weierstrass conversion.
    generator optionally names a point (t0, w0) on the normalized covering
    curve w~^2 = q(t), where G = F(t, p(t)) = q * r^2 with q squarefree; it is
    used by enumeration when that curve is elliptic.
    """

    p: Poly
    fiber_coeffs: tuple
    sign: int = 1
    generator: tuple | None = None

    def __post_init__(self):
        object.__setattr__(self, "fiber_coeffs", tuple(Poly(c) if not isinstance(c, Poly) else c for c in self.fiber_coeffs))
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

    def points(self, model: FibrationModel, height_bound: int):
        """Multiples [+-k]g, k <= height_bound, of the generator g on the
        covering curve, lifted to the surface."""
        if self.generator is None:
            raise NoGeneratorSupplied(
                "enumerating a graph multisection needs a generator on its covering curve"
            )
        # G = q * r^2 with q squarefree; points of the normalized covering
        # curve w~^2 = q(t) lift to the surface via w = w~ * r(t)
        q, r = odd_square_split(graph_cover_poly(self))
        if q.degree != 4:
            raise UnsupportedRepresentation(
                "covering curve enumeration needs a degree-4 squarefree cover"
            )
        t0, w0 = self.generator
        if w0 * w0 != q(t0):
            raise DomainError(f"generator ({t0}, {w0}) is not on the covering curve")
        cover = QuarticModel(tuple(q.coefficient(i) for i in range(5)), InfinityBranch(1))
        curve, fwd, inv = quartic_to_weierstrass(cover)
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
                _fiber, chart, _inv = fiber_chart(self.fiber_coeffs, b, self.sign)
                out.append((b, chart(self.p(b), wk * r(b))))
        return out

    def cycle(self, fiber: EllipticCurve, b: Rat):
        _K, roots = _square_roots(graph_cover_poly(self)(b))
        chart_curve, fwd, _inv = fiber_chart(self.fiber_coeffs, b, self.sign)
        if chart_curve != fiber:
            raise DomainError("graph multisection is attached to a different fibration")
        z0 = self.p(b)
        return [(fwd(z0, w), mult) for w, mult in roots]

    def ramification(self, model: FibrationModel) -> RamificationReport:
        g = graph_cover_poly(self)
        if g.is_zero:
            raise DomainError("graph multisection lies on the branch locus")

        def locate(b):
            _curve, fwd, _inv = fiber_chart(self.fiber_coeffs, b, self.sign)
            return b, fwd(self.p(b), b * 0)

        return _branch_report(model, poly_gcd(g, g.derivative()), "b", locate)


@dataclass(frozen=True)
class SplitList:
    """Finitely many sections (x_i(t), y_i(t))."""

    sections: tuple  # of (RatFn, RatFn) pairs

    def __post_init__(self):
        object.__setattr__(
            self,
            "sections",
            tuple((_as_ratfn(x), _as_ratfn(y)) for x, y in self.sections),
        )

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
        return [(_eval_point(x_fn, y_fn, b), 1) for x_fn, y_fn in self.sections]

    def ramification(self, model: FibrationModel) -> RamificationReport:
        return RamificationReport(points=())


Multisection = ZeroSection | ConstantX | Parametrized | GraphOnQuartic | SplitList


@dataclass(frozen=True)
class ZeroCycle:
    b: Rat
    support: tuple  # of (Point, multiplicity)

    @property
    def total_degree(self) -> int:
        return sum(m for _, m in self.support)


@dataclass(frozen=True)
class TracePoint:
    b: Rat
    value: Point


def quartic_on_graph(coeffs, p: Poly) -> Poly:
    """F(t, p(t)) for F(t, z) = sum_i coeffs[i](t) z^i, by Horner in z."""
    total = Poly()
    for c in reversed(coeffs):
        total = total * p + c
    return total


def graph_cover_poly(m: GraphOnQuartic) -> Poly:
    """G(t) = F(t, p(t)): the polynomial whose square roots give the fiber
    points of the graph multisection."""
    return quartic_on_graph(m.fiber_coeffs, m.p)


def fiber_chart(coeffs, t0, sign: int = 1):
    """Weierstrass conversion (curve, fwd, inv) of the fiber w^2 = F(t0, z)
    of F(t, z) = sum_i coeffs[i](t) z^i, marked at its branch at z = infinity.

    fwd maps quartic points (z, w) onto the Weierstrass fiber, inv goes back;
    the marked branch is the fiber's origin."""
    quartic = QuarticModel(tuple(c(t0) for c in coeffs), InfinityBranch(sign))
    return quartic_to_weierstrass(quartic)


def _check_support(curve: EllipticCurve, support) -> None:
    for pt, _mult in support:
        if not curve.contains(pt):
            raise DomainError(f"cycle point {pt} is off the fiber")


def _pair_conjugates(support):
    """(rational, pairs) for a cycle's support, or None when it is not
    Galois-stable.

    rational lists the points over Q with their multiplicities; a point over
    a quadratic field whose coordinates are both rational is listed here over
    Q. pairs lists one point P of each conjugate pair {P, conj(P)} with the
    multiplicity the two must share. One pass over the support keeps, for
    each pair met so far, the multiplicity of P minus that of conj(P); the
    support is Galois-stable when every difference ends at zero."""
    rational, pending = [], []  # pending entries: [key, point, multiplicity, difference]
    for pt, mult in support:
        if not isinstance(pt.x, NumFieldElement):
            rational.append((pt, mult))
            continue
        yc, xc = pt.y.coeffs, pt.x.coeffs
        if not (xc[1] or yc[1]):
            rational.append((Point(xc[0], yc[0]), mult))
            continue
        field = pt.x.field
        key = (field, xc, yc)
        conj = (field, pt.x.conjugate().coeffs, pt.y.conjugate().coeffs)
        for entry in pending:
            if entry[0] == conj:
                entry[3] -= mult
                break
            if entry[0] == key:
                entry[2] += mult
                entry[3] += mult
                break
        else:
            pending.append([key, pt, mult, mult])
    if any(entry[3] for entry in pending):
        return None
    return rational, [(pt, mult) for _key, pt, mult, _diff in pending]


def _pair_sum(p: Point) -> Point:
    """P + conj(P) over Q for P = (ax + bx*g, ay + by*g) on a curve over Q,
    with g^2 + p1*g + p0 = 0.

    The chord through P and conj(P) has slope l = by/bx; its third point is
    rational, x3 = l^2 - (2ax - bx*p1) and y3 = l*(ax - x3) - ay. When
    bx = 0 and by != 0, conj(P) = -P on the curve and the sum is the origin.
    This is Cantor's reduction of a degree-2 divisor (D. G. Cantor, Math.
    Comp. 48, 1987)."""
    (ax, bx), (ay, by) = p.x.coeffs, p.y.coeffs
    if not bx:
        return INFINITY
    slope = by / bx
    x3 = slope * slope - ax - p.x.conjugate().coeffs[0]
    return Point(x3, slope * (ax - x3) - ay)


def trace_cycle(
    model: FibrationModel, m: Multisection, b: Rat, *, fiber: EllipticCurve | None = None
) -> tuple[ZeroCycle, TracePoint]:
    """The fiber zero-cycle of the multisection at t = b and its group sum.

    The trace is summed over Q: the rational points with their
    multiplicities, and each conjugate pair by its chord (_pair_sum). The
    fiber is defined over Q, so conjugation maps its points to its points,
    and one point of each pair is checked on it.

    fiber, when given, is the smooth fiber at b that the caller already
    built; otherwise it is specialized here."""
    if fiber is None:
        fiber = specialize(model, b)
    support = m.cycle(fiber, b)
    split = _pair_conjugates(support)
    if split is None:
        raise DomainError(f"cycle at t = {b} is not Galois-stable")
    rational, pairs = split
    _check_support(fiber, rational + pairs)
    cycle = ZeroCycle(b, tuple(support))
    if cycle.total_degree != m.degree:
        raise DomainError(
            f"cycle at t = {b} has degree {cycle.total_degree}, expected {m.degree}"
        )
    trace = INFINITY
    for pt, mult in rational + [(_pair_sum(pt), mult) for pt, mult in pairs]:
        trace = _add_unchecked(fiber, trace, _mul_unchecked(fiber, mult, pt))
    return cycle, TracePoint(b, trace)


def tau_map(
    model: FibrationModel, m: Multisection, p: Point, b: Rat, *, fiber: EllipticCurve | None = None
) -> Point:
    """tau(p) = [d]p - trace of the fiber cycle, on the smooth fiber at b.

    fiber, when given, is the smooth fiber at b that the caller already
    built; otherwise it is specialized here."""
    if fiber is None:
        fiber = specialize(model, b)
    _cycle, trace = trace_cycle(model, m, b, fiber=fiber)
    d = m.degree
    return ec_add(fiber, ec_mul(fiber, d, p), ec_neg(trace.value))


# -- order probing --


@dataclass(frozen=True)
class Order:
    """Sample-level evidence: every pairwise cycle difference is killed by m."""

    m: int


@dataclass(frozen=True)
class NoOrderUpTo:
    """Proof: no m <= m_max kills every pairwise difference on the sampled
    fibers -- one has no killer <= m_max, or the killers' lcm exceeds m_max
    (the defining property quantifies over all fibers)."""

    m_max: int


def order_probe(model: FibrationModel, m: Multisection, fiber_samples, m_max: int):
    """Smallest m killing all pairwise cycle differences over the samples
    (evidence), or a proof that no order <= m_max works."""
    samples = list(fiber_samples)
    if not samples:
        raise EmptySampleSet("order probe needs at least one fiber sample")
    overall = 1
    for b in samples:
        fiber = specialize(model, b)
        cycle, _trace = trace_cycle(model, m, b, fiber=fiber)
        pts = [pt for pt, _mult in cycle.support]
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                diff = _difference_on_fiber(fiber, pts[i], pts[j])
                if diff is None:
                    raise TraceFieldTooLarge(
                        f"difference at t = {b} mixes incompatible fields"
                    )
                killer = smallest_order(fiber, diff, m_max)
                if killer is None:
                    return NoOrderUpTo(m_max)
                overall = math.lcm(overall, killer)
    if overall > m_max:
        return NoOrderUpTo(m_max)
    return Order(overall)


def _difference_on_fiber(curve: EllipticCurve, p: Point, q: Point) -> Point | None:
    """p - q on the fiber over Q, or None when p and q lie over two
    different quadratic fields.

    The difference may lie over a quadratic field K while the curve stays
    over Q, so it goes only to smallest_order. torsion_certify reads its
    uniform bound from the curve's coefficients and would apply the bound
    for Q to a point over K."""
    if len({pt.x.field for pt in (p, q) if isinstance(pt.x, NumFieldElement)}) > 1:
        return None
    return ec_add(curve, p, ec_neg(q))


# -- section differences --


@dataclass(frozen=True)
class NonTorsion:
    """Proof: some smooth specialization of s1 - s2 has infinite order."""

    witness: Rat


@dataclass(frozen=True)
class TorsionEvidence:
    order: int


def _section_point(section, b: Rat) -> Point:
    if isinstance(section, ZeroSection):
        return INFINITY
    x_fn, y_fn = section
    return _eval_point(_as_ratfn(x_fn), _as_ratfn(y_fn), b)


def section_difference_order(model: FibrationModel, s1, s2, samples):
    """NonTorsion proof or per-sample torsion evidence for s1 - s2."""
    samples = list(samples)
    if not samples:
        raise EmptySampleSet("section difference probe needs samples")
    orders = []
    for b in samples:
        fiber = specialize(model, b)
        p1 = _section_point(s1, b)
        p2 = _section_point(s2, b)
        diff = ec_add(fiber, p1, ec_neg(p2))
        res = torsion_certify(fiber, diff)
        if isinstance(res, InfiniteOrder):
            return NonTorsion(witness=b)
        orders.append(res.order)
    return TorsionEvidence(math.lcm(*orders))
