"""Quartic sections of the quadratic cone and the elliptic surfaces they cut out.

The cone z0*z1 = z2^2 in P^3 is ruled by lines over P^1.  A quartic form B
meets the cone in a degree-8 curve R, and the double cover of the cone
branched along R is an elliptic surface: fibers are the double covers of the
ruling lines.  Everything here works in the affine chart
(z0, z1, z2, z3) = (1, t^2, t, z), so R becomes F(t, z) = B(1, t^2, t, z) = 0
with deg_z F = 4; the swapped chart (u^2, 1, u, z) covers t = infinity.

Conic sections z = c(t) = c0 + c1*t + c2*t^2 of the ruling are Polys; they
pull back to double covers w^2 = F(t, c(t)) of the base, quartic_on_graph
being the one evaluation of F(t, c(t)).  Sections that are bitangent to R
give covers of genus 1 -- elliptic multisections of the surface -- and this
module finds them by eliminating the tangency conditions exactly.
"""

from __future__ import annotations

from fractions import Fraction

from .elliptic import Point, Value, quartic_to_weierstrass
from .errors import (
    DegenerateDiscriminant,
    DomainError,
    LeadingCoefficientNotSquare,
    NoCandidates,
    NonReducedRamification,
    NotInR0,
    NotOnR,
    VertexOnQuartic,
    ZeroInput,
    ZeroIntersection,
)
from .exactmath import (
    Poly,
    RatFn,
    is_square,
    poly_gcd,
    quadratic_field,  # unused here; bench/tracing.py wraps this name
    rational_roots,  # unused here; bench/tracing.py wraps this name
    resultant_bivariate,
    resultant_is_zero,
    squarefree_decompose,  # unused here; bench/tracing.py wraps this name
    squarefree_part,
)
from .exactmath.poly import _as_coeff, taylor_shift, transposed
from .fibration import (
    FibrationModel,
    odd_square_split,
    quartic_on_graph,
    small_field_roots,
)


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------


class ConeQuartic(Value):
    """Homogeneous quartic form in z0..z3, keyed by exponent tuples.

    Coefficients are a mapping from (e0, e1, e2, e3) with e0+e1+e2+e3 = 4 to
    rationals; missing monomials are zero.  Stored canonically as a tuple of
    (exponents, value) pairs in ascending lexicographic exponent order.
    """

    __slots__ = _fields = ("coeffs",)

    def __init__(self, coeffs):
        clean = {}
        for key, value in dict(coeffs).items():
            e = tuple(int(x) for x in key)
            if len(e) != 4 or min(e) < 0 or sum(e) != 4:
                raise DomainError(f"{key!r} is not a degree-4 monomial exponent")
            v = _as_coeff(value)
            if not isinstance(v, Fraction):
                raise DomainError("cone quartic coefficients must be rational")
            if v:
                clean[e] = v
        self.coeffs = tuple(sorted(clean.items()))

    def evaluate(self, z0, z1, z2, z3):
        total = Fraction(0)
        for (e0, e1, e2, e3), v in self.coeffs:
            total = total + v * z0**e0 * z1**e1 * z2**e2 * z3**e3
        return total


class RamificationData(Value):
    """Branch curve F(t, z) = f0(t) + f1(t) z + ... + f4 z^4 in the chart
    (1, t^2, t, z) of the cone.

    The z^4 coefficient must be a nonzero constant (the quartic misses the
    cone vertex) and deg f_i <= 8 - 2i, which is exactly the degree profile a
    homogeneous quartic restricts to.  The swapped chart at t = infinity is
    the degree-(8 - 2i) coefficient reversal, exposed as coeffs_infinity.

    Each instance keeps the roots of the bitangent searches' parameter
    discriminants (see _parameter_roots), so the searches of one command
    share them; equality and hashing ignore that memo.
    """

    __slots__ = ("coeffs", "_shared_roots")
    _fields = ("coeffs",)

    def __init__(self, coeffs: tuple):
        cs = tuple(coeffs)
        if len(cs) != 5:
            raise DomainError("a branch quartic takes exactly five z-coefficients")
        if cs[4].is_zero:
            raise VertexOnQuartic("the z^4 coefficient vanishes")
        if cs[4].degree > 0:
            raise DomainError("the z^4 coefficient must be constant")
        for i, c in enumerate(cs):
            if c.degree > 8 - 2 * i:
                raise DomainError(f"z^{i} coefficient has degree > {8 - 2 * i}")
        self.coeffs = cs
        self._shared_roots = {}

    @property
    def lead_z(self) -> Fraction:
        return self.coeffs[4].coefficient(0)

    @property
    def even_in_t(self) -> bool:
        """F(-t, z) = F(t, z): no coefficient has an odd power of t."""
        return not any(any(c.coeffs[1::2]) for c in self.coeffs)

    @property
    def coeffs_infinity(self) -> tuple:
        out = []
        for i, c in enumerate(self.coeffs):
            width = 8 - 2 * i + 1
            padded = list(c.coeffs) + [Fraction(0)] * (width - len(c.coeffs))
            out.append(Poly(list(reversed(padded))))
        return tuple(out)

    def z_slice(self, t0) -> Poly:
        """The fiber polynomial F(t0, z) as a quartic in z."""
        return Poly([c(t0) for c in self.coeffs])

    def evaluate(self, t0, z0):
        return self.z_slice(t0)(z0)


class TangentLine:
    """Affine line of section conics tangent to the branch curve at a point
    (t0, z0): the sections base + lam * direction, direction = (t - t0)^2."""

    __slots__ = ("point", "base", "direction")

    def __init__(self, point: tuple, base: Poly, direction: Poly):
        self.point, self.base, self.direction = point, base, direction


class BitangentCandidate(Value):
    """A section tangent to the branch curve at two distinct points."""

    __slots__ = _fields = ("section", "parameter", "second_tangencies")

    def __init__(self, section: Poly, parameter, second_tangencies: tuple):
        self.section = section  # z = c0 + c1*t + c2*t^2
        self.parameter = parameter  # position on the tangent line
        self.second_tangencies = second_tangencies  # (t1, z1) pairs over Q or a quadratic field


class BitangentReport(Value):
    __slots__ = _fields = ("candidates", "higher_degree_parameters")

    def __init__(self, candidates: tuple, higher_degree_parameters: int):
        self.candidates = candidates
        self.higher_degree_parameters = higher_degree_parameters  # line parameters outside degree <= 2 fields

    def __iter__(self):
        return iter(self.candidates)

    def __len__(self) -> int:
        return len(self.candidates)


class Tangency:
    """Double point of a section's intersection divisor with the branch curve;
    salient means the surface fiber over it is smooth."""

    __slots__ = ("t", "z", "salient")

    def __init__(self, t, z, salient: bool):
        self.t, self.z, self.salient = t, z, salient


class SectionCover:
    """Normalized double cover w^2 = odd_part(t) cut out by a section.

    The raw cover is w^2 = G(t) with G = odd_part * square_part^2; genus -1
    marks a cover that splits into two copies of the base.  model is the
    coefficient tuple (q0, ..., q4) of the odd part when it is an admissible
    quartic (degree 4, square leading coefficient), else None.
    """

    __slots__ = ("model", "odd_part", "square_part", "genus", "tangencies", "unresolved")

    def __init__(self, model, odd_part: Poly, square_part: Poly, genus: int, tangencies: tuple, unresolved: tuple):
        self.model, self.odd_part, self.square_part = model, odd_part, square_part
        self.genus, self.tangencies, self.unresolved = genus, tangencies, unresolved


class K3Model:
    """Weierstrass model of the double cover of the cone.

    fiber_coeffs are the z-coefficients of the fiber quartic after the
    recorded twist: twist is 1 when the model is over Q as given, otherwise
    the factor multiplied into w^2 to make the leading coefficient a square.
    e2 is the image of the second branch over z = infinity; the first branch
    is the zero section.
    """

    __slots__ = ("fibration", "e2", "fiber_coeffs", "twist")

    def __init__(self, fibration: FibrationModel, e2: Point, fiber_coeffs: tuple, twist: Fraction):
        self.fibration, self.e2, self.fiber_coeffs, self.twist = fibration, e2, fiber_coeffs, twist


# ---------------------------------------------------------------------------
# restriction to the cone
# ---------------------------------------------------------------------------


def restrict_quartic_to_cone(quartic: ConeQuartic) -> RamificationData:
    """Branch curve data F(t, z) = B(1, t^2, t, z) of a cone quartic.

    Raises VertexOnQuartic when B(0,0,0,1) = 0 and NonReducedRamification
    when the restriction has a repeated component: Res_z(F, F_z) = 0, which
    resultant_is_zero decides from its value at t = 2^k when that is
    nonzero, reading no coefficients.
    """
    rows: list[dict[int, Fraction]] = [{} for _ in range(5)]
    for (e0, e1, e2, e3), v in quartic.coeffs:
        power = 2 * e1 + e2
        rows[e3][power] = rows[e3].get(power, Fraction(0)) + v
    coeffs = []
    for row in rows:
        width = max(row) + 1 if row else 0
        dense = [row.get(k, Fraction(0)) for k in range(width)]
        coeffs.append(Poly(dense))
    if coeffs[4].is_zero:
        raise VertexOnQuartic("the form vanishes at the cone vertex (0:0:0:1)")
    data = RamificationData(tuple(coeffs))
    if resultant_is_zero(coeffs, [i * coeffs[i] for i in range(1, 5)]):
        raise NonReducedRamification("the restricted curve has a repeated component")
    return data


# ---------------------------------------------------------------------------
# sections and tangency
# ---------------------------------------------------------------------------


def tangent_line(data: RamificationData, point) -> TangentLine:
    """The one-parameter family of sections tangent to the branch curve at a
    smooth, non-vertical point.

    The two linear conditions p(t0) = z0 and p'(t0) = -F_t/F_z cut the
    3-space of conic sections down to an affine line.
    """
    t0, z0 = _as_coeff(point[0]), _as_coeff(point[1])
    slice_at = data.z_slice(t0)
    if slice_at(z0) != 0:
        raise NotOnR(f"({t0}, {z0}) is not on the branch curve")
    fz = slice_at.derivative()(z0)
    if not fz:
        raise NotInR0(f"the branch curve is vertical or singular at ({t0}, {z0})")
    ft = Poly([c.derivative()(t0) for c in data.coeffs])(z0)
    slope = -ft / fz
    return TangentLine((t0, z0), Poly([z0 - slope * t0, slope]), Poly([t0 * t0, -2 * t0, 1]))


def _verify_candidate(data: RamificationData, line: TangentLine, lam):
    """Independent double-root check: gcd(G, G') must witness two distinct
    tangency points.  Returns a verified candidate or None."""
    s = line.base + line.direction * lam
    g = quartic_on_graph(data.coeffs, s)
    if g.is_zero:
        return None
    doubled = poly_gcd(g, g.derivative())
    if doubled.degree < 2:
        return None
    distinct = squarefree_part(doubled)
    if distinct.degree < 2:
        return None
    t0 = line.point[0]
    if distinct(t0):
        return None
    others = distinct.exact_div(Poly([-t0, Fraction(1)]))
    roots, _unresolved = small_field_roots(others, "s")
    second = tuple((t1, s(t1)) for t1, _mult in roots)
    return BitangentCandidate(s, lam, second)


def _through_parameter(line: TangentLine, node):
    tr, zr = _as_coeff(node[0]), _as_coeff(node[1])
    dir_val, base_val = line.direction(tr), line.base(tr)
    if dir_val:
        return (zr - base_val) / dir_val
    if base_val == zr:
        return None  # the whole line passes through the node
    raise NoCandidates(f"no section on the tangent line passes through ({tr}, {zr})")


def _parameter_roots(data: RamificationData, line: TangentLine):
    """The degree <= 2 roots of the tangent line's parameter discriminant,
    and the number of its roots in larger fields.

    The pencil G(lam, t) = F(t, base + lam * direction) is quartic_on_graph
    over Q[t][lam], each f_i a constant in lam. The reduced pencil h(lam, t)
    is G over direction = (t - t0)^2, and its discriminant in t is Res_t(h, h_t).
    Both are formed in tau = t - t0, where Res_tau = Res_t (a shift keeps
    root differences and leads): the direction is tau^2, h drops G's two
    lowest tau-coefficients, and h's lam^k coefficient carries tau^(2k - 2),
    so the columns are sparser than in t and their resultant is faster (on
    16 cone-bench pencils, 0.68 against 0.75 ms; 2-core Xeon, Python 3.11).
    bitangent_sections keys the result by (t0^2, z0) when F is even in t,
    so the base points (t0, z0) and (-t0, z0) share one discriminant:
    F_t is odd in t, so the slope at (-t0, z0) is minus the slope at
    (t0, z0), and the line there at lam is the mirror s(-t) of the line at
    (t0, z0) at the same lam. Its pencil is G(lam, -t) = F(-t, s(-t)), its
    reduced pencil h(lam, -t), whose t-derivative is -h_t(lam, -t). For p
    of degree n and q of degree m, Res(p(-t), q(-t)) = (-1)^(nm) Res(p, q),
    and negating q multiplies the resultant by (-1)^n. With m = n - 1 the
    mirrored discriminant is (-1)^n Res_t(h, h_t): the same roots, and
    small_field_roots, which works on the primitive polynomial, splits it
    the same way. Otherwise the key is (t0, z0), so only a repeated point
    shares.
    """
    t0 = line.point[0]
    lam_line = Poly([taylor_shift(line.base, t0), taylor_shift(line.direction, t0)])
    pencil = quartic_on_graph([Poly([taylor_shift(f, t0)]) for f in data.coeffs], lam_line).coeffs
    columns = transposed(pencil, 2)
    if len(columns) < 2:
        raise DegenerateDiscriminant("the reduced pencil is constant along the base")
    derivative_columns = [k * columns[k] for k in range(1, len(columns))]
    try:
        disc = resultant_bivariate(columns, derivative_columns)
    except ZeroInput:
        raise DegenerateDiscriminant("the reduced pencil degenerates identically") from None
    if disc.is_zero:
        raise DegenerateDiscriminant("every section on the tangent line is doubly tangent")
    roots, unresolved = small_field_roots(disc, "l")
    return roots, sum(f.degree for f in unresolved)


def bitangent_sections(data: RamificationData, point, through=None) -> BitangentReport:
    """Sections tangent to the branch curve at `point` and at a second point.

    Parametrizes the tangent line at `point`, divides the base tangency out
    of the intersection divisor, and extracts the parameters where the
    quotient acquires a double root from its discriminant.  Rational and
    quadratic parameters are constructed; higher-degree ones are counted.
    Every returned candidate passes the gcd(G, G') double-root verification.
    With `through`, the extra interpolation condition replaces the
    discriminant search and pins down a single candidate.
    """
    line = tangent_line(data, point)
    t0, z0 = line.point
    if through is not None:
        lam = _through_parameter(line, through)
        if lam is not None:
            cand = _verify_candidate(data, line, lam)
            if cand is None:
                raise NoCandidates(
                    f"the section through ({through[0]}, {through[1]}) is not bitangent"
                )
            return BitangentReport((cand,), 0)
    key = (t0 * t0 if data.even_in_t else t0, z0)
    shared = data._shared_roots
    if key not in shared:
        shared[key] = _parameter_roots(data, line)
    roots, higher = shared[key]
    candidates = []
    for lam, _mult in roots:
        cand = _verify_candidate(data, line, lam)
        if cand is not None:
            candidates.append(cand)
    if not candidates:
        raise NoCandidates(
            f"no verified bitangent parameters in degree <= 2 fields "
            f"({higher} roots in larger fields)"
        )
    return BitangentReport(tuple(candidates), higher)


# ---------------------------------------------------------------------------
# multisections and the Weierstrass model
# ---------------------------------------------------------------------------


def multisection_from_section(data: RamificationData, s: Poly) -> SectionCover:
    """The double cover w^2 = G_s(t) the section z = s(t) cuts out, normalized.

    Square factors of G_s are stripped (w = w~ * square_part lifts points
    back); the genus is ceil(k/2) - 1 for k branch points, counting the one
    at t = infinity when deg G_s is odd.  Stripped double roots are the
    tangency points of the section, flagged salient when the surface fiber
    over them is smooth: when the fiber quartic F(t0, z) is squarefree.  As
    f4 is a nonzero constant, that is Res_z(F, F_z)(t0) != 0, and the gcd
    works over the quadratic field of t0 as well.
    """
    g = quartic_on_graph(data.coeffs, s)
    if g.is_zero:
        raise ZeroIntersection("the section lies inside the branch curve")
    q, r = odd_square_split(g)
    k = q.degree + (g.degree % 2)
    genus = k // 2 - 1
    roots, unresolved = small_field_roots(r, "c")
    fibers = ((t0, data.z_slice(t0)) for t0, _mult in roots)
    tangencies = tuple(
        Tangency(t0, s(t0), poly_gcd(f, f.derivative()).degree == 0) for t0, f in fibers
    )
    model = None
    if k == 4 and q.degree == 4 and isinstance(q.lead, Fraction) and is_square(q.lead):
        model = tuple(q.coefficient(i) for i in range(5))
    return SectionCover(model, q, r, genus, tangencies, tuple(unresolved))


def k3_weierstrass_model(
    data: RamificationData, allow_quadratic_twist_extension: bool = False
) -> K3Model:
    """Weierstrass fibration of the double cover w^2 = F(t, z) over the t-line.

    The fiber quartics are converted through their branch at z = infinity,
    which needs the constant z^4 coefficient to be a square.  When it is not,
    the opt-in flag multiplies w^2 by that coefficient -- the quadratic twist
    that becomes an isomorphism after adjoining its square root -- and the
    factor is recorded on the model.

    A repeated component of the branch curve is a repeated root of the
    quartic over Q(t). The reduction gives Delta = 16 * disc_z(q) for the
    (twisted) quartic q, and Res_z(F, F_z) = f4 * disc_z(F) with f4 a
    nonzero constant, so the discriminant check of FibrationModel is the
    repeated-component check.

    As f4 is a constant, the reduction runs in Q[t]: it gets f0..f3 as Polys
    and f4 as a Fraction, so sqrt(f4) is rational and every intermediate a
    polynomial. Only a, b and e2 become RatFns, for the model and section.
    """
    lead = data.lead_z
    twist = Fraction(1)
    coeffs = data.coeffs
    if not is_square(lead):
        if not allow_quadratic_twist_extension:
            raise LeadingCoefficientNotSquare(
                f"z^4 coefficient {lead} is not a rational square; "
                "enable the quadratic twist to proceed"
            )
        twist = lead
        coeffs = tuple(twist * c for c in coeffs)
    a, b, _fwd, _inv, e2 = quartic_to_weierstrass((*coeffs[:4], coeffs[4].coefficient(0)))
    try:
        fibration = FibrationModel(RatFn(a), RatFn(b))
    except DomainError:
        raise NonReducedRamification("the branch curve has a repeated component") from None
    return K3Model(fibration, Point(RatFn(e2.x), RatFn(e2.y)), coeffs, twist)
