"""Small number fields Q[x]/(m(x)) for degree 2..4 minimal polynomials.

Elements are residue classes stored as fixed-length Fraction tuples in the
power basis. Irreducibility of the minimal polynomial is certified at
construction: rational-root test for degrees 2 and 3, rational roots plus an
exhaustive integral quadratic-factor search for degree 4 (Gauss's lemma makes
the integral search complete after clearing denominators).

Quadratic fields get a conjugation map and an exact in-field square root,
which is all the geometry layers need for degree <= 2 trace fields.
"""

from __future__ import annotations

import math
from fractions import Fraction

from ..errors import DomainError, NoSquareRoot, ZeroInput
from .poly import Poly, rational_roots
from .rationals import is_square, rat_sqrt


def _divisors(n: int) -> list[int]:
    n = abs(n)
    out = set()
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.update((d, n // d, -d, -(n // d)))
        d += 1
    return sorted(out)


def _has_integral_quadratic_factor(m: Poly) -> bool:
    """Does the monic rational quartic m factor into two rational quadratics?

    Scales to a monic integral model first; any monic rational factorization
    then descends to monic integral factors.
    """
    c = math.lcm(*(coef.denominator for coef in m.coeffs))
    # y = c*x turns m into a monic integral quartic in y
    scaled = [m.coefficient(i) * Fraction(c) ** (4 - i) for i in range(5)]
    A = int(scaled[3])
    B = int(scaled[2])
    C = int(scaled[1])
    D = int(scaled[0])
    for q in _divisors(D):
        s = D // q
        if s != q:
            num = C - A * q
            if num % (s - q) != 0:
                continue
            p = num // (s - q)
            r = A - p
            if q + s + p * r == B:
                return True
        else:
            if A * q != C:
                continue
            disc = A * A - 4 * (B - 2 * q)
            if disc >= 0 and math.isqrt(disc) ** 2 == disc:
                return True
    return False


def _check_irreducible(m: Poly) -> None:
    if rational_roots(m):
        raise DomainError("minimal polynomial has a rational root")
    if m.degree == 4 and _has_integral_quadratic_factor(m):
        raise DomainError("minimal polynomial splits into two quadratics")


class NumField:
    """Number field presented by a monic irreducible polynomial of degree 2..4."""

    __slots__ = ("minimal_polynomial", "name", "_reduction")

    def __init__(self, minimal_polynomial: Poly, name: str = "a"):
        m = minimal_polynomial
        if m.is_zero or m.degree < 2 or m.degree > 4:
            raise DomainError("minimal polynomial degree must be 2, 3, or 4")
        m = m.monic()
        if not all(isinstance(cc, Fraction) for cc in m.coeffs):
            raise DomainError("minimal polynomial must have rational coefficients")
        _check_irreducible(m)
        self.minimal_polynomial = m
        self.name = name
        # power-basis expansions of gen^d .. gen^(2d-2)
        d = m.degree
        rows = []
        cur = [-c for c in m.coeffs[:-1]]  # gen^d
        rows.append(tuple(cur))
        for _ in range(d - 2):
            shifted = [Fraction(0)] + cur[:-1]
            top = cur[-1]
            cur = [shifted[i] + top * rows[0][i] for i in range(d)]
            rows.append(tuple(cur))
        self._reduction = tuple(rows)

    @property
    def degree(self) -> int:
        return self.minimal_polynomial.degree

    def __eq__(self, other):
        return isinstance(other, NumField) and self.minimal_polynomial == other.minimal_polynomial

    def __hash__(self):
        return hash(self.minimal_polynomial)

    def __repr__(self):
        return f"NumField({self.minimal_polynomial!s}, gen={self.name!r})"

    def element(self, coeffs) -> "NumFieldElement":
        cs = [Fraction(c) if isinstance(c, int) else c for c in coeffs]
        d = self.degree
        if len(cs) > d:
            # reduce with the precomputed power table
            base = list(cs[:d]) + [Fraction(0)] * (d - min(d, len(cs)))
            for k, c in enumerate(cs[d:]):
                if c != 0:
                    row = self._reduction[k]
                    base = [base[i] + c * row[i] for i in range(d)]
            cs = base
        else:
            cs = list(cs) + [Fraction(0)] * (d - len(cs))
        return NumFieldElement(self, tuple(cs))

    def embed(self, r) -> "NumFieldElement":
        return self.element([Fraction(r)])

    @property
    def zero(self) -> "NumFieldElement":
        return self.embed(0)

    @property
    def one(self) -> "NumFieldElement":
        return self.embed(1)

    @property
    def gen(self) -> "NumFieldElement":
        return self.element([0, 1])

    def sqrt(self, el: "NumFieldElement") -> "NumFieldElement":
        """Exact square root inside the field; NoSquareRoot when none exists."""
        el = self._coerce(el)
        if el.is_rational:
            r = el.as_fraction()
            if is_square(r):
                return self.embed(rat_sqrt(r))
            if self.degree == 2:
                # maybe r = (v*gen)^2 for rational v
                p1 = self.minimal_polynomial.coefficient(1)
                p0 = self.minimal_polynomial.coefficient(0)
                return self._sqrt_quadratic(r, Fraction(0), p1, p0)
            raise NoSquareRoot(f"{r} has no square root in {self!r}")
        if self.degree != 2:
            raise NoSquareRoot("in-field square roots implemented for quadratic fields only")
        p1 = self.minimal_polynomial.coefficient(1)
        p0 = self.minimal_polynomial.coefficient(0)
        return self._sqrt_quadratic(el.coeffs[0], el.coeffs[1], p1, p0)

    def _sqrt_quadratic(self, A: Fraction, B: Fraction, p1: Fraction, p0: Fraction) -> "NumFieldElement":
        # solve (u + v*gen)^2 = A + B*gen with gen^2 = -p1*gen - p0
        if B == 0:
            if is_square(A):
                return self.embed(rat_sqrt(A))
            denom = p1 * p1 / 4 - p0
            if denom != 0:
                vv = A / denom
                if is_square(vv):
                    v = rat_sqrt(vv)
                    return self.element([p1 * v / 2, v])
            raise NoSquareRoot("no square root in quadratic field")
        lead = p1 * p1 - 4 * p0
        disc = (2 * B * p1 - 4 * A) ** 2 - 4 * lead * B * B
        if not is_square(disc):
            raise NoSquareRoot("no square root in quadratic field")
        s = rat_sqrt(disc)
        for V in ((4 * A - 2 * B * p1 + s) / (2 * lead), (4 * A - 2 * B * p1 - s) / (2 * lead)):
            if V > 0 and is_square(V):
                v = rat_sqrt(V)
                u = B / (2 * v) + p1 * v / 2
                cand = self.element([u, v])
                if cand * cand == self.element([A, B]):
                    return cand
        raise NoSquareRoot("no square root in quadratic field")

    def _coerce(self, x) -> "NumFieldElement":
        if isinstance(x, NumFieldElement):
            if x.field != self:
                raise DomainError("element of a different number field")
            return x
        if isinstance(x, (int, Fraction)):
            return self.embed(x)
        raise TypeError(f"cannot coerce {x!r} into {self!r}")


class NumFieldElement:
    __slots__ = ("field", "coeffs")

    def __init__(self, field: NumField, coeffs: tuple[Fraction, ...]):
        self.field = field
        self.coeffs = coeffs

    # -- predicates --

    @property
    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coeffs[1:])

    def as_fraction(self) -> Fraction:
        if not self.is_rational:
            raise DomainError(f"{self} is not rational")
        return self.coeffs[0]

    def __eq__(self, other):
        if isinstance(other, NumFieldElement):
            return self.field == other.field and self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self.is_rational and self.coeffs[0] == other
        return NotImplemented

    def __hash__(self):
        if self.is_rational:
            return hash(self.coeffs[0])
        return hash((self.field, self.coeffs))

    def __bool__(self):
        return any(c != 0 for c in self.coeffs)

    # -- arithmetic --

    def _binop(self, other):
        return self.field._coerce(other)

    def __add__(self, other):
        o = self._binop(other)
        return NumFieldElement(self.field, tuple(a + b for a, b in zip(self.coeffs, o.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        return NumFieldElement(self.field, tuple(-a for a in self.coeffs))

    def __sub__(self, other):
        return self + (-self._binop(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return NumFieldElement(self.field, tuple(a * other for a in self.coeffs))
        o = self._binop(other)
        d = self.field.degree
        conv = [Fraction(0)] * (2 * d - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(o.coeffs):
                    if b:
                        conv[i + j] += a * b
        return self.field.element(conv)

    __rmul__ = __mul__

    def inverse(self) -> "NumFieldElement":
        if not self:
            raise ZeroInput("inverse of zero field element")
        # extended Euclid of the representative against the minimal polynomial
        a = Poly(self.coeffs)
        m = self.field.minimal_polynomial
        r0, r1 = m, a
        s0, s1 = Poly(), Poly([Fraction(1)])
        while not r1.is_zero:
            q, r = divmod(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, s0 - q * s1
        # r0 = gcd = constant (minimal polynomial is irreducible)
        c = r0.coefficient(0)
        inv_poly = s0 * (1 / c)
        return self.field.element(list(inv_poly.coeffs))

    def __truediv__(self, other):
        o = self._binop(other)
        return self * o.inverse()

    def __rtruediv__(self, other):
        return self._binop(other) * self.inverse()

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        result = self.field.one
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def conjugate(self) -> "NumFieldElement":
        """Galois conjugate; quadratic fields only."""
        if self.field.degree != 2:
            raise DomainError("conjugate implemented for quadratic fields only")
        p1 = self.field.minimal_polynomial.coefficient(1)
        a, b = self.coeffs
        return self.field.element([a - b * p1, -b])

    def __repr__(self):
        return str(self)

    def __str__(self):
        name = self.field.name
        parts = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if k == 0:
                parts.append(str(c))
            else:
                mon = name if k == 1 else f"{name}^{k}"
                if c == 1:
                    parts.append(mon)
                elif c == -1:
                    parts.append(f"-{mon}")
                else:
                    parts.append(f"{c}*{mon}")
        if not parts:
            return "0"
        out = parts[0]
        for term in parts[1:]:
            out += f" - {term[1:]}" if term.startswith("-") else f" + {term}"
        return out


def quadratic_field(f: Poly, name: str = "r") -> tuple[NumField, NumFieldElement, NumFieldElement]:
    """Field defined by a monic irreducible quadratic, with its two roots.

    The generator is one root; the other is its conjugate.
    """
    field = NumField(f.monic(), name=name)
    r1 = field.gen
    return field, r1, r1.conjugate()
