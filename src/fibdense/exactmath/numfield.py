"""Quadratic number fields Q[x]/(x^2 + p1*x + p0).

Elements are pairs (a, b) of Fractions standing for a + b*gen. The minimal
polynomial is irreducible exactly when its discriminant p1^2 - 4*p0 is not a
rational square, which construction checks. Products reduce
gen^2 = -p1*gen - p0 in closed form, an inverse is the conjugate over the
norm, and the field has an exact in-field square root. Fiber points are only
ever built over Q or a quadratic field, so nothing larger is needed.
"""

from __future__ import annotations

from fractions import Fraction

from ..errors import DomainError, NoSquareRoot, ZeroInput
from .poly import Poly
from .rationals import is_square, rat_sqrt


class NumField:
    """Quadratic field presented by a monic irreducible x^2 + p1*x + p0."""

    __slots__ = ("minimal_polynomial", "name", "_p1", "_p0")

    def __init__(self, minimal_polynomial: Poly, name: str = "a"):
        m = minimal_polynomial
        if m.is_zero or m.degree != 2:
            raise DomainError("minimal polynomial must have degree 2")
        m = m.monic()
        if not all(isinstance(cc, Fraction) for cc in m.coeffs):
            raise DomainError("minimal polynomial must have rational coefficients")
        p0, p1 = m.coeffs[0], m.coeffs[1]
        if is_square(p1 * p1 - 4 * p0):
            raise DomainError("minimal polynomial has a rational root")
        self.minimal_polynomial = m
        self.name = name
        self._p1 = p1
        self._p0 = p0

    @property
    def degree(self) -> int:
        return 2

    def __eq__(self, other):
        return isinstance(other, NumField) and self.minimal_polynomial == other.minimal_polynomial

    def __hash__(self):
        return hash(self.minimal_polynomial)

    def __repr__(self):
        return f"NumField({self.minimal_polynomial!s}, gen={self.name!r})"

    def element(self, coeffs) -> "NumFieldElement":
        """a + b*gen from the coefficient list [a, b] (or [a], or [])."""
        cs = [Fraction(c) if isinstance(c, int) else c for c in coeffs]
        if len(cs) > 2:
            raise DomainError("a quadratic field element has at most two coefficients")
        return NumFieldElement(self, tuple(cs + [Fraction(0)] * (2 - len(cs))))

    def embed(self, r) -> "NumFieldElement":
        return self.element([Fraction(r)])

    @property
    def one(self) -> "NumFieldElement":
        return self.embed(1)

    @property
    def gen(self) -> "NumFieldElement":
        return self.element([0, 1])

    def sqrt(self, el: "NumFieldElement") -> "NumFieldElement":
        """Exact square root inside the field; NoSquareRoot when none exists."""
        # solve (u + v*gen)^2 = A + B*gen with gen^2 = -p1*gen - p0
        A, B = self._coerce(el).coeffs
        p1, p0 = self._p1, self._p0
        lead = p1 * p1 - 4 * p0  # nonzero: the minimal polynomial is irreducible
        if B == 0:
            if is_square(A):
                return self.embed(rat_sqrt(A))
            # maybe A = (v*(gen + p1/2))^2 = v^2 * lead/4 for rational v
            vv = 4 * A / lead
            if is_square(vv):
                v = rat_sqrt(vv)
                return self.element([p1 * v / 2, v])
            raise NoSquareRoot("no square root in quadratic field")
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

    def __init__(self, field: NumField, coeffs: tuple[Fraction, Fraction]):
        self.field = field
        self.coeffs = coeffs

    # -- predicates --

    @property
    def is_rational(self) -> bool:
        return self.coeffs[1] == 0

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
        a, b = self.coeffs
        if isinstance(other, (int, Fraction)):
            return NumFieldElement(self.field, (a + other, b))
        c, d = self._binop(other).coeffs
        return NumFieldElement(self.field, (a + c, b + d))

    __radd__ = __add__

    def __neg__(self):
        a, b = self.coeffs
        return NumFieldElement(self.field, (-a, -b))

    def __sub__(self, other):
        a, b = self.coeffs
        if isinstance(other, (int, Fraction)):
            return NumFieldElement(self.field, (a - other, b))
        c, d = self._binop(other).coeffs
        return NumFieldElement(self.field, (a - c, b - d))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return NumFieldElement(self.field, tuple(a * other for a in self.coeffs))
        (a, b), (c, d) = self.coeffs, self._binop(other).coeffs
        bd = b * d
        K = self.field
        return NumFieldElement(K, (a * c - bd * K._p0, a * d + b * c - bd * K._p1))

    __rmul__ = __mul__

    def inverse(self) -> "NumFieldElement":
        """Conjugate over norm."""
        if not self:
            raise ZeroInput("inverse of zero field element")
        a, b = self.coeffs
        K = self.field
        norm = a * a - a * b * K._p1 + b * b * K._p0
        return NumFieldElement(K, ((a - b * K._p1) / norm, -b / norm))

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                raise ZeroInput("division of a field element by zero")
            a, b = self.coeffs
            return NumFieldElement(self.field, (a / other, b / other))
        return self * self._binop(other).inverse()

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
        """Galois conjugate: gen goes to the other root -p1 - gen."""
        a, b = self.coeffs
        return NumFieldElement(self.field, (a - b * self.field._p1, -b))

    def __repr__(self):
        return str(self)

    def __str__(self):
        a, b = self.coeffs
        name = self.field.name
        parts = [str(a)] if a != 0 else []
        if b == 1:
            parts.append(name)
        elif b == -1:
            parts.append(f"-{name}")
        elif b != 0:
            parts.append(f"{b}*{name}")
        if not parts:
            return "0"
        out = parts[0]
        for term in parts[1:]:
            out += f" - {term[1:]}" if term.startswith("-") else f" + {term}"
        return out


def quadratic_field(f: Poly, name: str = "r") -> tuple[NumField, NumFieldElement, NumFieldElement]:
    """Field defined by an irreducible quadratic, with its two roots.

    The minimal polynomial is f made monic. The generator is one root; the
    other is its conjugate.
    """
    field = NumField(f, name=name)
    r1 = field.gen
    return field, r1, r1.conjugate()
