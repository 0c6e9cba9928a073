"""Quadratic number fields Q[x]/(x^2 + p1*x + p0).

A field keeps its minimal polynomial cleared to integers once:
E*x^2 + P1*x + P0 with E > 0 and gcd(E, P1, P0) = 1, so p1 = P1/E and
p0 = P0/E. The minimal polynomial is irreducible exactly when its
discriminant P1^2 - 4*P0*E is not an integer square, which construction
checks.

An element (n0 + n1*gen)/d has two integer numerators over one positive
denominator, in lowest terms: gcd(n0, n1, d) = 1 (H. Cohen, A Course in
Computational Algebraic Number Theory, GTM 138, 4.2). Each element has one
such form, so equality and hashing compare integers. Every operation is a
few integer products and one reducing gcd, and no Fraction is built:
- a sum reduces by a gcd with the gcd of the two denominators;
- a product with a rational p/q reduces by gcd(p, d) and gcd(q, n0, n1);
- other products reduce E*gen^2 = -P1*gen - P0;
- a quotient is the product with the conjugate over the integer norm
  E*n0^2 - n0*n1*P1 + n1^2*P0.
A square root is one closed form in the norm and trace. A polynomial over
Q is evaluated at an element by Horner in Z[gen] (_poly_value), and a point
over the field is checked on a curve over Q by one cross-multiplied
identity in Z[gen] (_on_curve); both reduce E*gen^2 = -P1*gen - P0 on
integers (_times). Fiber points are only ever built over Q or a quadratic
field, so nothing larger is needed.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from ..errors import DomainError, NoSquareRoot, ZeroInput
from .poly import Poly, _cleared, _int_sqrt, _is_rational_poly, _signed_sum, _to_int_primitive, power


class NumField:
    """Quadratic field presented by a monic irreducible x^2 + p1*x + p0."""

    __slots__ = ("name", "E", "P1", "P0")

    def __init__(self, minimal_polynomial: Poly, name: str = "a"):
        m = minimal_polynomial
        if m.is_zero or m.degree != 2:
            raise DomainError("minimal polynomial must have degree 2")
        if not _is_rational_poly(m):
            raise DomainError("minimal polynomial must have rational coefficients")
        P0, P1, E = _to_int_primitive(m)
        if _int_sqrt(P1 * P1 - 4 * P0 * E) is not None:
            raise DomainError("minimal polynomial has a rational root")
        self.name = name
        self.E, self.P1, self.P0 = E, P1, P0

    @property
    def minimal_polynomial(self) -> Poly:
        """The monic x^2 + p1*x + p0."""
        return Poly([Fraction(self.P0, self.E), Fraction(self.P1, self.E), Fraction(1)])

    def __eq__(self, other):
        return self is other or (
            isinstance(other, NumField) and (self.E, self.P1, self.P0) == (other.E, other.P1, other.P0)
        )

    def __hash__(self):
        return hash((self.E, self.P1, self.P0))

    def __repr__(self):
        return f"NumField({self.minimal_polynomial!s}, gen={self.name!r})"

    def embed(self, r) -> "NumFieldElement":
        r = Fraction(r)
        return _make(self, r.numerator, 0, r.denominator)

    @property
    def one(self) -> "NumFieldElement":
        return _make(self, 1, 0, 1)

    @property
    def gen(self) -> "NumFieldElement":
        return _make(self, 0, 1, 1)

    def sqrt(self, el: "NumFieldElement") -> "NumFieldElement":
        """Exact square root inside the field; NoSquareRoot when none exists.

        A root y of x with trace t and norm n has n^2 = N(x) and
        t*y = y^2 + y*conj(y) = x + n, so t^2 = Tr(x) + 2n (H. Cohen, GTM
        138, 4.2). On the integer form s = E*d*n and w = E*d*t^2 =
        2*E*n0 - P1*n1 + 2s give y = (E*n0 + s + E*n1*gen)/sqrt(w*E*d), for
        the sign of s = +-E*d*sqrt(N(x)) that makes w*E*d a nonzero square.
        Otherwise x is rational (0 included) and y = v*(2*E*gen + P1) with
        v^2*(P1^2 - 4*E*P0) = x. The root returned has a positive gen
        coefficient or is a nonnegative rational: 0, or from s > 0, n0 > 0."""
        x = self._coerce(el)
        E, P1, P0, n0, n1, d = self.E, self.P1, self.P0, x.n0, x.n1, x.d
        s = _int_sqrt(E * (E * n0 * n0 - P1 * n0 * n1 + P0 * n1 * n1))
        for n in (s, -s) if s is not None else ():
            r = _int_sqrt((2 * E * n0 - P1 * n1 + 2 * n) * E * d)
            if r:  # _element negates all three for a negative denominator
                return _element(self, E * n0 + n, E * n1, -r if n1 < 0 else r)
        disc = P1 * P1 - 4 * E * P0
        q = None if n1 else _int_sqrt(n0 * d * disc)
        if q is None:
            raise NoSquareRoot("no square root in quadratic field")
        return _element(self, q * P1, 2 * E * q, d * abs(disc))

    def _coerce(self, x) -> "NumFieldElement":
        if isinstance(x, NumFieldElement):
            if x.field is not self and x.field != self:
                raise DomainError("element of a different number field")
            return x
        if isinstance(x, (int, Fraction)):
            return self.embed(x)
        raise TypeError(f"cannot coerce {x!r} into {self!r}")


_new = object.__new__


def _make(field: NumField, n0: int, n1: int, d: int) -> "NumFieldElement":
    """(n0 + n1*gen)/d, already in lowest terms with d > 0."""
    el = _new(NumFieldElement)
    el.field, el.n0, el.n1, el.d = field, n0, n1, d
    return el


def _element(field: NumField, n0: int, n1: int, d: int) -> "NumFieldElement":
    """(n0 + n1*gen)/d in lowest terms with a positive denominator; d != 0."""
    g = gcd(n0, n1, d)
    if d < 0:
        g = -g
    if g != 1:
        n0, n1, d = n0 // g, n1 // g, d // g
    return _make(field, n0, n1, d)


class NumFieldElement:
    """(n0 + n1*gen)/d over a quadratic field, d > 0 and gcd(n0, n1, d) = 1.

    NumFieldElement(field, (a, b)) builds a + b*gen from two ints or
    Fractions."""

    __slots__ = ("field", "n0", "n1", "d")

    def __init__(self, field: NumField, coeffs: tuple[Fraction, Fraction]):
        # the lcm d of the two denominators is in lowest terms: the full power
        # of a prime in d divides one of them, and that Fraction's numerator
        # is prime to it
        (n0, n1), d = _cleared([Fraction(c) for c in coeffs])
        self.field, self.n0, self.n1, self.d = field, n0, n1, d

    @property
    def coeffs(self) -> tuple[Fraction, Fraction]:
        """(a, b) with the element a + b*gen."""
        return Fraction(self.n0, self.d), Fraction(self.n1, self.d)

    # -- predicates --

    @property
    def is_rational(self) -> bool:
        return not self.n1

    def as_fraction(self) -> Fraction:
        if self.n1:
            raise DomainError(f"{self} is not rational")
        return Fraction(self.n0, self.d)

    def __eq__(self, other):
        if isinstance(other, NumFieldElement):
            return (self.n0, self.n1, self.d) == (other.n0, other.n1, other.d) and self.field == other.field
        if isinstance(other, (int, Fraction)):
            return not self.n1 and self.n0 == other.numerator and self.d == other.denominator
        return NotImplemented

    def __hash__(self):
        if not self.n1:
            return hash(Fraction(self.n0, self.d))
        return hash((self.field, self.n0, self.n1, self.d))

    def __bool__(self):
        return bool(self.n0 or self.n1)

    # -- arithmetic: an operand that is no int, Fraction or NumFieldElement
    # gets NotImplemented, so Python tries its reflected method (K.gen * p is
    # p * K.gen for a Poly p) --

    def __add__(self, other):
        """With g = gcd(d, e) for the denominators d and e, the sum over
        lcm(d, e) = (d/g)*e shares with its numerators only a factor of g:
        modulo a prime that divides d more often than e, the numerators are
        n0*(e/g) and n1*(e/g), not both zero as gcd(n0, n1, d) = 1. So the
        reducing gcd is taken with g."""
        if isinstance(other, (int, Fraction)):
            m0, m1, e = other.numerator, 0, other.denominator
        elif isinstance(other, NumFieldElement):
            o = self.field._coerce(other)
            m0, m1, e = o.n0, o.n1, o.d
        else:
            return NotImplemented
        n0, n1, d = self.n0, self.n1, self.d
        g = gcd(d, e)
        if g == 1:
            return _make(self.field, n0 * e + m0 * d, n1 * e + m1 * d, d * e)
        s, t = d // g, e // g
        a0, a1 = n0 * t + m0 * s, n1 * t + m1 * s
        h = gcd(g, a0, a1)
        return _make(self.field, a0 // h, a1 // h, s * e // h)

    __radd__ = __add__

    def __neg__(self):
        return _make(self.field, -self.n0, -self.n1, self.d)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            return self + (-other)
        if not isinstance(other, NumFieldElement):
            return NotImplemented
        return self + (-self.field._coerce(other))

    def __rsub__(self, other):
        return (-self) + other

    def _scaled(self, p: int, q: int) -> "NumFieldElement":
        """self*p/q for coprime p and q > 0. A prime that divides d and the
        product's numerators divides p, as gcd(n0, n1, d) = 1, and one that
        divides q and them divides n0 and n1, so the product reduces by
        gcd(p, d) and gcd(q, n0, n1), two gcds with the small operand."""
        n0, n1, d = self.n0, self.n1, self.d
        g, h = gcd(p, d), gcd(q, n0, n1)
        p //= g
        return _make(self.field, n0 // h * p, n1 // h * p, d // g * (q // h))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self._scaled(other.numerator, other.denominator)
        if not isinstance(other, NumFieldElement):
            return NotImplemented
        o = self.field._coerce(other)
        if not o.n1:
            return self._scaled(o.n0, o.d)
        if not self.n1:
            return o._scaled(self.n0, self.d)
        K, n0, n1, m0, m1 = self.field, self.n0, self.n1, o.n0, o.n1
        E, t = K.E, n1 * m1
        return _element(K, E * n0 * m0 - K.P0 * t, E * (n0 * m1 + n1 * m0) - K.P1 * t, E * self.d * o.d)

    __rmul__ = __mul__

    def inverse(self) -> "NumFieldElement":
        """The conjugate over the integer norm, as in __truediv__."""
        return _make(self.field, 1, 0, 1) / self

    def __truediv__(self, other):
        """The product with the conjugate over the integer norm: for a divisor
        (m0 + m1*gen)/e with N = E*m0^2 - m0*m1*P1 + m1^2*P0, the inverse is
        e*(c0 - E*m1*gen)/N with c0 = E*m0 - m1*P1, and E*gen^2 = -P1*gen - P0
        cancels E from the product, so (n0 + n1*gen)/d divided by it is
        e*(n0*c0 + P0*n1*m1 + (n1*c0 - E*n0*m1 + P1*n1*m1)*gen)/(d*N)."""
        if isinstance(other, (int, Fraction)):
            p, q = other.numerator, other.denominator
            if not p:
                raise ZeroInput("division of a field element by zero")
            return self._scaled(q, p) if p > 0 else self._scaled(-q, -p)
        if not isinstance(other, NumFieldElement):
            return NotImplemented
        o = self.field._coerce(other)
        if not o:
            raise ZeroInput("division by the zero field element")
        K, n0, n1, m0, m1 = self.field, self.n0, self.n1, o.n0, o.n1
        E, P1, P0 = K.E, K.P1, K.P0
        c0, t = E * m0 - m1 * P1, n1 * m1
        norm = E * m0 * m0 - m0 * m1 * P1 + m1 * m1 * P0
        return _element(K, o.d * (n0 * c0 + P0 * t), o.d * (n1 * c0 - E * n0 * m1 + P1 * t), self.d * norm)

    def __rtruediv__(self, other):
        if not isinstance(other, (int, Fraction, NumFieldElement)):
            return NotImplemented
        return self.field._coerce(other) / self

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        return power(self, n, self.field.one)

    def conjugate(self) -> "NumFieldElement":
        """Galois conjugate: gen goes to the other root -p1 - gen, so
        (n0 + n1*gen)/d goes to (E*n0 - n1*P1 - E*n1*gen)/(E*d)."""
        n1, K = self.n1, self.field
        E = K.E
        return _element(K, E * self.n0 - n1 * K.P1, -E * n1, E * self.d)

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
        return _signed_sum(parts)


def _times(K: NumField, u0: int, u1: int, v0: int, v1: int) -> tuple[int, int]:
    """E*(u0 + u1*gen)*(v0 + v1*gen) on integers, by E*gen^2 = -P1*gen - P0."""
    t = u1 * v1
    return K.E * u0 * v0 - K.P0 * t, K.E * (u0 * v1 + u1 * v0) - K.P1 * t


def _poly_value(nums, den: int, x: NumFieldElement) -> NumFieldElement:
    """sum(nums[i] * x^i)/den, of degree D >= 1, at x = (n0 + n1*gen)/d by
    Horner on integers: _times(A, n0 + n1*gen) is E*d*x*A, so A_k, the
    Horner value after k steps times (E*d)^k, goes to _times(A_k, ...) +
    nums[D-k-1]*(E*d)^(k+1), and the value is A_D/(den*(E*d)^D), reduced once."""
    K, n0, n1 = x.field, x.n0, x.n1
    Ed = K.E * x.d
    a0, a1, scale = nums[-1], 0, 1
    for c in reversed(nums[:-1]):
        scale *= Ed
        a0, a1 = _times(K, a0, a1, n0, n1)
        a0 += c * scale
    return _element(K, a0, a1, den * scale)


def _on_curve(x, y, a, b) -> bool:
    """y^2 == x^3 + a*x + b for rational a = an/ad, b = bn/bd and x, y in one
    quadratic field, one of them maybe a Fraction. With x = X/xd, y = Y/yd,
    Y2 = E*Y^2 and X3 = E^2*X^3 (_times), the equation times the nonzero
    E^2*yd^2*xd^3*ad*bd is the identity in Z[gen], coefficient by coefficient,

        E*xd^3*ad*bd*Y2 == yd^2*(ad*bd*X3 + E^2*xd^2*bd*an*X + E^2*xd^3*ad*bn)
    """
    K = x.field if isinstance(x, NumFieldElement) else y.field
    x, y = K._coerce(x), K._coerce(y)
    E, x0, x1, xd, y0, y1, yd = K.E, x.n0, x.n1, x.d, y.n0, y.n1, y.d
    an, ad, bn, bd = a.numerator, a.denominator, b.numerator, b.denominator
    Y2 = _times(K, y0, y1, y0, y1)
    X3 = _times(K, *_times(K, x0, x1, x0, x1), x0, x1)
    xd2, E2, abd = xd * xd, E * E, ad * bd
    left = E * xd2 * xd * abd
    lin = E2 * xd2 * bd * an
    ydd = yd * yd
    return (
        left * Y2[0] == ydd * (abd * X3[0] + lin * x0 + E2 * xd2 * xd * ad * bn)
        and left * Y2[1] == ydd * (abd * X3[1] + lin * x1)
    )


def quadratic_field(f: Poly, name: str = "r") -> tuple[NumField, NumFieldElement, NumFieldElement]:
    """Field defined by an irreducible quadratic, with its two roots.

    The minimal polynomial is f made monic. The generator is one root; the
    other is its conjugate.
    """
    field = NumField(f, name=name)
    r1 = field.gen
    return field, r1, r1.conjugate()
