"""Rational functions in one variable over Q, kept in lowest terms.

A RatFn is a pair of Polys with monic denominator and trivial gcd, so
equality is literal tuple equality. The class implements enough of the field
protocol (including mixed arithmetic with int and Fraction) that generic
curve formulas written for Fraction coefficients run unchanged over Q(t).
"""

from __future__ import annotations

from fractions import Fraction

from ..errors import ZeroInput
from .poly import Poly, format_poly, poly_gcd, power

_ONE = Poly([Fraction(1)])


def _as_poly(x) -> Poly:
    if isinstance(x, Poly):
        return x
    if isinstance(x, (int, Fraction)):
        return Poly([x])
    raise TypeError(f"cannot interpret {x!r} as a polynomial")


class RatFn:
    """Quotient of two rational polynomials in lowest terms."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=1):
        n = _as_poly(num)
        d = _as_poly(den)
        if d.is_zero:
            raise ZeroInput("rational function with zero denominator")
        if n.is_zero:
            self.num, self.den = Poly(), _ONE
            return
        if d.degree > 0:  # a nonzero constant has gcd 1 with anything
            g = poly_gcd(n, d)
            if g.degree > 0:
                n = n.exact_div(g)
                d = d.exact_div(g)
        if d.lead != 1:
            n, d = n / d.lead, d.monic()
        self.num, self.den = n, d

    # -- structure --

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    @property
    def is_polynomial(self) -> bool:
        return self.den.degree == 0

    @property
    def is_constant(self) -> bool:
        return self.is_polynomial and self.num.degree <= 0

    def as_fraction(self) -> Fraction:
        if not self.is_constant:
            raise ZeroInput(f"{self} is not constant")
        return self.num.coefficient(0)

    def __bool__(self):
        return not self.num.is_zero

    def __eq__(self, other):
        if isinstance(other, RatFn):
            return self.num == other.num and self.den == other.den
        if isinstance(other, (int, Fraction, Poly)):
            return self == RatFn(other)
        return NotImplemented

    def __hash__(self):
        return hash((self.num, self.den))

    # -- arithmetic --

    @staticmethod
    def _coerce(x) -> "RatFn":
        if isinstance(x, RatFn):
            return x
        return RatFn(x)

    def __add__(self, other):
        o = self._coerce(other)
        return RatFn(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __neg__(self):
        return RatFn(-self.num, self.den)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        return RatFn(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o.is_zero:
            raise ZeroInput("division by zero rational function")
        return RatFn(self.num * o.den, self.den * o.num)

    def __rtruediv__(self, other):
        if self.is_zero:
            raise ZeroInput("division by zero rational function")
        o = self._coerce(other)
        return RatFn(o.num * self.den, o.den * self.num)

    def __pow__(self, n: int):
        if n < 0:
            return (1 / self) ** (-n)
        return power(self, n, RatFn(1))

    # -- evaluation --

    def __call__(self, s):
        """The value at s over Q or a number field, s = None meaning s = infinity;
        None at a pole. At a number-field s, as in Poly.__call__, a nonzero
        constant gives its Fraction and the zero function the field's zero."""
        if s is None:
            n, d = self.num.degree, self.den.degree
            if n > d:
                return None
            return self.num.lead / self.den.lead if n == d else Fraction(0)
        if self.den.degree == 0:  # the monic denominator is 1
            return self.num(s)
        den = self.den(s)
        if not den:
            return None
        return self.num(s) / den

    def __repr__(self):
        return str(self)

    def __str__(self):
        if self.is_polynomial:
            return format_poly(self.num)
        return f"({format_poly(self.num)})/({format_poly(self.den)})"


def ratfn(num, den=1) -> RatFn:
    """Convenience constructor accepting ints, Fractions, coefficient lists, or Polys."""
    if isinstance(num, (list, tuple)):
        num = Poly(num)
    if isinstance(den, (list, tuple)):
        den = Poly(den)
    return RatFn(num, den)

