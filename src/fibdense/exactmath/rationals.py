"""Arbitrary-precision rationals and the naive-height enumeration.

Rat is stdlib Fraction: already reduced, positive denominator, canonical zero.
This module owns the string round-trip used by every artifact ("p/q" or "p",
never a float) and the deterministic height-ordered enumeration that drives
the density sweeps.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

from ..errors import ZeroInput

Rat = Fraction

_RAT_RE = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def rat_from_string(s: str) -> Rat:
    """Parse "p" or "p/q" with q > 0, ASCII digits only. Rejects anything else,
    floats and surrounding whitespace included."""
    if not _RAT_RE.fullmatch(s):
        raise ValueError(f"not an exact rational: {s!r}")
    if "/" in s:
        num, den = s.split("/")
        if int(den) == 0:
            raise ZeroInput(f"zero denominator in {s!r}")
        return Fraction(int(num), int(den))
    return Fraction(int(s))


def rat_to_string(r: Rat) -> str:
    return str(r)


def rat_height(r: Rat) -> int:
    """Naive height max(|p|, q) of a reduced fraction p/q."""
    return max(abs(r.numerator), r.denominator)


def is_square(r: Rat) -> bool:
    if r < 0:
        return False
    n, d = r.numerator, r.denominator
    sn, sd = math.isqrt(n), math.isqrt(d)
    return sn * sn == n and sd * sd == d


def rat_sqrt(r: Rat) -> Rat:
    """Exact non-negative square root; raises for non-squares."""
    if not is_square(r):
        from ..errors import NoSquareRoot
        raise NoSquareRoot(f"{r} is not a rational square")
    return Fraction(math.isqrt(r.numerator), math.isqrt(r.denominator))


def _sort_height(r: Rat) -> int:
    # 0 gets its own leading block so the enumeration starts 0, -1, 1, ...
    if r == 0:
        return 0
    return rat_height(r)


def enumerate_rationals(height_bound: int) -> list[Rat]:
    """All reduced p/q with max(|p|, q) <= height_bound.

    Ordered by (sort height, numerator, denominator); outputs for bound n are a
    prefix of the outputs for bound n + 1.
    """
    if height_bound < 1:
        return []
    out = []
    for den in range(1, height_bound + 1):
        for num in range(-height_bound, height_bound + 1):
            if math.gcd(abs(num), den) == 1:
                out.append(Fraction(num, den))
    out.sort(key=lambda r: (_sort_height(r), r.numerator, r.denominator))
    return out
