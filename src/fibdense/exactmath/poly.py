"""Dense univariate polynomials with exact coefficients.

Coefficients are Fraction for the public contract. The class itself is
coefficient-generic (anything with field arithmetic and == 0 works), which is
how the same code serves number-field and rational-function coefficients in
the geometry layers. Operations that genuinely need the rational field (the
heuristic integer gcd, resultants, squarefree splitting, rational root
finding) check for it.

Design notes, kept here because they are easy to get wrong:

* a polynomial over Q is integer numerators over one positive denominator,
  in lowest terms, the last numerator nonzero; zero is ((), 1). So equality
  compares integers, and sums, products, scalar products and quotients,
  exact division, derivatives and monic parts are integer loops reduced by
  one gcd. Evaluation at p/q is integer Horner over the powers of q and one
  Fraction, and at a quadratic-field element integer Horner in Z[gen]
  (numfield's _poly_value) reduced once. coeffs, coefficient and lead build
  Fractions when read. Other
  coefficients (number-field elements, polynomials, rational functions)
  keep the generic loops over coeffs, and so does divmod: no Q[x] division
  with a remainder is taken, as gcds and exact division have integer paths.
* gcd over Q runs on primitive integer polynomials through the heuristic
  gcd: one big-integer gcd of values at a power of two, read back as
  digits by shifts and proved by exact division in Z[x]. No remainder
  sequence, so no coefficient swell. A linear operand v*x - u needs no
  try: it divides the other, p, exactly when v^deg p * p(u/v) = 0.
* a bivariate resultant R(t) is read off two integer resultants, at
  t = 2^k and -2^k, each from the subresultant remainder sequence, whose
  divisions are exact; a Hadamard bound on R's coefficients sets k
  (Kronecker substitution). No floating point anywhere. resultant_is_zero
  reads no digits, and a nonzero R(2^k) decides it.
* squarefree decomposition and rational roots over Q run on the primitive
  integer polynomial: Yun's algorithm in Z[x] divides only by primitive
  polynomials, so every quotient is exact. Rational roots come from each
  Yun factor, with that factor's multiplicity, and are divided out of it;
  what is left of each factor comes back with the roots, so one Yun run
  splits p over Q. Closed forms handle factors of degree <= 2. Squarefree
  factors of higher degree avoid factoring huge leading/trailing
  coefficients: their roots are found modulo a small prime by trying every
  residue, Hensel-lifted, and recovered by rational reconstruction, then
  every candidate is verified by exact evaluation.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from ..errors import BothZero, ZeroInput

_RATIONAL = (int, Fraction)
_set = object.__setattr__


def _as_coeff(c):
    if isinstance(c, int):
        return Fraction(c)
    return c


class Poly:
    """Immutable dense polynomial, coefficients in ascending order: over Q
    the integer form _nums/_den, with _coeffs caching the Fraction view;
    over other rings _nums = _den = None and _coeffs holds them."""

    __slots__ = ("_nums", "_den", "_coeffs")

    def __new__(cls, coeffs: Sequence = ()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        if all(isinstance(c, _RATIONAL) for c in cs):
            nums, den = _cleared(cs)
            return _make(tuple(nums), den)
        return _make(None, None, tuple(map(_as_coeff, cs)))

    def __setattr__(self, *a):
        raise AttributeError("Poly is immutable")

    # ---- structure ----

    @property
    def coeffs(self) -> tuple:
        if self._coeffs is None:
            _set(self, "_coeffs", tuple(Fraction(c, self._den) for c in self._nums))
        return self._coeffs

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        nums = self._nums
        return len(self._coeffs if nums is None else nums) - 1

    @property
    def is_zero(self) -> bool:
        return self._nums == ()

    @property
    def lead(self):
        if self.is_zero:
            raise ZeroInput("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coefficient(self, k: int):
        return self.coeffs[k] if 0 <= k <= self.degree else Fraction(0)

    def __eq__(self, other):
        if isinstance(other, Poly):
            if self._nums is None or other._nums is None:
                return self.coeffs == other.coeffs
            return self._nums == other._nums and self._den == other._den
        if other == 0:
            return self.is_zero
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)  # so an equal Poly over a number field hashes alike

    def __bool__(self):
        return not self.is_zero

    # ---- ring operations ----

    def __add__(self, other):
        """Over Q, a/da + b/db = (a*t + b*s)/lcm(da, db), reduced as in
        NumFieldElement.__add__ by a factor of gcd(da, db)."""
        if not isinstance(other, Poly):
            other = Poly([other])
        a, b = self._nums, other._nums
        if a is not None and b is not None:
            g = math.gcd(self._den, other._den)
            s, t = self._den // g, other._den // g
            if len(a) < len(b):
                a, b, s, t = b, a, t, s
            out = [c * t for c in a]
            for i, c in enumerate(b):
                out[i] += c * s
            return _reduced(out, self._den // g * other._den)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return Poly(out)

    __radd__ = __add__

    def __neg__(self):
        if self._nums is not None:
            return _make(tuple(-c for c in self._nums), self._den)
        return Poly([-c for c in self._coeffs])

    def __sub__(self, other):
        if not isinstance(other, Poly):
            other = Poly([other])
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Poly):
            if self._nums is not None and isinstance(other, _RATIONAL):
                return _reduced([c * other.numerator for c in self._nums], self._den * other.denominator)
            return Poly([a * other for a in self.coeffs])
        if self.is_zero or other.is_zero:
            return Poly()
        a, b = self._nums, other._nums
        if a is not None and b is not None:
            out = [0] * (len(a) + len(b) - 1)
            for i, x in enumerate(a):
                if x:
                    for j, y in enumerate(b):
                        out[i + j] += x * y
            return _reduced(out, self._den * other._den)
        a, b = self.coeffs, other.coeffs
        out = [None] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            for j, cb in enumerate(b):
                prod = ca * cb
                out[i + j] = prod if out[i + j] is None else out[i + j] + prod
        return Poly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative polynomial power")
        one = Fraction(1) if self._nums is not None else self.lead / self.lead
        return power(self, n, Poly([one]))

    def __truediv__(self, other):
        """Division by a nonzero int, Fraction or NumFieldElement; any other
        operand gets its reflected division, so Poly / RatFn is a RatFn."""
        if not isinstance(other, (int, Fraction, NumFieldElement)):
            return NotImplemented
        if not other:
            raise ZeroInput("polynomial division by zero")
        if isinstance(other, _RATIONAL):
            return self * Fraction(other.denominator, other.numerator)
        return Poly([c / other for c in self.coeffs])

    def __divmod__(self, other: "Poly"):
        """Long division on coeffs; over Q, poly_gcd and exact_div take integer paths."""
        if not isinstance(other, Poly):
            other = Poly([other])
        if other.is_zero:
            raise ZeroInput("polynomial division by zero")
        if self.degree < other.degree:
            return Poly(), self
        rem = list(self.coeffs)
        dlead = other.lead
        dd = other.degree
        q = [None] * (len(rem) - dd)
        for k in range(len(rem) - 1, dd - 1, -1):
            c = rem[k]
            if c == 0:
                q[k - dd] = c  # a zero of the right type
                continue
            factor = c / dlead
            q[k - dd] = factor
            for i, oc in enumerate(other.coeffs):
                rem[i + k - dd] = rem[i + k - dd] - factor * oc
        return Poly(q), Poly(rem[:dd])

    def __mod__(self, other):
        return divmod(self, other)[1]

    def exact_div(self, other: "Poly") -> "Poly":
        """Over Q, a/da over b/db is (a / (b/c)) * db/(c*da) for the content
        c of b: by Gauss's lemma a quotient of a by the primitive b/c lies
        in Z[x], so integer division (_int_divide) finds it or fails."""
        b = other._nums
        if self._nums is None or not b:
            q, r = divmod(self, other)
            if not r.is_zero:
                raise ZeroInput("division was not exact")
            return q
        c = math.gcd(*b)
        q = _int_divide(self._nums, [x // c for x in b])
        if q is None:
            raise ZeroInput("division was not exact")
        return _reduced([x * other._den for x in q], self._den * c)

    # ---- calculus and evaluation ----

    def derivative(self) -> "Poly":
        if self._nums is not None:
            return _reduced([i * c for i, c in enumerate(self._nums)][1:], self._den)
        return Poly([i * c for i, c in enumerate(self._coeffs)][1:])

    def __call__(self, x):
        """The value at x; over Q at p/q, q^d * self(p/q) by integer Horner
        (_int_homogeneous_value) over q^d times the denominator, and at a
        quadratic-field element by integer Horner in Z[gen] (numfield's
        _poly_value). A constant is its Fraction at every x, and the zero
        polynomial is the zero of x's ring."""
        nums = self._nums
        if nums and isinstance(x, NumFieldElement):
            return _poly_value(nums, self._den, x) if len(nums) > 1 else self.coeffs[0]
        if nums and isinstance(x, _RATIONAL):
            q = x.denominator
            return Fraction(_int_homogeneous_value(nums, x.numerator, q), self._den * q ** (len(nums) - 1))
        acc = None
        for c in reversed(self.coeffs):
            acc = c if acc is None else acc * x + c
        if acc is None:
            return Fraction(0) if isinstance(x, _RATIONAL) else x - x
        return acc

    def monic(self) -> "Poly":
        if self.is_zero:
            return self
        if self._nums is not None:
            return _reduced(list(self._nums), self._nums[-1])
        l = self.lead
        return Poly([c / l for c in self._coeffs])

    def __repr__(self):
        return f"Poly({list(self.coeffs)!r})"

    def __str__(self):
        return format_poly(self)


def _make(nums: tuple | None, den: int | None, coeffs: tuple | None = None) -> Poly:
    """nums/den over Q, trimmed and in lowest terms with den > 0; or, with
    nums and den None, the trimmed coefficients of another ring."""
    p = object.__new__(Poly)
    _set(p, "_nums", nums)
    _set(p, "_den", den)
    _set(p, "_coeffs", coeffs)
    return p


def _reduced(nums: list[int], den: int) -> Poly:
    """nums/den over Q for den != 0: trimmed, and divided by the gcd of den
    and the numerators, given den's sign so that the denominator is positive."""
    while nums and not nums[-1]:
        nums.pop()
    g = math.gcd(den, *nums)
    if den < 0:
        g = -g
    if g != 1:
        nums, den = [c // g for c in nums], den // g
    return _make(tuple(nums), den)


def poly(coeffs: Sequence) -> Poly:
    """Convenience constructor accepting ints and Fractions."""
    return Poly(coeffs)


def power(base, n: int, one):
    """base**n for n >= 0 by square-and-multiply from one, the power 0; the
    base is squared only while bits of n remain."""
    result = one
    while True:
        if n & 1:
            result = result * base
        n >>= 1
        if not n:
            return result
        base = base * base


def taylor_shift(p: Poly, a) -> Poly:
    """p(t + a) for p over Q and a rational a = u/v: with d = deg p,
    v^d * p(t + a) = P(v*t + u) for P(x) = v^d * p(x/v) in Z[x], shifted by u
    on integers in d rounds of synthetic division."""
    if p.is_zero:
        return p
    u, v, d = a.numerator, a.denominator, p.degree
    nums = [c * v ** (d - i) for i, c in enumerate(p._nums)]
    for i in range(d):
        for k in range(d - 1, i - 1, -1):
            nums[k] += u * nums[k + 1]
    return _reduced([c * v**i for i, c in enumerate(nums)], p._den * v**d)


def transposed(rows: Sequence[Poly], low: int = 0) -> list[Poly]:
    """The coefficients of t^j, j >= low, across rows r_k over Q: the
    polynomials sum_k [t^j] r_k * x^k, from numerators over one denominator."""
    ints, L = _cleared_rows(rows)
    width = max(map(len, ints), default=0)
    return [_reduced([r[j] if j < len(r) else 0 for r in ints], L) for j in range(low, width)]


def _signed_sum(terms: list[str]) -> str:
    """The terms joined by " + ", or by " - " before a term that starts
    with "-"; "0" when there are none."""
    if not terms:
        return "0"
    out = terms[0]
    for term in terms[1:]:
        out += f" - {term[1:]}" if term.startswith("-") else f" + {term}"
    return out


def format_poly(p: Poly) -> str:
    parts = []
    for k in range(p.degree, -1, -1):
        c = p.coefficient(k)
        if c == 0:
            continue
        if k == 0:
            term = str(c)
        else:
            mon = "t" if k == 1 else f"t^{k}"
            if c == 1:
                term = mon
            elif c == -1:
                term = f"-{mon}"
            else:
                term = f"{c}*{mon}"
        parts.append(term)
    return _signed_sum(parts)


def _is_rational_poly(p: Poly) -> bool:
    return p._nums is not None


# ---------------------------------------------------------------------------
# integer polynomial layer (private): contents, exact division, heuristic gcd
# ---------------------------------------------------------------------------

def _cleared(values) -> tuple[list[int], int]:
    """(ints, L) for rationals values: L is the lcm of their denominators
    and ints lists L*v for each v, one integer product per value. They have
    gcd 1: a prime's full power in L divides a denominator, and that
    value's numerator is prime to it."""
    L = math.lcm(*(c.denominator for c in values))
    return [c.numerator * (L // c.denominator) for c in values], L


def _int_sqrt(n: int) -> int | None:
    """The square root of an integer square n, else None."""
    r = math.isqrt(n) if n >= 0 else -1
    return r if r * r == n else None


def _to_int_primitive(p: Poly) -> list[int]:
    """The primitive part of p in Z[t]: gcd of coeffs 1, positive leading
    coefficient (empty for the zero polynomial)."""
    return _int_primitive(list(p._nums))


def _int_primitive(a: list[int]) -> list[int]:
    g = math.gcd(*a)
    if a and a[-1] < 0:
        g = -g
    return [c // g for c in a]


def _int_heuristic_gcd(A: list[int], B: list[int]) -> list[int]:
    """Primitive gcd of primitive integer polynomials by the heuristic gcd.

    Each try evaluates A and B at a power of two xi, takes h = gcd(A(xi),
    B(xi)) and reads h back as a polynomial G through its balanced base-xi
    digits (each in (-xi/2, xi/2]). The first xi is the least power of two
    >= 2*min(|A|, |B|) + 2, |.| the largest absolute coefficient; each
    failed try doubles xi. (Char, Geddes, Gonnet, "GCDHEU: Heuristic
    polynomial GCD algorithm based on integer GCD computation", J. Symbolic
    Comput. 7 (1989); Geddes, Czapor, Labahn, Algorithms for Computer
    Algebra, 7.7.) A linear operand v*x - u divides the other, P, exactly
    when v^deg P * P(u/v) = 0, so then no try is made.

    Proof. Let g be the true primitive gcd and say |B| <= |A|, so
    xi >= 2|B| + 2 and B(xi) != 0. Suppose P = pp(G) divides A and B in
    Z[x]. Then P divides g; write g = P*C. Every root r of C is a root of B,
    so |r| < 1 + |B| <= xi/2 (Cauchy) and |C(xi)| > (xi/2)^deg C. Since g
    divides A and B, g(xi) divides h = G(xi) = cont(G)*P(xi), which is not
    0 as B(xi) is not. So C(xi) divides cont(G), and
    |C(xi)| <= cont(G) <= |G| <= xi/2 rules out deg C >= 1. As g is
    primitive, C = +-1 and P = g.

    Termination. Write A = g*Ab and B = g*Bb with Ab, Bb coprime. Then
    h = |g(xi)| * gamma with gamma = gcd(Ab(xi), Bb(xi)), and gamma divides
    R = Res(Ab, Bb) != 0, because R = s*Ab + t*Bb with s, t in Z[x]. Once
    xi > 2*|R|*|g|, the polynomial +-gamma*g has every coefficient below
    xi/2, so its digits are exactly those of h, pp(G) = g, and the division
    test passes. So the loop needs no cap and no fallback.
    """
    for L, P in ((B, A), (A, B)):
        if len(L) == 2:  # L = v*x - u is irreducible: the gcd is L or 1
            return [1] if _int_homogeneous_value(P, -L[0], L[1]) else _int_primitive(L)
    s = (2 * min(max(map(abs, A)), max(map(abs, B))) + 1).bit_length()
    while True:
        G = _int_primitive(_balanced_digits(math.gcd(*_int_horner_all([A, B], 1 << s)), s))
        if _int_divide(A, G) is not None and _int_divide(B, G) is not None:
            return G
        s += 1


def _int_divide(A: list[int], B: list[int]) -> list[int] | None:
    """A / B in Z[x] for a nonzero B, or None when B does not divide A:
    integer long division that stops at the first quotient coefficient
    that is not an integer."""
    n, m = len(A), len(B)
    if n < m:
        return None if A else []
    lB = B[-1]
    R = list(A)
    Q = [0] * (n - m + 1)
    for k in range(n - m, -1, -1):
        q, r = divmod(R[k + m - 1], lB)
        if r:
            return None
        if q:
            Q[k] = q
            for i, bc in enumerate(B):
                R[i + k] -= q * bc
    return None if any(R[: m - 1]) else Q


def _int_derivative(A: list[int]) -> list[int]:
    return [i * c for i, c in enumerate(A)][1:]


def _int_sub(A: list[int], B: list[int]) -> list[int]:
    """A - B, trimmed."""
    out = [a - b for a, b in zip(A, B)] + A[len(B):] + [-b for b in B[len(A):]]
    while out and not out[-1]:
        out.pop()
    return out


def poly_gcd(p: Poly, q: Poly) -> Poly:
    """Monic gcd. Over Q it is the heuristic gcd of the primitive integer
    parts (_int_heuristic_gcd); over other fields, monic Euclid."""
    if p.is_zero and q.is_zero:
        raise BothZero("gcd(0, 0) is undefined")
    if p.is_zero:
        return q.monic()
    if q.is_zero:
        return p.monic()
    if _is_rational_poly(p) and _is_rational_poly(q):
        a = _to_int_primitive(p)
        b = _to_int_primitive(q)
        return _int_to_monic(_int_heuristic_gcd(a, b))
    a, b = p, q
    while not b.is_zero:
        a, b = b, a % b
    return a.monic()


# ---------------------------------------------------------------------------
# determinants, resultants, discriminants
# ---------------------------------------------------------------------------

def _int_prem(A: Sequence[int], B: Sequence[int]) -> list[int]:
    """The pseudo-remainder R for deg A >= deg B >= 0, trimmed:
    lc(B)^(deg A - deg B + 1) * A = Q*B + R with deg R < deg B."""
    lB, m = B[-1], len(B)
    R = list(A)
    for k in range(len(A) - m, -1, -1):
        top = R.pop()
        R = [c * lB for c in R]
        if top:
            for i in range(m - 1):
                R[k + i] -= top * B[i]
    while R and not R[-1]:
        R.pop()
    return R


def _int_resultant(A: list[int], B: list[int]) -> int:
    """res(A, B) of nonzero integer polynomials (trimmed lists) by the
    subresultant remainder sequence (Cohen, A Course in Computational
    Algebraic Number Theory, Alg. 3.3.7; Collins, J. ACM 14, 1967; Brown and
    Traub, J. ACM 18, 1971): contents come out first, then each
    pseudo-remainder (_int_prem) is divided exactly by g*h^delta."""
    s = 1
    if len(A) < len(B):
        A, B = B, A
        if (len(A) - 1) * (len(B) - 1) % 2:
            s = -s
    a, b = math.gcd(*A), math.gcd(*B)
    A = [c // a for c in A]
    B = [c // b for c in B]
    t = a ** (len(B) - 1) * b ** (len(A) - 1)
    g = h = 1
    while len(B) > 1:
        delta = len(A) - len(B)
        if len(A) % 2 == 0 and len(B) % 2 == 0:  # both degrees odd
            s = -s
        R = _int_prem(A, B)
        if not R:
            return 0
        div = g * h ** delta
        A, B = B, [c // div for c in R]
        g = A[-1]
        h = g ** delta // h ** (delta - 1) if delta else h
    d = len(A) - 1
    return s * t * (B[0] ** d // h ** max(d - 1, 0))


def _cleared_rows(polys: Sequence[Poly]) -> tuple[list[list[int]], int]:
    """(rows, L): the numerators of each polynomial over L, the lcm of their
    denominators."""
    L = math.lcm(*(p._den for p in polys))
    return [[c * (L // p._den) for c in p._nums] for p in polys], L


def _kronecker_values(f_coeffs: Sequence[Poly], g_coeffs: Sequence[Poly]):
    """Yields (k, cf^m * cg^n), then R(2^k) and R(-2^k), each an integer
    resultant (_int_resultant), for R = res(cf*f, cg*g) = cf^m * cg^n *
    res(f, g) in Z[t], cf and cg the lcm of the coefficient denominators of
    f and g, and k as resultant_bivariate sets it. A row packed at 2^k is
    E + O for its even and odd terms E and O, and E - O at -2^k."""
    f, g = list(f_coeffs), list(g_coeffs)
    while f and f[-1].is_zero:
        f.pop()
    while g and g[-1].is_zero:
        g.pop()
    if not f or not g:
        raise ZeroInput("resultant needs nonzero polynomials")
    if not all(_is_rational_poly(c) for c in f + g):
        raise ZeroInput("resultant_bivariate is implemented over Q only")
    n, m = len(f) - 1, len(g) - 1
    (fi, cf), (gi, cg) = (_cleared_rows(h) for h in (f, g))
    norms_f, norms_g = ([sum(map(abs, r)) for r in rows] for rows in (fi, gi))
    square_bound = sum(a * a for a in norms_f) ** m * sum(b * b for b in norms_g) ** n
    k = max(((4 * square_bound).bit_length() + 3) // 4, (2 * max(norms_f + norms_g)).bit_length())
    yield k, cf**m * cg**n

    def packed(cs):
        return sum(c << 2 * k * i for i, c in enumerate(cs))

    fh, gh = ([(packed(r[::2]), packed(r[1::2]) << k) for r in rows] for rows in (fi, gi))
    yield _int_resultant([e + o for e, o in fh], [e + o for e, o in gh])
    yield _int_resultant([e - o for e, o in fh], [e - o for e, o in gh])


def _balanced_digits(h: int, s: int) -> list[int]:
    """The digits of h in base 2^s, lowest first, each in (-2^(s-1), 2^(s-1)],
    read by masks and shifts: the unique such digits d_i with h = sum d_i 2^(si)."""
    base = 1 << s
    mask, half = base - 1, base >> 1
    digits = []
    while h:
        d = h & mask
        if d > half:
            d -= base
        digits.append(d)
        h = (h - d) >> s
    return digits


def resultant_bivariate(f_coeffs: Sequence[Poly], g_coeffs: Sequence[Poly]) -> Poly:
    """Resultant in the main variable of two polynomials whose coefficients
    are themselves rational polynomials in a second variable t.

    The structural degrees n, m are fixed by the trimmed coefficient lists.
    R = res(cf*f, cg*g) = cf^m * cg^n * res(f, g) has a Sylvester matrix with
    entries F_j, G_k in Z[t]; it is read off its values at x = 2^k and -x
    (_kronecker_values) by Kronecker substitution (Schoenhage, ICALP 1982),
    then divided by cf^m * cg^n.

    Proof. On |t| = 1 each entry is at most its 1-norm, |F_j(t)| <= |F_j|_1,
    so by Hadamard's inequality |R(t)| <= B = sqrt(sum_j |F_j|_1^2)^m *
    sqrt(sum_k |G_k|_1^2)^n, and each coefficient r_i of R, the mean of
    R(t) * t^-i over the circle, has |r_i| <= B. k is the least with
    2^(2k) > 2B (2^(4k) > 4B^2 on integers), or with 2^k > 2 * max |.|_1 if
    that is larger. Then a nonzero row P of degree d has |P(+-x)| >= x^d -
    |P|_1 * x^(d-1) > 0, so F_n and G_m do not vanish at +-x, and R(+-x) is
    the resultant there. The even part (R(x) + R(-x))/2 = sum r_2i x^2i and
    the odd part (R(x) - R(-x))/(2x) = sum r_(2i+1) x^2i are integers (exact
    shifts) whose balanced base-2^(2k) digits (_balanced_digits) are the r_i,
    as each |r_i| <= B < 2^(2k)/2.
    """
    values = _kronecker_values(f_coeffs, g_coeffs)
    k, scale = next(values)
    plus, minus = values
    even = _balanced_digits((plus + minus) >> 1, 2 * k)
    odd = _balanced_digits((plus - minus) >> (k + 1), 2 * k)
    out = [0] * (2 * max(len(even), len(odd)))
    out[: 2 * len(even) : 2] = even
    out[1 : 2 * len(odd) : 2] = odd
    return _reduced(out, scale)


def resultant_is_zero(f_coeffs: Sequence[Poly], g_coeffs: Sequence[Poly]) -> bool:
    """resultant_bivariate(f_coeffs, g_coeffs).is_zero, with no digits read:
    R(2^k) and R(-2^k) determine R, so R = 0 exactly when both are 0, and a
    nonzero R(2^k) decides at once. A zero at 2^k alone proves nothing: 2^k
    is only about sqrt(2B), and a root of R may be as large as B."""
    values = _kronecker_values(f_coeffs, g_coeffs)
    next(values)
    return not any(values)


def _int_horner_all(polys: list[list[int]], x: int) -> list[int]:
    """Each integer coefficient list evaluated at x by Horner's rule."""
    values = []
    for cs in polys:
        acc = 0
        for c in reversed(cs):
            acc = acc * x + c
        values.append(acc)
    return values


# ---------------------------------------------------------------------------
# squarefree decomposition (Yun)
# ---------------------------------------------------------------------------

def squarefree_decompose(p: Poly) -> list[tuple[Poly, int]]:
    """Yun's algorithm: p = lead * prod f_i^(m_i), f_i monic squarefree and
    pairwise coprime, multiplicities ascending in the output.

    Over Q it runs in Z[x] on the primitive part (_int_yun); over a
    quadratic field it runs on monic polynomials with Euclid's gcd.
    """
    if p.is_zero:
        raise ZeroInput("squarefree decomposition of 0")
    if p.degree < 1:
        return []
    if _is_rational_poly(p):
        return [(_int_to_monic(P), i) for P, i in _int_yun(_to_int_primitive(p))]
    f = p.monic()
    df = f.derivative()
    a0 = poly_gcd(f, df)
    out = []
    if a0.degree == 0:
        return [(f, 1)]
    b = f.exact_div(a0)
    c = df.exact_div(a0)
    d = c - b.derivative()
    i = 1
    while b.degree >= 1:
        a = poly_gcd(b, d) if not d.is_zero else b.monic()
        if a.degree >= 1:
            out.append((a, i))
        b = b.exact_div(a)
        c = d.exact_div(a)
        d = c - b.derivative()
        i += 1
    return out


def _int_yun(A: list[int]) -> list[tuple[list[int], int]]:
    """Yun's algorithm in Z[x] for a primitive A of degree >= 1 with a
    positive lead: the factors P_i of A = prod P_i^i that have degree >= 1,
    each primitive with a positive lead, multiplicities ascending.

    The gcds (_int_heuristic_gcd) are primitive with positive leads, so
    gcd(A, A') = prod P_i^(i-1) exactly and A/gcd(A, A') = prod P_i, and
    every later gcd is the next P_i itself. Each divisor is primitive, so by
    Gauss's lemma a quotient that exists in Q[x] lies in Z[x], and exact
    integer division (_int_divide) finds it.
    """
    dA = _int_derivative(A)
    a0 = _int_heuristic_gcd(A, _int_primitive(dA))
    if len(a0) == 1:
        return [(A, 1)]
    b = _int_divide(A, a0)
    d = _int_sub(_int_divide(dA, a0), _int_derivative(b))
    out = []
    i = 1
    while len(b) > 1:
        a = _int_heuristic_gcd(b, _int_primitive(d)) if d else b
        if len(a) > 1:
            out.append((a, i))
        b = _int_divide(b, a)
        d = _int_sub(_int_divide(d, a), _int_derivative(b))
        i += 1
    return out


def _int_to_monic(P: list[int]) -> Poly:
    """P made monic, for a primitive P with a positive lead: P over its lead
    is already in lowest terms."""
    return _make(tuple(P), P[-1])


def squarefree_part(p: Poly) -> Poly:
    """Monic product of the distinct irreducible factors of p."""
    if p.is_zero:
        raise ZeroInput("squarefree part of 0")
    if p.degree < 1:
        return Poly([Fraction(1)])
    g = poly_gcd(p, p.derivative())
    return p.monic().exact_div(g)


# ---------------------------------------------------------------------------
# rational roots: closed forms for degree <= 2, modular lifting beyond
# ---------------------------------------------------------------------------

def rational_roots(p: Poly) -> tuple[list[tuple[Fraction, int]], list[tuple[Poly, int]]]:
    """(roots, rest) for a nonzero p over Q.

    roots lists the rational roots of p with exact multiplicities, ascending
    by value. rest lists, in Yun order, each factor of Yun's decomposition
    in Z[x] with its rational roots divided out, monic and with that
    factor's multiplicity, when the quotient has degree >= 2.

    The factors are squarefree and pairwise coprime, so each root is found
    once, carries its factor's multiplicity, and divides that factor exactly
    once, as the primitive v*x - u for u/v in lowest terms (Gauss's lemma)."""
    if p.is_zero:
        raise ZeroInput("rational roots of 0")
    found, rest = [], []
    if p.degree < 1:
        return found, rest
    for P, mult in _int_yun(_to_int_primitive(p)):
        for r in _int_rational_roots(P):
            found.append((r, mult))
            P = _int_divide(P, [-r.numerator, r.denominator])
        if len(P) > 2:
            rest.append((_int_to_monic(P), mult))
    found.sort(key=lambda rm: rm[0])
    return found, rest


def _int_rational_roots(g: list[int]) -> list[Fraction]:
    """Rational roots of a squarefree primitive integer polynomial of degree
    >= 1, in no set order.

    Degrees 1 and 2 use closed forms. Beyond, roots are located mod a small
    prime by trying every residue, Hensel-lifted, and recovered by rational
    reconstruction. Every candidate u/v is verified exactly, as
    v^d * g(u/v) = 0 on integers, so spurious reconstructions are harmless.
    """
    if len(g) == 2:
        return [Fraction(-g[0], g[1])]
    if len(g) == 3:
        a0, a1, a2 = g
        disc = a1 * a1 - 4 * a2 * a0
        s = _int_sqrt(disc)
        if s is None:
            return []
        return [Fraction(-a1 + s, 2 * a2), Fraction(-a1 - s, 2 * a2)]
    lc = abs(g[-1])
    maxabs = max(abs(c) for c in g[:-1])
    cauchy = 1 + (maxabs + lc - 1) // lc  # integer ceiling of the Cauchy bound
    den_bound = lc
    num_bound = cauchy * den_bound
    target = 2 * num_bound * den_bound + 1
    dg = _int_derivative(g)
    prime, residues = _simple_roots_mod_small_prime(g, dg)
    roots = []
    for r in residues:
        lifted, modulus = _hensel_lift(g, dg, r, prime, target)
        cand = _rational_reconstruct(lifted, modulus, num_bound, den_bound)
        if cand is not None and _int_homogeneous_value(g, cand.numerator, cand.denominator) == 0:
            roots.append(cand)
    return roots


def _int_homogeneous_value(g: Sequence[int], u: int, v: int) -> int:
    """v^d * g(u/v) for d = deg g, by Horner's rule on integers."""
    acc, vpow = g[-1], 1
    for c in reversed(g[:-1]):
        vpow *= v
        acc = acc * u + c * vpow
    return acc


# A scan costs about p Horner passes. On the trisection bench's cubics 7 was
# the fastest first prime of 5 to 13 (within 5%), twice as fast as 101.
_FIRST_SCAN_PRIME = 7


def _simple_roots_mod_small_prime(g: list[int], dg: list[int]) -> tuple[int, list[int]]:
    """The first prime p >= _FIRST_SCAN_PRIME with p not dividing lc(g) at
    which every root of g mod p is simple, and those roots, ascending.

    Every rational root u/v of g has v | lc(g), so v is a unit mod p and u/v
    reduces to one of the listed roots. A simple root lifts uniquely, so
    Hensel lifting recovers u/v from it. Any prime not dividing lc(g) * disc(g)
    qualifies, so the loop ends; the simplicity check stands in for asking
    that g stay squarefree mod p.
    """
    p = _FIRST_SCAN_PRIME
    while True:
        if g[-1] % p and all(p % d for d in range(2, math.isqrt(p) + 1)):
            high_first = [c % p for c in reversed(g)]
            roots = []
            for r in range(p):
                acc = 0
                for c in high_first:
                    acc = acc * r + c
                if not acc % p:
                    roots.append(r)
            if all(_horner_mod(dg, r, p) for r in roots):
                return p, roots
        p += 2


def _horner_mod(g: list[int], x: int, m: int) -> int:
    acc = 0
    for c in reversed(g):
        acc = (acc * x + c) % m
    return acc


def _hensel_lift(g: list[int], dg: list[int], root: int, p: int, target: int) -> tuple[int, int]:
    """Quadratic Newton lifting of a simple root mod p up to modulus >= target."""
    modulus = p
    r = root
    while modulus < target:
        modulus = modulus * modulus
        deriv = _horner_mod(dg, r, modulus)
        r = (r - _horner_mod(g, r, modulus) * pow(deriv, -1, modulus)) % modulus
    return r, modulus


def _rational_reconstruct(r: int, m: int, num_bound: int, den_bound: int) -> Fraction | None:
    """Wang's reconstruction: u/v == r (mod m), |u| <= num_bound, 0 < v <= den_bound."""
    r %= m
    r0, s0 = m, 0
    r1, s1 = r, 1
    while r1 > num_bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        s0, s1 = s1, s0 - q * s1
    if s1 == 0:
        return None
    u, v = (r1, s1) if s1 > 0 else (-r1, -s1)
    if v > den_bound:
        return None
    return Fraction(u, v)


# numfield imports from this module, so this import comes last, once every
# name it reads is defined (the package imports this module first)
from .numfield import NumFieldElement, _poly_value  # noqa: E402
