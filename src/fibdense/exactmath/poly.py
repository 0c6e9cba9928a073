"""Dense univariate polynomials with exact coefficients.

Coefficients are Fraction for the public contract. The class itself is
coefficient-generic (anything with field arithmetic and == 0 works), which is
how the same code serves number-field and rational-function coefficients in
the geometry layers. Operations that genuinely need the rational field (the
heuristic integer gcd, resultants, squarefree splitting, rational root
finding) check for it.

Design notes, kept here because they are easy to get wrong:

* products over Q convolve integers: each operand's denominators are
  cleared once, and each output coefficient is one reduced Fraction.
  Coefficients outside Q keep the generic loop.
* gcd over Q runs on primitive integer polynomials through the heuristic
  gcd: one big-integer gcd of values at a large integer, read back as
  digits and proved by exact division in Z[x]. No remainder sequence is
  formed, so no intermediate coefficient swell.
* bivariate resultants are interpolated from integer nodes; at each node
  the resultant of the two integer polynomials comes from the subresultant
  remainder sequence, whose divisions are exact. No floating point anywhere.
* squarefree decomposition and rational roots over Q run on the primitive
  integer polynomial: Yun's algorithm in Z[x] divides only by primitive
  polynomials, so every quotient is exact. Rational roots come from each
  Yun factor, with that factor's multiplicity. Closed forms handle factors
  of degree <= 2. Squarefree factors of higher degree avoid factoring huge
  leading/trailing coefficients: their roots are found modulo a small prime
  by trying every residue, Hensel-lifted, and recovered by rational
  reconstruction, then every candidate is verified by exact evaluation.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from ..errors import BothZero, ZeroInput


def _as_coeff(c):
    if isinstance(c, int):
        return Fraction(c)
    if isinstance(c, str):
        from .rationals import rat_from_string
        return rat_from_string(c)
    return c


class Poly:
    """Immutable dense polynomial, coefficients in ascending order.

    The zero polynomial is the empty coefficient sequence.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence = ()):
        cs = [_as_coeff(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, *a):
        raise AttributeError("Poly is immutable")

    # ---- structure ----

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def lead(self):
        if not self.coeffs:
            raise ZeroInput("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coefficient(self, k: int):
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else Fraction(0)

    def __eq__(self, other):
        if isinstance(other, Poly):
            return self.coeffs == other.coeffs
        if other == 0:
            return self.is_zero
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def __bool__(self):
        return not self.is_zero

    # ---- ring operations ----

    def __add__(self, other):
        if not isinstance(other, Poly):
            other = Poly([other])
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return Poly(out)

    __radd__ = __add__

    def __neg__(self):
        return Poly([-c for c in self.coeffs])

    def __sub__(self, other):
        if not isinstance(other, Poly):
            other = Poly([other])
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Poly):
            c = _as_coeff(other)
            return Poly([a * c for a in self.coeffs])
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Poly()
        if _is_rational_poly(self) and _is_rational_poly(other):
            return _rational_product(a, b)
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
        if self.is_zero or isinstance(self.lead, Fraction):
            one = Fraction(1)
        else:
            one = self.lead / self.lead
        result = Poly([one])
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __divmod__(self, other: "Poly"):
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

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def exact_div(self, other: "Poly") -> "Poly":
        q, r = divmod(self, other)
        if not r.is_zero:
            raise ZeroInput("division was not exact")
        return q

    # ---- calculus and evaluation ----

    def derivative(self) -> "Poly":
        return Poly([i * c for i, c in enumerate(self.coeffs)][1:])

    def __call__(self, x):
        acc = None
        for c in reversed(self.coeffs):
            acc = c if acc is None else acc * x + c
        if acc is None:
            return Fraction(0) if isinstance(x, (int, Fraction)) else x - x
        return acc

    def compose(self, inner: "Poly") -> "Poly":
        acc = Poly()
        for c in reversed(self.coeffs):
            acc = acc * inner + Poly([c])
        return acc

    def shift(self, c) -> "Poly":
        """p(t + c)."""
        return self.compose(Poly([c, 1]))

    def monic(self) -> "Poly":
        if self.is_zero:
            return self
        l = self.lead
        return Poly([c / l for c in self.coeffs])

    def __repr__(self):
        return f"Poly({list(self.coeffs)!r})"

    def __str__(self):
        return format_poly(self)


def poly(coeffs: Sequence) -> Poly:
    """Convenience constructor accepting ints, strings, and Fractions."""
    return Poly(coeffs)


def format_poly(p: Poly) -> str:
    if p.is_zero:
        return "0"
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
    out = parts[0]
    for term in parts[1:]:
        out += f" - {term[1:]}" if term.startswith("-") else f" + {term}"
    return out


def _is_rational_poly(p: Poly) -> bool:
    return all(isinstance(c, Fraction) for c in p.coeffs)


def _rational_product(a: tuple, b: tuple) -> Poly:
    """The product of two nonzero coefficient tuples over Q, on integers.

    With da, db the lcm of the denominators of a and b, the cleared lists
    da*a and db*b lie in Z[t]; their convolution is da*db times the product,
    so each output coefficient is one Fraction(c, da*db) and one gcd, not a
    Fraction product and sum per term."""
    da = math.lcm(*(c.denominator for c in a))
    db = math.lcm(*(c.denominator for c in b))
    A = [c.numerator * (da // c.denominator) for c in a]
    B = [c.numerator * (db // c.denominator) for c in b]
    out = [0] * (len(A) + len(B) - 1)
    for i, x in enumerate(A):
        if x:
            for j, y in enumerate(B):
                out[i + j] += x * y
    d = da * db
    return Poly([Fraction(c, d) for c in out])


# ---------------------------------------------------------------------------
# integer polynomial layer (private): contents, exact division, heuristic gcd
# ---------------------------------------------------------------------------

def _to_int_primitive(p: Poly) -> list[int]:
    """The primitive part of p in Z[t]: gcd of coeffs 1, positive leading
    coefficient (empty for the zero polynomial)."""
    den_lcm = math.lcm(*(c.denominator for c in p.coeffs))
    return _int_primitive([int(c * den_lcm) for c in p.coeffs])


def _int_primitive(a: list[int]) -> list[int]:
    g = math.gcd(*a)
    if a and a[-1] < 0:
        g = -g
    return [c // g for c in a]


def _int_heuristic_gcd(A: list[int], B: list[int]) -> list[int]:
    """Primitive gcd of primitive integer polynomials by the heuristic gcd.

    Each try evaluates A and B at an integer xi, takes h = gcd(A(xi), B(xi))
    and reads h back as a polynomial G through its symmetric base-xi digits
    (each in (-xi/2, xi/2]). The first try uses xi = 2*min(|A|, |B|) + 2, |.|
    the largest absolute coefficient; each failed try doubles xi. (Char,
    Geddes, Gonnet, "GCDHEU: Heuristic polynomial GCD algorithm based on
    integer GCD computation", J. Symbolic Comput. 7 (1989); Geddes, Czapor,
    Labahn, Algorithms for Computer Algebra, 7.7.)

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
    xi = 2 * min(max(map(abs, A)), max(map(abs, B))) + 2
    while True:
        h = math.gcd(*_int_horner_all([A, B], xi))
        digits = []
        while h:
            d = h % xi
            if d > xi // 2:
                d -= xi
            digits.append(d)
            h = (h - d) // xi
        G = _int_primitive(digits)
        if _int_divide(A, G) is not None and _int_divide(B, G) is not None:
            return G
        xi *= 2


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

def _int_prem(A: list[int], B: list[int]) -> list[int]:
    """The pseudo-remainder R, trimmed: lc(B)^(deg A - deg B + 1) * A = Q*B + R
    with deg R < deg B, for deg A >= deg B >= 1."""
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
    """res(A, B) of integer polynomials of degree >= 1 (trimmed lists) by the
    subresultant remainder sequence (Cohen, A Course in Computational
    Algebraic Number Theory, Alg. 3.3.7; Collins, J. ACM 14, 1967; Brown and
    Traub, J. ACM 18, 1971): contents come out first, then each
    pseudo-remainder is divided exactly by g*h^delta."""
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
    return s * t * (B[0] ** d // h ** (d - 1))


def resultant_bivariate(f_coeffs: Sequence[Poly], g_coeffs: Sequence[Poly]) -> Poly:
    """Resultant in the main variable of two polynomials whose coefficients
    are themselves rational polynomials in a second variable.

    The structural degrees n, m are fixed by the trimmed coefficient lists.
    The resultant is evaluated at enough integer nodes and recovered by
    Newton interpolation (Collins, J. ACM 18, 1971). The nodes come from
    the sequence 0, 1, -1, 2, -2, ..., skipping every node where the leading
    coefficient of f or of g vanishes: at the other nodes the specialized
    polynomials keep degrees n and m, so their Sylvester matrix is the
    specialized Sylvester matrix and their resultant is the value there.
    At most deg lc(f) + deg lc(g) nodes are skipped. Each value is the
    subresultant resultant of two integer polynomials (_int_resultant).

    All of it runs on integers. With cf, cg the lcm of the coefficient
    denominators of f and g, res(cf*f, cg*g) = cf^m * cg^n * res(f, g) is a
    polynomial R in Z[t], since its Sylvester matrix has entries in Z[t].
    Its divided differences at distinct integer nodes, in any order and with
    any gaps, are integers on every sub-range: the Newton basis
    (t - x0)...(t - x(i-1)) of any run of nodes is monic in Z[t], so
    dividing R by it step by step never leaves Z[t], and the coefficients of
    R in that basis are its divided differences. So each Newton step divides
    exactly, and only the expanded R is divided by cf^m * cg^n.
    """
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
    if n == 0:
        return f[0] ** m
    if m == 0:
        return g[0] ** n
    cf = math.lcm(*(c.denominator for p in f for c in p.coeffs))
    cg = math.lcm(*(c.denominator for p in g for c in p.coeffs))
    fi = [[c.numerator * (cf // c.denominator) for c in p.coeffs] for p in f]
    gi = [[c.numerator * (cg // c.denominator) for c in p.coeffs] for p in g]
    # a degree bound for R, plus one; each list ends in a nonzero polynomial
    count = m * max(p.degree for p in f) + n * max(p.degree for p in g) + 1
    xs, coef = [], []
    step = 0
    while len(xs) < count:
        x = (step + 1) // 2 if step % 2 else -(step // 2)
        step += 1
        F, G = _int_horner_all(fi, x), _int_horner_all(gi, x)
        if F[-1] and G[-1]:
            xs.append(x)
            coef.append(_int_resultant(F, G))
    for j in range(1, count):
        for i in range(count - 1, j - 1, -1):
            coef[i] = (coef[i] - coef[i - 1]) // (xs[i] - xs[i - j])
    expanded = [coef[-1]]
    for i in range(count - 2, -1, -1):
        # expanded <- expanded * (t - xs[i]) + coef[i]
        shifted = [0, *expanded]
        for k, c in enumerate(expanded):
            shifted[k] -= xs[i] * c
        shifted[0] += coef[i]
        expanded = shifted
    scale = cf ** m * cg ** n
    return Poly([Fraction(v, scale) for v in expanded])


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
    lead = P[-1]
    return Poly([Fraction(c, lead) for c in P])


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

def rational_roots(p: Poly) -> list[tuple[Fraction, int]]:
    """All rational roots of a nonzero p over Q with exact multiplicities,
    ascending by value.

    The roots of each factor of Yun's decomposition in Z[x] carry that
    factor's multiplicity; the factors are squarefree and pairwise coprime,
    so no root is found twice and none needs its multiplicity counted."""
    if p.is_zero:
        raise ZeroInput("rational roots of 0")
    if p.degree < 1:
        return []
    found = []
    for P, mult in _int_yun(_to_int_primitive(p)):
        found.extend((r, mult) for r in _int_rational_roots(P))
    found.sort(key=lambda rm: rm[0])
    return found


def divide_out_roots(f: Poly, roots: Sequence[Fraction]) -> tuple[list[tuple[Fraction, int]], Poly]:
    """Divide every listed rational root out of a nonzero f over Q, as often
    as it divides f.

    Returns the (root, multiplicity in f) of the listed roots of f, in list
    order, and the monic quotient. Runs on the primitive integer polynomial:
    r = u/v in lowest terms is a root exactly when the primitive v*x - u
    divides it in Z[x] (Gauss's lemma)."""
    A = _to_int_primitive(f)
    found = []
    for r in roots:
        linear = [-r.numerator, r.denominator]
        mult = 0
        while (Q := _int_divide(A, linear)) is not None:
            A = Q
            mult += 1
        if mult:
            found.append((r, mult))
    return found, _int_to_monic(A)


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
        s = math.isqrt(disc) if disc >= 0 else -1
        if s * s != disc:
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


def _int_homogeneous_value(g: list[int], u: int, v: int) -> int:
    """v^d * g(u/v) for d = deg g, by Horner's rule on integers."""
    acc, vpow = g[-1], 1
    for c in reversed(g[:-1]):
        vpow *= v
        acc = acc * u + c * vpow
    return acc


# Trying every residue of a 3-digit prime costs less than one x^p mod g, and
# few such primes divide lc * disc.
_FIRST_SCAN_PRIME = 101


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
            gp = [c % p for c in g]
            roots = [r for r in range(p) if _horner_mod(gp, r, p) == 0]
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
