"""Independent output checks.

Every check recomputes from the generator's own description of the job
(``Job.truth``) with ``fractions.Fraction``; nothing here imports fibdense.
sympy is used only for bitangent candidates over quadratic fields, and is
imported only when such a candidate appears.

``check_job`` returns a list of problems, empty when the outputs are
correct, and the work the job completed as the checks counted it.
"""

from __future__ import annotations

import csv
import json
import math
import os
import re
from fractions import Fraction

# -- elliptic curves over Q, for the densify checks ---------------------------


def _eval(coeffs, t: Fraction) -> Fraction:
    return sum((c * t**k for k, c in enumerate(coeffs)), Fraction(0))


def _on_curve(a: Fraction, b: Fraction, x: Fraction, y: Fraction) -> bool:
    return y * y == x * x * x + a * x + b


def _add(a: Fraction, p, q):
    """Chord-tangent sum on y^2 = x^3 + a x + b; None is the origin."""
    if p is None:
        return q
    if q is None:
        return p
    (x1, y1), (x2, y2) = p, q
    if x1 == x2:
        if y1 == -y2:
            return None
        slope = (3 * x1 * x1 + a) / (2 * y1)
    else:
        slope = (y2 - y1) / (x2 - x1)
    x3 = slope * slope - x1 - x2
    return x3, slope * (x1 - x3) - y1


def _exact_order(a: Fraction, p, m: int) -> bool:
    acc = p
    for _ in range(1, m):
        if acc is None:
            return False  # order is smaller than m
        acc = _add(a, acc, p)
    return acc is None


def _pair(value):
    return None if value == "inf" else (Fraction(value[0]), Fraction(value[1]))


def _height(x: Fraction) -> int:
    return max(abs(x.numerator), x.denominator)


def _fiber_count_constant_x(height_bound: int) -> int:
    """Distinct y^2 over rationals y of height <= H: one fiber each."""
    return sum(
        1
        for p in range(height_bound + 1)
        for q in range(1, height_bound + 1)
        if math.gcd(p, q) == 1
    )


_STDOUT_COUNTS = {
    "fibers attempted": "fibers_attempted",
    "fibers certified": "fibers_certified",
    "points emitted": "points_emitted",
    "max height seen": "max_height_seen",
}


def check_densify(job, out_dir: str, stdout: str) -> tuple[list[str], dict]:
    truth = job.truth
    problems = []
    with open(os.path.join(out_dir, "report.json"), encoding="utf-8") as fh:
        report = json.load(fh)

    printed = {}
    for line in stdout.splitlines():
        label, _, value = line.partition(": ")
        if label in _STDOUT_COUNTS:
            printed[_STDOUT_COUNTS[label]] = int(value)
    for key in _STDOUT_COUNTS.values():
        if printed.get(key) != report[key]:
            problems.append(f"stdout {key}={printed.get(key)} but report.json has {report[key]}")

    fibers = report["per_fiber"]
    if len(fibers) != report["fibers_attempted"]:
        problems.append("per_fiber length differs from fibers_attempted")
    certified = sum(1 for f in fibers if f["verdict"] == "non_torsion")
    if certified != report["fibers_certified"]:
        problems.append("fibers_certified differs from the non_torsion verdicts")
    if "x" in truth and report["fibers_attempted"] != _fiber_count_constant_x(truth["height_bound"]):
        problems.append("fibers_attempted differs from the number of distinct y^2 values")

    expected_rows = []
    for f in fibers:
        b = Fraction(f["b"])
        a_b, b_b = _eval(truth["a"], b), _eval(truth["b"], b)
        base = _pair(f["base"])
        if base is not None:
            x, y = base
            if not _on_curve(a_b, b_b, x, y):
                problems.append(f"base point off the fiber at b={f['b']}")
            if "x" in truth and x != truth["x"]:
                problems.append(f"base point x={x} is not the constant {truth['x']}")
            if "c" in truth:
                c0 = truth["c"] * truth["c"] - truth["b"][0]
                if y != truth["c"] or (x == 0 or b != (c0 - x**3) / x):
                    problems.append(f"base point is not on the trisection at b={f['b']}")
        tau = f["tau"]
        if tau is not None and tau != "inf":
            tau = _pair(tau)
            if not _on_curve(a_b, b_b, *tau):
                problems.append(f"tau image off the fiber at b={f['b']}")
        if f["verdict"] == "torsion":
            if tau == "inf":
                order_ok = f["order"] == 1
            else:
                order_ok = tau is not None and _exact_order(a_b, tau, f["order"])
            if not order_ok:
                problems.append(f"tau at b={f['b']} does not have order {f['order']}")
        for pt in f["points"]:
            expected_rows.append([f["b"], pt["x"], pt["y"], str(pt["k"])])

    with open(os.path.join(out_dir, "points.csv"), encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != ["b", "x", "y", "k"]:
        problems.append("points.csv header is not b,x,y,k")
    rows = rows[1:]
    if rows != expected_rows:
        problems.append("points.csv rows differ from report.json points")
    if len(rows) != report["points_emitted"]:
        problems.append("points.csv row count differs from points_emitted")
    max_height = 0
    for b, x, y, _k in rows:
        b, x, y = Fraction(b), Fraction(x), Fraction(y)
        if not _on_curve(_eval(truth["a"], b), _eval(truth["b"], b), x, y):
            problems.append(f"points.csv row ({b}, {x}, {y}) is off its fiber")
            break
        max_height = max(max_height, _height(x))
    if max_height != report["max_height_seen"]:
        problems.append("max_height_seen differs from the largest emitted x height")
    return problems, {"fibers": report["fibers_attempted"], "points": report["points_emitted"]}


# -- cone quartics ------------------------------------------------------------


def _scalar(value):
    """A Fraction, or (coords, minpoly) for an element of a quadratic field."""
    if isinstance(value, str):
        return Fraction(value)
    return (
        tuple(Fraction(c) for c in value["coords"]),
        tuple(Fraction(c) for c in value["minpoly"]),
    )


def _double_root_rational(f: dict, section, t: Fraction, z: Fraction) -> bool:
    """Does G(t) = F(t, s(t)) vanish to order >= 2 at t, with s(t) = z?"""
    c0, c1, c2 = section
    s = c0 + c1 * t + c2 * t * t
    ds = c1 + 2 * c2 * t
    if s != z:
        return False
    g = dg = Fraction(0)
    for (i, k), v in f.items():
        g += v * t**k * s**i
        # dG/dt = F_t + F_z s'
        if k:
            dg += v * k * t ** (k - 1) * s**i
        if i:
            dg += v * i * t**k * s ** (i - 1) * ds
    return g == 0 and dg == 0


def _double_root_quadratic(f: dict, section, t, z) -> bool:
    import sympy

    theta, var = sympy.symbols("theta tvar")
    minpolys = {v[1] for v in (*section, t, z) if isinstance(v, tuple)}
    if len(minpolys) != 1:
        return False
    (minpoly,) = minpolys
    m = sum(sympy.Rational(c.numerator, c.denominator) * theta**i for i, c in enumerate(minpoly))

    def sym(v):
        if isinstance(v, tuple):
            return sum(sympy.Rational(c.numerator, c.denominator) * theta**i for i, c in enumerate(v[0]))
        return sympy.Rational(v.numerator, v.denominator)

    c0, c1, c2 = (sym(c) for c in section)
    s = c0 + c1 * var + c2 * var**2
    g = sum(sym(v) * var**k * s**i for (i, k), v in f.items())
    tv = sym(t)
    values = (s.subs(var, tv) - sym(z), g.subs(var, tv), sympy.diff(g, var).subs(var, tv))
    return all(sympy.rem(sympy.expand(e), m, theta) == 0 for e in values)


def _double_root(f, section, t, z) -> bool:
    if all(isinstance(v, Fraction) for v in (*section, t, z)):
        return _double_root_rational(f, section, t, z)
    return _double_root_quadratic(f, section, t, z)


_TERM = re.compile(r"^(?:(?P<coef>-?[0-9/]+)\*)?(?P<sign>-)?t(?:\^(?P<exp>[0-9]+))?$")


def _parse_poly(text: str) -> dict:
    """Parse the program's printed polynomial in t into {degree: coefficient}."""
    out = {}
    for term in text.replace(" - ", " + -").split(" + "):
        match = _TERM.match(term)
        if match:
            coef = Fraction(match["coef"]) if match["coef"] else Fraction(-1 if match["sign"] else 1)
            out[int(match["exp"] or 1)] = coef
        else:
            out[0] = Fraction(term)
    return out


def _j_invariant(a: Fraction, b: Fraction):
    den = 4 * a**3 + 27 * b**2
    return None if den == 0 else 1728 * 4 * a**3 / den


def _quartic_j(f: dict, t: Fraction):
    """j of w^2 = z^4 + f2 z^2 + f0 through the invariants I, J of the quartic."""
    q = [sum(v * t**k for (i, k), v in f.items() if i == deg) for deg in range(5)]
    a, b, c, d, e = q[4], q[3], q[2], q[1], q[0]
    inv_i = 12 * a * e - 3 * b * d + c * c
    inv_j = 72 * a * c * e + 9 * b * c * d - 27 * a * d * d - 27 * e * b * b - 2 * c**3
    return _j_invariant(-27 * inv_i, -27 * inv_j)


def check_cone(job, out_dir: str, stdout: list) -> tuple[list[str], dict]:
    truth = job.truth
    f = truth["f"]
    problems = []
    with open(os.path.join(out_dir, "bitangents.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    results = doc["results"]
    if [tuple(Fraction(c) for c in r["base_point"]) for r in results] != list(truth["points"]):
        problems.append("bitangents.json base points differ from the spec")
        return problems, {}
    printed = [line for line in stdout[0].splitlines() if line.startswith("base point")]
    for line, result in zip(printed, results):
        if not line.endswith(f": {len(result['candidates'])} candidate(s)"):
            problems.append(f"stdout '{line}' disagrees with bitangents.json")
    if len(printed) != len(results):
        problems.append("stdout lists a different number of base points")
    for result in results:
        t0, z0 = (Fraction(c) for c in result["base_point"])
        for cand in result["candidates"]:
            section = tuple(_scalar(cand[k]) for k in ("c0", "c1", "c2"))
            tangencies = [(t0, z0)] + [(_scalar(t), _scalar(z)) for t, z in cand["second_tangency"]]
            for t, z in tangencies:
                if not _double_root(f, section, t, z):
                    problems.append(f"candidate {cand['parameter']} at base {result['base_point']} "
                                    f"has no double root at t={t}")

    lines = dict(line.split(" = ", 1) for line in stdout[1].splitlines() if " = " in line)
    if lines.get("twist") != "1":
        problems.append("enriques-model did not report twist = 1 for a monic quartic")
    if not any(line.startswith("e1 - e2: ") for line in stdout[1].splitlines()):
        problems.append("enriques-model printed no e1 - e2 verdict")
    try:
        a_poly, b_poly = _parse_poly(lines["a(t)"]), _parse_poly(lines["b(t)"])
    except (KeyError, ValueError, ZeroDivisionError):
        problems.append("enriques-model a(t)/b(t) are not polynomials in t")
        return problems, {}
    for t in (Fraction(0), Fraction(1), Fraction(2), Fraction(-1, 3)):
        a_t = sum(c * t**k for k, c in a_poly.items())
        b_t = sum(c * t**k for k, c in b_poly.items())
        if _j_invariant(a_t, b_t) != _quartic_j(f, t):
            problems.append(f"Weierstrass model and quartic disagree on j at t={t}")
    return problems, {"searches": len(results)}


def check_job(result) -> tuple[list[str], dict]:
    job = result.job
    if job.commands == ("densify",):
        return check_densify(job, result.out_dir, result.stdout[0])
    return check_cone(job, result.out_dir, result.stdout)
