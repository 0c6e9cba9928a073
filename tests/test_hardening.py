"""Contracts at the edges: the torsion order loop at its bound and against a
plain reference loop, the unchecked group law the loops rely on, the
re-verification of emitted points, the rational parser and flag validation
behind the CLI, the pinned trisection defect, and the ban on assert in the
package."""

from __future__ import annotations

import ast
import json
import math
import pathlib
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import fibdense
import fibdense.density as density
import fibdense.elliptic as elliptic
from fibdense.cli import main
from fibdense.density import densify
from fibdense.elliptic import (
    INFINITY,
    EllipticCurve,
    InfiniteOrder,
    Point,
    Torsion,
    _add_unchecked,
    _mul_unchecked,
    ec_add,
    ec_mul,
    ec_neg,
    smallest_order,
    torsion_certify,
)
from fibdense.errors import DomainError
from fibdense.exactmath import NumField, poly, ratfn
from fibdense.fibration import (
    ConstantX,
    FibrationModel,
    Parametrized,
    ZeroSection,
    specialize,
    tau_map,
    trace_cycle,
)
from fibdense.specfile import parse_spec

# 11a3 in short form: (-12, 108) has order 5
E11 = EllipticCurve(F(-432), F(8208))
P5 = Point(F(-12), F(108))

WORKED = {
    "fibration": {"a": {"num": ["0", "1"]}, "b": {"num": ["1"]}},
    "multisection": {"kind": "constant_x", "x": "1"},
    "params": {"height_bound": 3, "k_max": 2},
}


def _run(tmp_path, spec, *flags):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    return main(["densify", str(path), "--out", str(tmp_path / "out"), *flags])


def _plain_order(curve, p, bound):
    """Reference: least m <= bound with [m]p = O by repeated checked addition,
    with no integrality exit."""
    acc = p
    for m in range(1, bound + 1):
        if acc.is_infinity:
            return m
        acc = ec_add(curve, acc, p)
    return None


def _tate_normal_form(order, t):
    """(curve, P) with P = (0, 0) of E(b, c): y^2 + (1 - c)xy - by = x^3 - bx^2
    moved to short Weierstrass form; P has the given order (Kubert's table)."""
    if order == 4:
        b, c = t, F(0)
    elif order == 5:
        b, c = t, t
    elif order == 6:
        b, c = t + t * t, t
    elif order == 7:
        b, c = t**3 - t**2, t**2 - t
    elif order == 8:
        b = (2 * t - 1) * (t - 1)
        c = b / t
    elif order == 9:
        c = t * t * (t - 1)
        b = c * (t * t - t + 1)
    elif order == 10:
        d = t * t / (t - (t - 1) ** 2)
        c = t * d - t
        b = c * d
    else:  # 12
        m = (3 * t - 3 * t * t - 1) / (t - 1)
        f = m / (1 - t)
        d = m + t
        c = f * (d - 1)
        b = c * d
    a1, a3 = 1 - c, -b
    b2, b4, b6 = a1 * a1 - 4 * b, a1 * a3, a3 * a3
    curve = EllipticCurve(b4 / 2 - b2 * b2 / 48, b6 / 4 - b2 * b4 / 24 + b2**3 / 864)
    return curve, Point(b2 / 12, a3 / 2)


def _rescale(curve, p, lam):
    """The isomorphic model (x, y) -> (lam^2 x, lam^3 y)."""
    scaled = EllipticCurve(lam**4 * curve.a, lam**6 * curve.b)
    return scaled, p if p.is_infinity else Point(lam**2 * p.x, lam**3 * p.y)


small_q = st.builds(F, st.integers(-12, 12), st.integers(1, 6))
nonzero_q = small_q.filter(bool)


@st.composite
def curve_through_point(draw):
    """A random curve over Q through a random point: a, x, y drawn, b solved."""
    a, x, y = draw(small_q), draw(small_q), draw(small_q)
    b = y * y - x**3 - a * x
    assume(4 * a**3 + 27 * b * b != 0)
    return EllipticCurve(a, b), Point(x, y)


@st.composite
def torsion_point(draw):
    """A point of known order: every Mazur order from Tate normal form or an
    explicit 2- or 3-torsion point, times a multiplier, on a rescaled model."""
    order = draw(st.sampled_from([2, 3, 4, 5, 6, 7, 8, 9, 10, 12]))
    if order == 2:
        a, r = draw(small_q), draw(small_q)
        b = -r**3 - a * r  # (r, 0) on y^2 = x^3 + ax + b
        assume(4 * a**3 + 27 * b * b != 0)
        curve, p = EllipticCurve(a, b), Point(r, F(0))
    elif order == 3:
        k = draw(nonzero_q)
        curve, p = EllipticCurve(F(0), k * k), Point(F(0), k)
    else:
        try:
            curve, p = _tate_normal_form(order, draw(nonzero_q))
        except (ZeroDivisionError, DomainError):
            assume(False)
    k = draw(st.integers(1, order))
    curve, p = _rescale(curve, ec_mul(curve, k, p), draw(nonzero_q))
    return curve, p, order // math.gcd(k, order)


class TestTorsionLoop:
    def test_order_just_past_the_bound_is_not_reported_as_the_bound(self):
        assert smallest_order(E11, P5, 4) is None
        assert smallest_order(E11, P5, 5) == 5
        assert torsion_certify(E11, P5) == Torsion(5)

    def test_mazur_check_survives_optimization(self, monkeypatch):
        monkeypatch.setattr(elliptic, "MAZUR_ORDERS", elliptic.MAZUR_ORDERS - {5})
        with pytest.raises(DomainError, match="order 5"):
            torsion_certify(E11, P5)

    def test_integral_point_with_non_integral_double_stops_at_the_double(self, monkeypatch):
        # y^2 = x^3 - 2: P = (3, 5) is integral, 2P = (129/100, -383/1000) is not
        curve, p = EllipticCurve(F(0), F(-2)), Point(F(3), F(5))
        assert ec_mul(curve, 2, p) == Point(F(129, 100), F(-383, 1000))
        additions = []

        def counting(*args):
            additions.append(args)
            return _add_unchecked(*args)

        monkeypatch.setattr(elliptic, "_add_unchecked", counting)
        assert smallest_order(curve, p, 12) is None
        assert len(additions) == 1
        monkeypatch.undo()
        assert _plain_order(curve, p, 12) is None
        assert torsion_certify(curve, p) == InfiniteOrder()

    @settings(max_examples=60, deadline=None)
    @given(
        st.one_of(curve_through_point().map(lambda cp: (*cp, None)), torsion_point()),
        st.integers(1, 20),
    )
    def test_verdicts_match_the_plain_loop(self, case, bound):
        curve, p, order = case
        twelve = _plain_order(curve, p, 12)
        if order is not None:
            assert twelve == order
        expected = _plain_order(curve, p, bound)
        assert smallest_order(curve, p, bound) == expected
        assert torsion_certify(curve, p) == (InfiniteOrder() if twelve is None else Torsion(twelve))


def _group_law_holds(curve, p, q, r):
    """Closure, identity, inverses, commutativity and associativity of the
    unchecked group law, and [n]p against repeated addition."""
    for s in (p, q, r):
        assert curve.contains(s)
        assert _add_unchecked(curve, s, INFINITY) == s
        assert _add_unchecked(curve, s, ec_neg(s)) == INFINITY
    pq = _add_unchecked(curve, p, q)
    assert curve.contains(pq)
    assert pq == _add_unchecked(curve, q, p) == ec_add(curve, p, q)
    left = _add_unchecked(curve, pq, r)
    assert curve.contains(left)
    assert left == _add_unchecked(curve, p, _add_unchecked(curve, q, r))
    acc = INFINITY
    for n in range(5):
        assert _mul_unchecked(curve, n, p) == acc == ec_mul(curve, n, p)
        assert _mul_unchecked(curve, -n, p) == ec_neg(acc)
        acc = _add_unchecked(curve, acc, p)


@st.composite
def fiber_with_points(draw, elements):
    """A curve through two random points (a and b solved), and three points
    of the group they generate."""
    x1, x2 = draw(elements), draw(elements)
    assume(x1 != x2)
    y1, y2 = draw(elements), draw(elements)
    a = ((y1 * y1 - x1**3) - (y2 * y2 - x2**3)) / (x1 - x2)
    b = y1 * y1 - x1**3 - a * x1
    assume(4 * a**3 + 27 * b * b != 0)
    curve, p, q = EllipticCurve(a, b), Point(x1, y1), Point(x2, y2)
    combos = []
    for _ in range(3):
        i, j = draw(st.integers(-2, 2)), draw(st.integers(-2, 2))
        combos.append(_add_unchecked(curve, _mul_unchecked(curve, i, p), _mul_unchecked(curve, j, q)))
    return curve, combos


SQRT2 = NumField(poly([-2, 0, 1]), "r")
in_sqrt2 = st.builds(lambda u, v: SQRT2.embed(u) + SQRT2.embed(v) * SQRT2.gen, small_q, small_q)


@settings(max_examples=40, deadline=None)
@given(fiber_with_points(small_q))
def test_group_law_on_random_rational_fibers(case):
    curve, (p, q, r) = case
    _group_law_holds(curve, p, q, r)


@settings(max_examples=20, deadline=None)
@given(fiber_with_points(in_sqrt2))
def test_group_law_over_a_quadratic_field(case):
    curve, (p, q, r) = case
    _group_law_holds(curve, p, q, r)


@st.composite
def fibration_with_multisection(draw):
    """A fibration whose fiber at t0 is a random smooth curve through two
    random points, a multisection of it, and two points of that fiber.

    a(t) = a0 + alpha (t - t0), and b(t) is solved so that the line
    (x(t), y(t)) = (xs + xi (t - t0), ys + eta (t - t0)) through a third
    group element S of the fiber is a section; the multisection is that
    section (trace S), the zero section, or a constant-x bisection."""
    curve, (p, q, s) = draw(fiber_with_points(small_q))
    assume(not p.is_infinity and not q.is_infinity and not s.is_infinity)
    t0, alpha, xi, eta = (draw(small_q) for _ in range(4))
    shift = poly([-t0, 1])
    a = poly([curve.a]) + shift * alpha
    x = poly([s.x]) + shift * xi
    y = poly([s.y]) + shift * eta
    b = y * y - x * x * x - a * x
    try:
        model = FibrationModel(ratfn(a), ratfn(b))
    except DomainError:
        assume(False)
    section = Parametrized(ratfn([0, 1]), ratfn(x), ratfn(y))
    multisection = draw(st.one_of(st.just(section), st.just(ZeroSection()), small_q.map(ConstantX)))
    return model, multisection, t0, p, q


@settings(max_examples=60, deadline=None)
@given(fibration_with_multisection())
def test_tau_difference_law_on_random_fibers(case):
    # tau(p) = [d]p - trace, so tau(p) - tau(q) = [d](p - q) for any p, q on the fiber
    model, m, t0, p, q = case
    fiber = specialize(model, t0)
    lhs = ec_add(fiber, tau_map(model, m, p, t0), ec_neg(tau_map(model, m, q, t0)))
    assert lhs == ec_mul(fiber, m.degree, ec_add(fiber, p, ec_neg(q)))


def test_translates_are_re_verified_before_they_are_emitted(monkeypatch):
    # (0, 0) is on no fiber of y^2 = x^3 + t x + 1
    model = FibrationModel(ratfn([0, 1]), ratfn([1]))
    monkeypatch.setattr(density, "_add_unchecked", lambda curve, p, q: Point(F(0), F(0)))
    with pytest.raises(DomainError, match="failed on-curve re-verification"):
        densify(model, ConstantX(F(1)), 3, 2)


@pytest.mark.parametrize("text", ["1.5", "1e3", "1_000", 1, " 3 ", "3\n", "\u0663/\u0664"])
def test_spec_rationals_are_p_or_p_over_q(tmp_path, capsys, text):
    spec = json.loads(json.dumps(WORKED))
    spec["fibration"]["b"]["num"][0] = text
    assert _run(tmp_path, spec) == 2
    assert "'fibration.b.num[0]'" in capsys.readouterr().err


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.integers(-10**30, 10**30), st.integers(1, 10**30)), min_size=1, max_size=4))
def test_spec_rationals_round_trip(pairs):
    texts = [f"{p}/{q}" for p, q in pairs]
    spec = parse_spec(json.dumps({"point": [texts[0], texts[-1]], "params": {"samples": texts}}))
    values = tuple(F(p, q) for p, q in pairs)
    assert spec.samples == values
    assert spec.points == ((values[0], values[-1]),)


@pytest.mark.parametrize("key", ["000\u00b2", "000\u0664"])
def test_cone_quartic_keys_are_ascii_digits(tmp_path, capsys, key):
    # a superscript two passes str.isdigit but not int(); an Arabic-Indic
    # four passes both and would be read as the exponent 4
    path = tmp_path / "cone.json"
    path.write_text(json.dumps({"cone_quartic": {key: "1", "1120": "1", "4000": "-2"}}), encoding="utf-8")
    assert main(["enriques-restrict", str(path)]) == 2
    assert f"'cone_quartic.{key}'" in capsys.readouterr().err


@pytest.mark.parametrize("sign", [True, 1.0, -1.0])
def test_graph_sign_is_the_int_one_or_minus_one(tmp_path, capsys, sign):
    spec = {
        "fibration": WORKED["fibration"],
        "multisection": {
            "kind": "graph_on_quartic",
            "p": ["0", "0", "1"],
            "fiber_coeffs": [["-1"], ["0"], ["0"], ["0"], ["1"]],
            "sign": sign,
        },
    }
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    assert main(["analyze", str(path)]) == 2
    assert "'multisection.sign'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag, value, field",
    [
        ("--k-max", "-1", "k_max"),
        ("--height-bound", "-1", "height_bound"),
        ("--m-max", "0", "m_max"),
    ],
)
def test_flags_pass_the_spec_validator(tmp_path, capsys, flag, value, field):
    assert _run(tmp_path, WORKED, flag, value) == 2
    assert f"'params.{field}'" in capsys.readouterr().err


def test_threads_is_not_an_option(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        _run(tmp_path, WORKED, "--threads", "2")
    assert exc.value.code == 2
    spec = json.loads(json.dumps(WORKED))
    spec["params"]["threads"] = 2
    assert _run(tmp_path, spec) == 2
    assert "'params.threads': unknown field" in capsys.readouterr().err


def test_torsion_bound_is_not_an_option(tmp_path, capsys):
    # verdicts use the field's uniform bound: Mazur's 12 over Q, 18 over a quadratic field
    with pytest.raises(SystemExit) as exc:
        _run(tmp_path, WORKED, "--torsion-bound", "12")
    assert exc.value.code == 2
    spec = json.loads(json.dumps(WORKED))
    spec["params"]["torsion_bound"] = "12"
    assert _run(tmp_path, spec) == 2
    assert "'params.torsion_bound': unknown field" in capsys.readouterr().err


def test_no_runtime_check_relies_on_assert():
    # python -O strips assert statements, and with them any check written as one
    root = pathlib.Path(fibdense.__file__).parent
    modules = sorted(root.rglob("*.py"))
    assert len(modules) >= 10
    found = [
        f"{path.relative_to(root)}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found, f"assert statements in fibdense: {found}"


# top-level names kept although no code in fibdense reads them
UNREFERENCED_ALLOWED = {
    "ec_sub": "test oracle for the group law",
    "j_invariant": "test oracle for isomorphic fibers",
    "quartic_j_invariant": "test oracle for the quartic-to-Weierstrass conversion",
    "poly": "test constructor",
    "ratfn": "test constructor",
    "multisection_from_section": "the cone-to-points pipeline of ROADMAP item 3",
}


def test_every_top_level_name_is_referenced():
    # a function, class or constant stays only if other code in fibdense
    # reads it; imports and __all__ entries are not reads, and neither is a
    # definition's reference to itself
    root = pathlib.Path(fibdense.__file__).parent
    defined, reads = [], []
    for path in sorted(root.rglob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8"), filename=str(path)).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = {node.name}
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = {t.id for t in targets if isinstance(t, ast.Name)}
            else:
                names = set()
            owner = {(path, name) for name in names}
            defined.extend((path, name) for name in names if not name.startswith("__"))
            reads.extend(
                (sub.id, owner)
                for sub in ast.walk(node)
                if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)
            )
    unreferenced = sorted(
        f"{path.relative_to(root)}:{name}"
        for path, name in defined
        if name not in UNREFERENCED_ALLOWED
        and not any(read == name and (path, name) not in owner for read, owner in reads)
    )
    assert not unreferenced, f"top-level names nothing in fibdense reads: {unreferenced}"


# methods and properties kept although no attribute read in fibdense names them
UNREFERENCED_METHODS_ALLOWED = {
    "ConeQuartic.evaluate": "the exact check on the cone of ROADMAP items 3 and 7",
    "RamificationData.evaluate": "the exact check w^2 = F(t, z) of ROADMAP item 3",
    "RamificationData.coeffs_infinity": "the fixed point at t = infinity of ROADMAP item 7",
}


def test_every_method_is_referenced():
    # a method or property of a fibdense class stays only if some attribute
    # read in fibdense names it; dunders, __post_init__ among them, are exempt
    root = pathlib.Path(fibdense.__file__).parent
    methods, reads = [], set()
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        methods.extend(
            (path, node.name, item.name)
            for node in tree.body
            if isinstance(node, ast.ClassDef)
            for item in node.body
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not (item.name.startswith("__") and item.name.endswith("__"))
        )
        reads.update(
            sub.attr
            for sub in ast.walk(tree)
            if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load)
        )
    unreferenced = sorted(
        f"{path.relative_to(root)}:{cls}.{name}"
        for path, cls, name in methods
        if f"{cls}.{name}" not in UNREFERENCED_METHODS_ALLOWED and name not in reads
    )
    assert not unreferenced, f"methods and properties nothing in fibdense reads: {unreferenced}"


@pytest.mark.xfail(raises=AttributeError, strict=True, reason="known defect: a constant y(s) "
                   "evaluates to a Fraction at a quadratic s, and the Galois check reads .coeffs")
def test_trisection_with_nonzero_constant_y():
    model = FibrationModel(ratfn([0, 1]), ratfn([5]))  # y^2 = x^3 + t x + 5
    trisection = Parametrized(ratfn([-1, 0, 0, -1], [0, 1]), ratfn([0, 1]), ratfn([2]))
    report = densify(model, trisection, 10)
    assert report.fibers_attempted > 0


def test_constant_x_at_quadratic_parameters_traces_to_the_origin():
    # y^2 = x^3 + t - 1 with s -> (s^2, 1, s): at t = 2 the points are (1, +-sqrt 2)
    model = FibrationModel(ratfn([0]), ratfn([-1, 1]))
    m = Parametrized(ratfn([0, 0, 1]), ratfn([1]), ratfn([0, 1]))
    cycle, trace = trace_cycle(model, m, F(2))
    assert len(cycle.support) == 2 and trace.value.is_infinity
