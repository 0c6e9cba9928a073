"""The trace of a fiber cycle summed over Q, checked against the sum taken
point by point over each field: the closed forms of every multisection kind
but a parametrized curve, and the support path of a parametrized curve,
which sums each conjugate pair by its chord. A cycle is (rational, pairs)
with one point per conjugate pair, checked against the cycle evaluated at
every root of the fiber equation on its own. A parametrized curve given
tau_map's base point divides that point's parameter out of its fiber
equation first, and lists the same cycle as without it."""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction as F

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import fibdense.fibration as fibration
from fibdense.cli import main
from fibdense.elliptic import (
    INFINITY,
    EllipticCurve,
    Point,
    _add_unchecked,
    _mul_unchecked,
    ec_add,
    ec_mul,
    ec_neg,
    quartic_to_weierstrass,
)
from fibdense.errors import DomainError, TraceFieldTooLarge
from fibdense.exactmath import NumField, NumFieldElement, RatFn, is_square, poly, ratfn
from fibdense.fibration import (
    ConstantX,
    FibrationModel,
    GraphOnQuartic,
    Parametrized,
    SplitList,
    ZeroSection,
    _pair_sum,
    fiber_cycle,
    quartic_on_graph,
    small_field_roots,
    specialize,
    tau_map,
    trace_cycle,
)

small = st.integers(-6, 6)
rationals = st.builds(F, st.integers(-30, 30), st.integers(1, 6))


def _descend(p: Point) -> Point:
    """p over Q; as_fraction raises DomainError when a coordinate is not
    rational."""
    if p.is_infinity or not isinstance(p.x, NumFieldElement):
        return p
    return Point(p.x.as_fraction(), p.y.as_fraction())


def _support_sum(curve: EllipticCurve, support) -> Point:
    """The reference trace: every point checked on the curve, the points over
    Q summed with their multiplicities, the points over each quadratic field
    summed in that field and the sum descended to Q."""
    total = INFINITY
    by_field: dict = {}
    for pt, mult in support:
        if not curve.contains(pt):
            raise DomainError(f"{pt} is off the curve")
        if isinstance(pt.x, NumFieldElement):
            by_field.setdefault(pt.x.field, []).append((pt, mult))
        else:
            total = _add_unchecked(curve, total, _mul_unchecked(curve, mult, pt))
    for pts in by_field.values():
        acc = INFINITY
        for pt, mult in pts:
            acc = _add_unchecked(curve, acc, _mul_unchecked(curve, mult, pt))
        total = _add_unchecked(curve, total, _descend(acc))
    return total


@dataclass(frozen=True)
class FixedCycle:
    """A multisection whose cycle on every fiber is the given (rational,
    pairs), traced by the support path that a parametrized curve takes."""

    rational: tuple = ()
    pairs: tuple = ()

    @property
    def degree(self) -> int:
        return sum(m for _pt, m in self.rational) + 2 * sum(m for _pt, m in self.pairs)

    def cycle(self, fiber, b, p=None):
        return list(self.rational), list(self.pairs)

    trace = Parametrized.trace


@st.composite
def points_over_quadratic_fields(draw):
    """(curve over Q, P over Q(g)) with g^2 + p1*g + p0 = 0, p1 != 0, and
    the curve's a, b solved so that it passes through P. With bx = 0 the
    y-coordinate is chosen so that y^2 is rational."""
    p1 = draw(rationals.filter(bool))
    p0 = draw(rationals)
    assume(not is_square(p1 * p1 - 4 * p0))
    K = NumField(poly([p0, p1, 1]), "g")
    ax, bx, by = draw(rationals), draw(rationals), draw(rationals.filter(bool))
    if bx:
        x, y = NumFieldElement(K, (ax, bx)), NumFieldElement(K, (draw(rationals), by))
        rest = y * y - x * x * x  # = a*x + b
        a = rest.coeffs[1] / bx
        b = rest.coeffs[0] - a * ax
    else:
        x, y = NumFieldElement(K, (ax, 0)), NumFieldElement(K, (by * p1 / 2, by))
        a = draw(rationals)
        b = (y * y).as_fraction() - ax**3 - a * ax
    assume(4 * a**3 + 27 * b**2 != 0)
    curve = EllipticCurve(a, b)
    p = Point(x, y)
    assert curve.contains(p)
    return curve, p


def _conjugate(p: Point) -> Point:
    return Point(p.x.conjugate(), p.y.conjugate())


@settings(max_examples=150, deadline=None)
@given(points_over_quadratic_fields(), st.integers(1, 4))
def test_chord_pair_sum_matches_the_field_group_law(curve_point, mult):
    curve, p = curve_point
    expected = _descend(_add_unchecked(curve, p, _conjugate(p)))
    assert _pair_sum(p) == expected
    # with multiplicity m the pair contributes [m](P + conj P), summed over Q
    cycle = FixedCycle(pairs=((p, mult),))
    assert trace_cycle(curve, cycle, F(0)) == _mul_unchecked(curve, mult, expected)
    assert fiber_cycle(cycle, curve, F(0)) == ((p, mult), (_conjugate(p), mult))


def test_pair_sum_with_rational_x_is_the_point_at_infinity():
    K = NumField(poly([-3, 0, 1]), "w")
    curve = EllipticCurve(F(0), F(-5))  # y^2 = x^3 - 5 meets x = 2 at y = +-w
    # x over Q as a field element, and as a Fraction beside a quadratic y
    for p in (Point(K.embed(2), K.gen), Point(F(2), K.gen)):
        assert curve.contains(p)
        assert _pair_sum(p) is INFINITY
        assert trace_cycle(curve, FixedCycle(pairs=((p, 3),)), F(0)) is INFINITY


@settings(max_examples=80, deadline=None)
@given(points_over_quadratic_fields(), st.lists(st.integers(1, 3), min_size=1, max_size=3), st.randoms())
def test_pairing_sums_multiplicities_in_any_order(curve_point, splits, rng):
    """A pair listed as several entries, each standing for the pair by P or
    by conj P, in any order, sums as P and conj P each with the total."""
    curve, p = curve_point
    conj = _conjugate(p)
    pairs = [(rng.choice((p, conj)), m) for m in splits]
    rng.shuffle(pairs)
    cycle = FixedCycle(pairs=tuple(pairs))
    assert trace_cycle(curve, cycle, F(0)) == _support_sum(curve, [(p, sum(splits)), (conj, sum(splits))])


def test_off_curve_conjugate_pair_is_off_the_fiber():
    K = NumField(poly([-2, 0, 1]), "w")
    curve = EllipticCurve(F(0), F(-5))
    p = Point(K.embed(2), K.gen)  # on y^2 = x^3 - 6, not on this curve
    assert not curve.contains(p)
    # whichever point stands for the pair, it is checked
    for q in (p, _conjugate(p)):
        with pytest.raises(DomainError, match="off the fiber"):
            trace_cycle(curve, FixedCycle(pairs=((q, 1),)), F(0))
        with pytest.raises(DomainError, match="off the fiber"):
            fiber_cycle(FixedCycle(pairs=((q, 1),)), curve, F(0))


# -- trace_cycle against the reference sum on the multisection kinds --


def _eval(x_fn: RatFn, y_fn: RatFn, s) -> Point:
    xv, yv = x_fn(s), y_fn(s)
    return INFINITY if xv is None or yv is None else Point(xv, yv)


def _per_root(m, fiber, b):
    """(root, point, multiplicity) at every root of the fiber equation of a
    multisection that takes one, each root evaluated on its own, in the
    order small_field_roots lists them; a parametrized curve's points at
    s = infinity come first, with root None."""
    if isinstance(m, Parametrized):
        solver = m.t.num - b * m.t.den
        drop = m.degree - solver.degree
        head = [(None, _eval(m.x, m.y, None), drop)] if drop > 0 else []
        roots, unresolved = small_field_roots(solver, "s")
        if unresolved:
            raise DomainError("the fiber points need a larger field")
        return head + [(s, _eval(m.x, m.y, s), k) for s, k in roots]
    if isinstance(m, ConstantX):
        roots, _none = small_field_roots(poly([-(m.c**3 + fiber.a * m.c + fiber.b), 0, 1]), "w")
        return [(w, Point(w * 0 + m.c, w), k) for w, k in roots]
    forward = quartic_to_weierstrass([f(b) for f in m.fiber_coeffs], m.sign)[2]
    z0 = m.p(b)
    roots, _none = small_field_roots(poly([-quartic_on_graph(m.fiber_coeffs, m.p)(b), 0, 1]), "w")
    return [(w, forward(z0, w), k) for w, k in roots]


def _flat_cycle(m, fiber, b):
    """The cycle as (point, multiplicity) pairs, one for each root: the
    reference support. The zero section and a split list take no root, and
    every point they list is rational or O."""
    if isinstance(m, (ZeroSection, SplitList)):
        rational, pairs = m.cycle(fiber, b)
        assert pairs == []
        return rational
    return [(pt, k) for _r, pt, k in _per_root(m, fiber, b)]


def _check_against_reference(model: FibrationModel, m, b):
    """Compare the trace with the reference sum, and the checked support
    with the reference support, wherever the fiber is smooth and the
    reference succeeds; returns whether a comparison was made. Where the
    reference exists, neither the checked support nor the trace may refuse
    the cycle."""
    try:
        fiber = specialize(model, b)
    except DomainError:  # a pole or a singular fiber
        return False
    try:
        flat = _flat_cycle(m, fiber, b)
        expected = _support_sum(fiber, flat)
    except DomainError:  # TraceFieldTooLarge among them
        return False
    assert fiber_cycle(m, fiber, b) == tuple(flat)
    assert trace_cycle(fiber, m, b) == expected
    return True


@settings(max_examples=60, deadline=None)
@given(
    y_coeffs=st.lists(small, min_size=2, max_size=3).filter(lambda cs: cs[-1] != 0),
    const=small.filter(bool),
    params=st.lists(rationals, min_size=6, max_size=6),
)
@example(y_coeffs=[0, 1], const=1, params=[F(k) for k in range(-3, 3)])
def test_parametrized_trace_matches_reference(y_coeffs, const, params):
    """x = s and y = q(s) on y^2 = x^3 + t*x + B, so t(s) = (q(s)^2 - s^3 - B)/s."""
    q = poly(y_coeffs)
    t = RatFn(q * q - poly([0, 0, 0, 1]) - const, poly([0, 1]))
    m = Parametrized(t, ratfn([0, 1]), RatFn(q))
    model = FibrationModel(ratfn([0, 1]), ratfn([const]))
    compared = [_check_against_reference(model, m, t(s)) for s in params if s]
    assume(any(compared))


def _model(a, b):
    try:
        return FibrationModel(ratfn(list(a)), ratfn(list(b)))
    except DomainError:  # 4a^3 + 27b^2 = 0 identically
        assume(False)


@settings(max_examples=60, deadline=None)
@given(a=st.tuples(small, small), b=st.tuples(small, small), c=rationals, params=st.lists(rationals, min_size=4, max_size=4))
def test_constant_x_trace_matches_reference(a, b, c, params):
    model = _model(a, b)
    m = ConstantX(c)
    compared = [_check_against_reference(model, m, t0) for t0 in params]
    assume(any(compared))


def test_constant_x_square_non_square_and_zero_fiber_values():
    # on y^2 = x^3 + t x + 1 the line x = 1 meets the fiber where w^2 = t + 2
    model = FibrationModel(ratfn([0, 1]), ratfn([1]))
    m = ConstantX(F(1))
    for b, value in ((F(2), 4), (F(1, 4), F(9, 4)), (F(1), 3), (F(-1, 3), F(5, 3)), (F(-2), 0)):
        fiber = specialize(model, b)
        assert F(1) + fiber.a + fiber.b == value
        assert _check_against_reference(model, m, b)
        assert trace_cycle(fiber, m, b) is INFINITY


@settings(max_examples=30, deadline=None)
@given(a=st.tuples(small, small), b=st.tuples(small, small), params=st.lists(rationals, min_size=4, max_size=4))
def test_zero_section_trace_matches_reference(a, b, params):
    model = _model(a, b)
    compared = [_check_against_reference(model, ZeroSection(), t0) for t0 in params]
    assume(any(compared))


# y^2 = x^3 + 2x + t^2 carries the section (1/t^2, (1 + t^4)/t^3), which
# meets the zero section over t = 0, and the sections (0, t) and (0, -t)
POLE_MODEL = FibrationModel(ratfn([2]), ratfn([0, 0, 1]))
POLE_SECTION = (ratfn([1], [0, 0, 1]), ratfn([1, 0, 0, 0, 1], [0, 0, 0, 1]))
POLE_SPLIT = SplitList(((ratfn([0]), ratfn([0, 1])), POLE_SECTION, (ratfn([0]), ratfn([0, -1]))))


@settings(max_examples=60, deadline=None)
@given(params=st.lists(rationals, min_size=4, max_size=4))
@example(params=[F(0), F(1), F(-1), F(1, 2)])
def test_split_list_trace_matches_reference(params):
    compared = [_check_against_reference(POLE_MODEL, POLE_SPLIT, t0) for t0 in params]
    assert all(compared)  # the fiber is smooth and the sections lie on it at every t


def test_split_list_with_a_pole_sums_infinity():
    # over t = 0 the pole section is O, between two copies of the 2-torsion point (0, 0)
    fiber = specialize(POLE_MODEL, F(0))
    two_torsion = Point(F(0), F(0))
    assert POLE_SPLIT.cycle(fiber, F(0)) == ([(two_torsion, 1), (INFINITY, 1), (two_torsion, 1)], [])
    assert trace_cycle(fiber, POLE_SPLIT, F(0)) is INFINITY
    for sections in ((POLE_SECTION, POLE_SPLIT.sections[0]), (POLE_SPLIT.sections[0], POLE_SECTION)):
        assert trace_cycle(fiber, SplitList(sections), F(0)) == two_torsion


def test_split_list_off_the_fibration_is_refused():
    worked = FibrationModel(ratfn([0, 1]), ratfn([1]))
    on, off = (ratfn([0]), ratfn([1])), (ratfn([0]), ratfn([2]))  # (0, 2) is on no fiber
    fiber = specialize(worked, F(3))
    for split in (SplitList((off,)), SplitList((on, off)), SplitList((off, on))):
        with pytest.raises(DomainError, match="off the fiber"):
            trace_cycle(fiber, split, F(3))
        with pytest.raises(DomainError, match="off the fiber"):
            fiber_cycle(split, fiber, F(3))


def _graph_case(f, lead, p, sign):
    coeffs = tuple(poly(c) for c in f) + (poly([lead]),)
    try:
        a, b, _fwd, _inv, _e2 = quartic_to_weierstrass(tuple(RatFn(c) for c in coeffs), sign)
        model = FibrationModel(a, b)
    except DomainError:
        assume(False)
    return model, GraphOnQuartic(poly(p), coeffs, sign)


@settings(max_examples=40, deadline=None)
@given(
    f=st.lists(st.lists(small, min_size=1, max_size=3), min_size=4, max_size=4),
    lead=st.sampled_from([1, 4, 9]),
    p=st.lists(small, min_size=1, max_size=2),
    sign=st.sampled_from([1, -1]),
    params=st.lists(rationals, min_size=4, max_size=4),
)
def test_graph_on_quartic_trace_matches_reference(f, lead, p, sign, params):
    model, m = _graph_case(f, lead, p, sign)
    compared = [_check_against_reference(model, m, t0) for t0 in params]
    assume(any(compared))


def test_graph_on_another_fibration_is_refused():
    model, m = _graph_case(([1], [0, 1], [2], [1, 0, 1]), 4, [0, 1], 1)
    other, _m = _graph_case(([1], [0, 1], [3], [1, 0, 1]), 4, [0, 1], 1)
    worked = FibrationModel(ratfn([0, 1]), ratfn([1]))
    assert _check_against_reference(model, m, F(1))
    for fib in (other, worked):
        fiber = specialize(fib, F(1))
        with pytest.raises(DomainError, match="different fibration"):
            trace_cycle(fiber, m, F(1))
        with pytest.raises(DomainError, match="different fibration"):
            fiber_cycle(m, fiber, F(1))


def test_reference_agrees_on_fixed_fibers():
    """The fixed fibers of the fibration tests, through both sums."""
    worked = FibrationModel(ratfn([0, 1]), ratfn([1]))
    trisection = Parametrized(ratfn([-1, 0, 0, -1], [0, 1]), ratfn([0, 1]), ratfn([0]))
    rng = random.Random(3)
    compared = 0
    for k in range(1, 12):
        b = -(F(k) ** 3 + 1) / k  # the fiber cubic has the rational root k
        compared += _check_against_reference(worked, trisection, b)
        compared += _check_against_reference(worked, ConstantX(F(rng.randint(-3, 3))), b)
    assert compared == 22


# -- one point per conjugate pair, evaluated at the first root only --

# y^2 = x^3 + t - 1 with s -> (s^2, 1, s): a pair with a rational x
RATIONAL_X = (FibrationModel(ratfn([0]), ratfn([-1, 1])), Parametrized(ratfn([0, 0, 1]), ratfn([1]), ratfn([0, 1])))
# y^2 = x^3 + (t - t^2)x with s -> (s^2, s^2, s^2): every pair descends to Q
DESCENDS = (FibrationModel(ratfn([0, 1, -1]), ratfn([0])), Parametrized(*[ratfn([0, 0, 1])] * 3))


@st.composite
def root_taking_cases(draw):
    """(model, multisection, b) of a kind whose cycle takes a root: a
    parametrized curve (x = s with y = q(s) at b = t(s0), so that the fiber
    cubic has the rational root s0, or RATIONAL_X or DESCENDS), a constant x
    or a graph."""
    kind = draw(st.sampled_from(("curve", "fixed", "constant_x", "graph")))
    b = draw(rationals)
    if kind == "curve":
        q = poly(draw(st.lists(small, min_size=2, max_size=3).filter(lambda cs: cs[-1] != 0)))
        const = draw(small.filter(bool))
        t = RatFn(q * q - poly([0, 0, 0, 1]) - const, poly([0, 1]))
        b = t(draw(rationals.filter(bool)))
        return FibrationModel(ratfn([0, 1]), ratfn([const])), Parametrized(t, ratfn([0, 1]), RatFn(q)), b
    if kind == "fixed":
        return draw(st.sampled_from((RATIONAL_X, DESCENDS))) + (b,)
    if kind == "constant_x":
        return _model(draw(st.tuples(small, small)), draw(st.tuples(small, small))), ConstantX(draw(rationals)), b
    f = draw(st.lists(st.lists(small, min_size=1, max_size=3), min_size=4, max_size=4))
    lead, p = draw(st.sampled_from([1, 4, 9])), draw(st.lists(small, min_size=1, max_size=2))
    return _graph_case(f, lead, p, draw(st.sampled_from([1, -1]))) + (b,)


@settings(max_examples=100, deadline=None)
@given(case=root_taking_cases())
@example(case=RATIONAL_X + (F(2),))
@example(case=DESCENDS + (F(2),))
def test_a_pair_is_its_first_root_and_the_conjugate_is_the_other(case):
    """small_field_roots lists each conjugate pair of roots side by side;
    the cycle keeps the point at the first root of a pair, the point at the
    second is its conjugate, and fiber_cycle lists the points, multiplicities
    and order of the cycle evaluated at every root on its own."""
    model, m, b = case
    try:
        fiber = specialize(model, b)
        per_root = _per_root(m, fiber, b)
    except DomainError:  # a pole, a singular fiber or a larger field
        assume(False)
    quadratic = [i for i, (r, _pt, _k) in enumerate(per_root) if isinstance(r, NumFieldElement)]
    expected = []  # the points at first roots that are not their own conjugate
    for i in quadratic[::2]:
        (r, pt, k), (r2, pt2, k2) = per_root[i], per_root[i + 1]
        assert (r2, k2) == (r.conjugate(), k)
        assert pt2 == (pt if pt.is_infinity else _conjugate(pt))
        if pt2 != pt:
            expected.append((pt, k))
    assert m.cycle(fiber, b)[1] == expected
    assert fiber_cycle(m, fiber, b) == tuple((pt, k) for _r, pt, k in per_root)


def test_a_descended_pair_is_listed_twice_as_rational():
    model, m = DESCENDS
    fiber = specialize(model, F(2))
    q = Point(F(2), F(2))
    assert m.cycle(fiber, F(2)) == ([(q, 1), (q, 1)], [])
    assert trace_cycle(fiber, m, F(2)) == _mul_unchecked(fiber, 2, q)


# -- tau takes no root on a constant-x multisection --


def _raise(*_args, **_kwargs):
    raise AssertionError("a fiber root was taken")


def test_densify_on_constant_x_takes_no_root(tmp_path, monkeypatch, capsys):
    """densify on the worked example writes the same report when the
    constant-x cycle and the root splitter raise."""
    spec = {
        "fibration": {"a": {"num": ["0", "1"]}, "b": {"num": ["1"]}},
        "multisection": {"kind": "constant_x", "x": "1"},
        "params": {"height_bound": 6, "k_max": 2},
    }
    path = tmp_path / "run.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    files = {}
    for patched in (False, True):
        with monkeypatch.context() as mp:
            if patched:
                mp.setattr(ConstantX, "cycle", _raise)
                mp.setattr(fibration, "small_field_roots", _raise)
            out = tmp_path / f"out-{patched}"
            assert main(["densify", str(path), "--out", str(out)]) == 0
        files[patched] = [(out / name).read_bytes() for name in ("report.json", "points.csv")]
    assert files[True] == files[False]
    assert b'"non_torsion"' in files[True][0]


# -- the base point's parameter divided out of a parametrized curve's solver --


def _on_the_family(x: RatFn, y: RatFn, const: int):
    """y^2 = x^3 + t*x + const with the curve s -> (t(s), x(s), y(s)) for
    t = (y^2 - x^3 - const)/x, so the curve lies on the fibration."""
    model = FibrationModel(ratfn([0, 1]), ratfn([const]))
    return model, Parametrized((y * y - x * x * x - const) / x, x, y)


def _moebius(f: RatFn) -> RatFn:
    """f(1 + 1/s): the parameter s = infinity goes to the old s = 1."""
    r = RatFn(poly([1, 1]), poly([0, 1]))
    return f.num(r) / f.den(r)


@st.composite
def base_point_cases(draw):
    """(model, multisection, s0) with t(s) of degree 3 or 4 and x(s) of
    degree 1 or 2: x affine and y of degree <= 2 ("line"), x = s^2 and
    y = s^3 + q(s) with deg q <= 1 ("square"), or a line curve
    reparametrized by s -> 1 + 1/s, with s0 = None for s = infinity, where
    t(s) drops a degree ("moebius")."""
    kind = draw(st.sampled_from(("line", "square", "moebius")))
    const = draw(small.filter(bool))
    if kind == "square":
        x = poly([0, 0, 1])
        y = x * poly([0, 1]) + poly(draw(st.lists(small, min_size=1, max_size=2)))
    else:
        x = poly([draw(small), draw(small.filter(bool))])
        y = poly(draw(st.lists(small, min_size=1, max_size=3)))
        # a constant y = c != 0 is the known defect of
        # test_hardening.py::test_trisection_with_nonzero_constant_y
        assume(y.degree != 0)
    model, m = _on_the_family(RatFn(x), RatFn(y), const)
    assume(m.degree in (3, 4))
    s0 = draw(rationals)
    if kind == "moebius":
        m = Parametrized(*map(_moebius, (m.t, m.x, m.y)))
        s0 = draw(st.sampled_from((None, s0)))
    return model, m, s0


def _same_with_and_without_the_base_point(model, m, s0) -> bool:
    """On the fiber through the point p at s0, the cycle and the trace with
    p equal those without it, TraceFieldTooLarge included, and tau_map is
    [d]p minus the trace taken without p. False where the fiber is singular
    or a pole, or p is O."""
    b, p = m.t(s0), fibration._eval_point(m.x, m.y, s0)
    if b is None or p.is_infinity:
        return False
    try:
        fiber = specialize(model, b)
    except DomainError:
        return False
    outcomes = []
    for hint in (p, INFINITY, None):
        try:
            outcomes.append((m.cycle(fiber, b, hint), trace_cycle(fiber, m, b, hint)))
        except TraceFieldTooLarge as exc:
            outcomes.append(str(exc))
    assert outcomes[0] == outcomes[1] == outcomes[2]
    if isinstance(outcomes[2], str):
        with pytest.raises(TraceFieldTooLarge, match="need a degree"):
            tau_map(fiber, m, p, b)
    else:
        assert tau_map(fiber, m, p, b) == ec_add(fiber, ec_mul(fiber, m.degree, p), ec_neg(outcomes[2][1]))
    return True


@settings(max_examples=120, deadline=None)
@given(case=base_point_cases())
def test_the_base_point_leaves_cycle_trace_and_tau_unchanged(case):
    assume(_same_with_and_without_the_base_point(*case))


def _solver_degrees(monkeypatch):
    """The degree of every polynomial fibration hands to rational_roots."""
    degrees = []
    split = fibration.rational_roots
    monkeypatch.setattr(fibration, "rational_roots", lambda p: degrees.append(p.degree) or split(p))
    return degrees


X_LINE = ratfn([0, 1])


@pytest.mark.parametrize(
    "x,y,const,s0,divided,too_large",
    [
        # the solver is -(s + 1)^2 (s - 3): the double root keeps multiplicity 2
        (X_LINE, ratfn([-2, -1]), 1, F(-1), True, False),
        # the cofactor's roots 1 and 6 are rational, s0 = 2 goes between them
        (X_LINE, ratfn([-3, -3]), -3, F(2), True, False),
        # x = s^2 is over p.x at s0 = +-1, both roots of the solver
        # (2s^2 + 1)(s^2 - 1), so g = s^2 - 1 and the whole solver is split
        (ratfn([0, 0, 1]), ratfn([0, 1, 0, 1]), 1, F(1), False, False),
        # x = s^2 with y = s^3 + s + 1 is over p.x at s0 = 1 only, and t has
        # degree 4: the cubic cofactor is irreducible
        (ratfn([0, 0, 1]), ratfn([1, 1, 0, 1]), 2, F(1), True, True),
        # the cofactor 2s^3 + 2s^2 + 4s + 1 of 2s^4 - 2s^3 - 7s - 2 is irreducible
        (X_LINE, ratfn([0, 0, 1]), 1, F(2), True, True),
    ],
    ids=["double root", "rational cofactor", "x = s^2", "x = s^2, one root", "cubic cofactor"],
)
def test_base_point_cases(monkeypatch, x, y, const, s0, divided, too_large):
    model, m = _on_the_family(x, y, const)
    degrees = _solver_degrees(monkeypatch)
    assert _same_with_and_without_the_base_point(model, m, s0)
    # a cycle and a trace (none when the cycle raises) with p, with O and
    # with no point, then tau_map: with p, one root fewer to split exactly
    # when g is linear
    full = m.degree
    cut = full - 1 if divided else full
    k = 1 if too_large else 2
    assert degrees == [cut] * k + [full] * 2 * k + [cut]


def test_base_point_at_infinity_and_at_a_pole():
    # the line curve x = s, y = -2 - s reparametrized so that s = infinity
    # is the old s = 1: there t(s) drops to degree 2, and x - p.x is constant
    model, m = _on_the_family(X_LINE, ratfn([-2, -1]), 1)
    m = Parametrized(*map(_moebius, (m.t, m.x, m.y)))
    b, p = m.t(None), fibration._eval_point(m.x, m.y, None)
    fiber = specialize(model, b)
    assert (m.t.num - b * m.t.den).degree == m.degree - 1
    assert m.cycle(fiber, b, p)[0][0] == (p, 1)
    assert _same_with_and_without_the_base_point(model, m, None)
    # the section (1/s^2, (1 + s^4)/s^3) of y^2 = x^3 + 2x + t^2 passes
    # through O over s = 0: tau_map's base point O takes the full solver
    pole = Parametrized(ratfn([0, 1]), *POLE_SECTION)
    fiber = specialize(POLE_MODEL, F(0))
    assert fibration._eval_point(pole.x, pole.y, F(0)) is INFINITY
    assert trace_cycle(fiber, pole, F(0), INFINITY) is INFINITY
    assert tau_map(fiber, pole, INFINITY, F(0)) is INFINITY


def test_densify_on_a_trisection_splits_one_quadratic_per_fiber(tmp_path, monkeypatch):
    """tau_map hands its base point to the trace, so the trisection divides
    the base point's parameter out of each fiber cubic: densify makes one
    rational_roots call per fiber, on the quadratic cofactor."""
    spec = {
        "fibration": {"a": {"num": ["0", "1"]}, "b": {"num": ["1"]}},
        "multisection": {
            "kind": "parametrized",
            "t": {"num": ["-1", "0", "0", "-1"], "den": ["0", "1"]},
            "x": {"num": ["0", "1"]},
            "y": {"num": ["0"]},
        },
        "params": {"height_bound": 8},
    }
    path, out = tmp_path / "run.json", tmp_path / "out"
    path.write_text(json.dumps(spec), encoding="utf-8")
    degrees = _solver_degrees(monkeypatch)
    assert main(["densify", str(path), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    assert report["fibers_attempted"] == len(report["per_fiber"]) > 0
    assert all(fiber["verdict"] == "torsion" for fiber in report["per_fiber"])
    assert degrees == [2] * report["fibers_attempted"]
