"""The trace of a fiber cycle summed over Q, checked against the sum taken
point by point over each field: the closed forms of every multisection kind
but a parametrized curve, and the support path of a parametrized curve,
which sums each conjugate pair by its chord."""

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
    quartic_to_weierstrass,
)
from fibdense.errors import DomainError
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
    specialize,
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
    """A multisection whose cycle on every fiber is the given support,
    traced by the support path that a parametrized curve takes."""

    support: tuple

    @property
    def degree(self) -> int:
        return sum(m for _pt, m in self.support)

    def cycle(self, fiber, b):
        return list(self.support)

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
        x, y = K.element([ax, bx]), K.element([draw(rationals), by])
        rest = y * y - x * x * x  # = a*x + b
        a = rest.coeffs[1] / bx
        b = rest.coeffs[0] - a * ax
    else:
        x, y = K.element([ax, 0]), K.element([by * p1 / 2, by])
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
    cycle = FixedCycle(((p, mult), (_conjugate(p), mult)))
    assert trace_cycle(curve, cycle, F(0)) == _mul_unchecked(curve, mult, expected)


def test_pair_sum_with_rational_x_is_the_point_at_infinity():
    K = NumField(poly([-3, 0, 1]), "w")
    curve = EllipticCurve(F(0), F(-5))  # y^2 = x^3 - 5 meets x = 2 at y = +-w
    p = Point(K.embed(2), K.gen)
    assert curve.contains(p)
    assert _pair_sum(p) is INFINITY
    assert trace_cycle(curve, FixedCycle(((p, 3), (_conjugate(p), 3))), F(0)) is INFINITY


@settings(max_examples=80, deadline=None)
@given(points_over_quadratic_fields(), st.lists(st.integers(1, 3), min_size=1, max_size=3), st.randoms())
def test_pairing_sums_multiplicities_in_any_order(curve_point, splits, rng):
    """A pair listed as several entries, in any order, is stable when the
    multiplicities of P and of conj P add up to the same total."""
    curve, p = curve_point
    conj = _conjugate(p)
    support = [(p, m) for m in splits] + [(conj, sum(splits))]
    rng.shuffle(support)
    cycle = FixedCycle(tuple(support))
    assert trace_cycle(curve, cycle, F(0)) == _support_sum(curve, support)
    unbalanced = FixedCycle(tuple(support) + ((p, 1),))
    with pytest.raises(DomainError, match="is not Galois-stable"):
        trace_cycle(curve, unbalanced, F(0))


def test_unpaired_point_is_not_galois_stable():
    K = NumField(poly([-2, 0, 1]), "w")
    curve = EllipticCurve(F(0), F(-6))  # y^2 = x^3 - 6 meets x = 2 at y = +-w
    p = Point(K.embed(2), K.gen)
    assert curve.contains(p)
    with pytest.raises(DomainError, match="is not Galois-stable"):
        trace_cycle(curve, FixedCycle(((p, 1), (p, 1))), F(0))
    with pytest.raises(DomainError, match="is not Galois-stable"):
        trace_cycle(curve, FixedCycle(((p, 1), (_conjugate(p), 2))), F(0))


def test_off_curve_conjugate_pair_is_off_the_fiber():
    K = NumField(poly([-2, 0, 1]), "w")
    curve = EllipticCurve(F(0), F(-5))
    p = Point(K.embed(2), K.gen)  # on y^2 = x^3 - 6, not on this curve
    assert not curve.contains(p)
    with pytest.raises(DomainError, match="off the fiber"):
        trace_cycle(curve, FixedCycle(((p, 1), (_conjugate(p), 1))), F(0))
    # either order: whichever point of the pair is kept, it is checked
    with pytest.raises(DomainError, match="off the fiber"):
        trace_cycle(curve, FixedCycle(((_conjugate(p), 1), (p, 1))), F(0))


# -- trace_cycle against the reference sum on the multisection kinds --


def _check_against_reference(model: FibrationModel, m, b):
    """Compare the trace with the reference sum wherever the fiber is smooth
    and the reference succeeds; returns whether a comparison was made. Where
    the reference exists, neither the checked support nor the trace may
    refuse the cycle."""
    try:
        fiber = specialize(model, b)
    except DomainError:  # a pole or a singular fiber
        return False
    try:
        expected = _support_sum(fiber, m.cycle(fiber, b))
    except DomainError:  # TraceFieldTooLarge among them
        return False
    assert fiber_cycle(m, fiber, b) == tuple(m.cycle(fiber, b))
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
    assert POLE_SPLIT.cycle(fiber, F(0)) == [(two_torsion, 1), (INFINITY, 1), (two_torsion, 1)]
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
