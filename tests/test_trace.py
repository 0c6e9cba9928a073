"""The trace of a fiber cycle summed over Q: each conjugate pair by its
chord, checked against the sum taken point by point over each field."""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction as F

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from fibdense.elliptic import (
    INFINITY,
    EllipticCurve,
    InfinityBranch,
    Point,
    QuarticModel,
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
    _pair_sum,
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
    """A multisection whose cycle on every fiber is the given support."""

    support: tuple

    @property
    def degree(self) -> int:
        return sum(m for _pt, m in self.support)

    def cycle(self, fiber, b):
        return list(self.support)


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
    _cycle, trace = trace_cycle(None, cycle, F(0), fiber=curve)
    assert trace.value == _mul_unchecked(curve, mult, expected)


def test_pair_sum_with_rational_x_is_the_point_at_infinity():
    K = NumField(poly([-3, 0, 1]), "w")
    curve = EllipticCurve(F(0), F(-5))  # y^2 = x^3 - 5 meets x = 2 at y = +-w
    p = Point(K.embed(2), K.gen)
    assert curve.contains(p)
    assert _pair_sum(p) is INFINITY
    _cycle, trace = trace_cycle(None, FixedCycle(((p, 3), (_conjugate(p), 3))), F(0), fiber=curve)
    assert trace.value is INFINITY


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
    _cycle, trace = trace_cycle(None, cycle, F(0), fiber=curve)
    assert trace.value == _support_sum(curve, support)
    unbalanced = FixedCycle(tuple(support) + ((p, 1),))
    with pytest.raises(DomainError, match="is not Galois-stable"):
        trace_cycle(None, unbalanced, F(0), fiber=curve)


def test_unpaired_point_is_not_galois_stable():
    K = NumField(poly([-2, 0, 1]), "w")
    curve = EllipticCurve(F(0), F(-6))  # y^2 = x^3 - 6 meets x = 2 at y = +-w
    p = Point(K.embed(2), K.gen)
    assert curve.contains(p)
    with pytest.raises(DomainError, match="is not Galois-stable"):
        trace_cycle(None, FixedCycle(((p, 1), (p, 1))), F(0), fiber=curve)
    with pytest.raises(DomainError, match="is not Galois-stable"):
        trace_cycle(None, FixedCycle(((p, 1), (_conjugate(p), 2))), F(0), fiber=curve)


def test_off_curve_conjugate_pair_is_off_the_fiber():
    K = NumField(poly([-2, 0, 1]), "w")
    curve = EllipticCurve(F(0), F(-5))
    p = Point(K.embed(2), K.gen)  # on y^2 = x^3 - 6, not on this curve
    assert not curve.contains(p)
    with pytest.raises(DomainError, match="off the fiber"):
        trace_cycle(None, FixedCycle(((p, 1), (_conjugate(p), 1))), F(0), fiber=curve)
    # either order: whichever point of the pair is kept, it is checked
    with pytest.raises(DomainError, match="off the fiber"):
        trace_cycle(None, FixedCycle(((_conjugate(p), 1), (p, 1))), F(0), fiber=curve)


# -- trace_cycle against the reference sum on the multisection kinds --


def _check_against_reference(model: FibrationModel, m, b):
    """Compare the trace with the reference sum wherever the fiber is smooth
    and the reference succeeds; returns whether a comparison was made."""
    try:
        fiber = specialize(model, b)
    except DomainError:  # a pole or a singular fiber
        return False
    try:
        support = m.cycle(fiber, b)
        expected = _support_sum(fiber, support)
    except DomainError:  # TraceFieldTooLarge among them
        return False
    _cycle, trace = trace_cycle(model, m, b)
    assert trace.value == expected
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


@settings(max_examples=60, deadline=None)
@given(a=st.tuples(small, small), b=st.tuples(small, small), c=rationals, params=st.lists(rationals, min_size=4, max_size=4))
def test_constant_x_trace_matches_reference(a, b, c, params):
    try:
        model = FibrationModel(ratfn(list(a)), ratfn(list(b)))
    except DomainError:  # 4a^3 + 27b^2 = 0 identically
        assume(False)
    m = ConstantX(c)
    compared = []
    for t0 in params:
        value = c**3 + model.a(t0) * c + model.b(t0)
        assume(not is_square(value))  # w = sqrt(value) is irrational
        compared.append(_check_against_reference(model, m, t0))
    assume(any(compared))


@settings(max_examples=40, deadline=None)
@given(
    f=st.lists(st.lists(small, min_size=1, max_size=3), min_size=4, max_size=4),
    lead=st.sampled_from([1, 4]),
    p=st.lists(small, min_size=1, max_size=2),
    sign=st.sampled_from([1, -1]),
    params=st.lists(rationals, min_size=4, max_size=4),
)
def test_graph_on_quartic_trace_matches_reference(f, lead, p, sign, params):
    coeffs = tuple(poly(c) for c in f) + (poly([lead]),)
    try:
        quartic = QuarticModel(tuple(RatFn(c) for c in coeffs), InfinityBranch(sign))
        curve, _fwd, _inv = quartic_to_weierstrass(quartic)
        model = FibrationModel(curve.a, curve.b)
    except DomainError:
        assume(False)
    m = GraphOnQuartic(poly(p), coeffs, sign)
    compared = [_check_against_reference(model, m, t0) for t0 in params]
    assume(any(compared))


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
