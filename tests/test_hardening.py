"""Contracts at the edges: the torsion order loop at its bound, the rational
parser and flag validation behind the CLI, and the pinned trisection defect."""

from __future__ import annotations

import json
from fractions import Fraction as F

import pytest

import fibdense.elliptic as elliptic
from fibdense.cli import main
from fibdense.density import densify
from fibdense.elliptic import EllipticCurve, InfiniteOrder, Point, torsion_certify
from fibdense.errors import DomainError
from fibdense.exactmath import ratfn
from fibdense.fibration import FibrationModel, Parametrized, trace_cycle

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


class TestTorsionLoop:
    def test_order_just_past_the_bound_is_not_reported_as_the_bound(self):
        assert torsion_certify(E11, P5, bound=4, allow_low_bound=True) == InfiniteOrder()

    def test_mazur_check_survives_optimization(self, monkeypatch):
        monkeypatch.setattr(elliptic, "MAZUR_ORDERS", elliptic.MAZUR_ORDERS - {5})
        with pytest.raises(DomainError, match="order 5"):
            torsion_certify(E11, P5)


@pytest.mark.parametrize("text", ["1.5", "1e3", "1_000"])
def test_spec_rationals_are_p_or_p_over_q(tmp_path, capsys, text):
    spec = json.loads(json.dumps(WORKED))
    spec["fibration"]["b"]["num"][0] = text
    assert _run(tmp_path, spec) == 2
    assert "'fibration.b.num[0]'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag, value, field",
    [("--threads", "0", "threads"), ("--k-max", "-1", "k_max"), ("--height-bound", "-1", "height_bound")],
)
def test_flags_pass_the_spec_validator(tmp_path, capsys, flag, value, field):
    assert _run(tmp_path, WORKED, flag, value) == 2
    assert f"'params.{field}'" in capsys.readouterr().err


def test_low_torsion_flag_is_a_computational_error(tmp_path, capsys):
    # valid as a field (>= 1); the certifier rejects it against Mazur's bound
    assert _run(tmp_path, WORKED, "--torsion-bound", "5") == 3
    assert "BoundTooSmall" in capsys.readouterr().err


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
