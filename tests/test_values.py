"""The value types are plain slotted classes: importing the package loads no
dataclass machinery, and equality, hashing and repr keep the semantics and
the bytes that callers, reports and error messages rely on."""

from __future__ import annotations

import ast
import os
import pathlib
import subprocess
import sys
from fractions import Fraction as F

import pytest

import fibdense
from fibdense.elliptic import EllipticCurve, Point
from fibdense.errors import DomainError
from fibdense.exactmath import Poly, RatFn
from fibdense.fibration import FibrationModel, NonTorsion, Order


def test_importing_the_cli_loads_no_dataclass_machinery():
    src = pathlib.Path(fibdense.__file__).parents[1]
    code = "import sys, fibdense.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(src)),
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"


def test_no_module_imports_dataclasses():
    root = pathlib.Path(fibdense.__file__).parent
    found = [
        f"{path.relative_to(root)}:{node.lineno}"
        for path in sorted(root.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if isinstance(node, ast.Import) and any(a.name.split(".")[0] == "dataclasses" for a in node.names)
        or isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "dataclasses"
    ]
    assert not found, f"dataclasses imported at {found}"


def test_points_are_values_of_their_own_type():
    assert Point(F(1), F(2)) == Point(F(1), F(2))
    assert hash(Point(F(1), F(2))) == hash(Point(F(1), F(2)))
    assert len({Point(), Point(), Point(F(0), F(0))}) == 2
    assert Point(1, 2) != (1, 2)
    assert (1, 2) != Point(1, 2)
    assert Point() == Point(None, None) and Point().is_infinity


def test_equality_holds_only_within_one_class():
    a, b = RatFn(Poly([F(0), F(1)])), RatFn(1)
    assert FibrationModel(a, b) == FibrationModel(a, b)
    assert hash(FibrationModel(a, b)) == hash(FibrationModel(a, b))
    assert EllipticCurve(a, b) != FibrationModel(a, b)
    assert FibrationModel(a, b) != EllipticCurve(a, b)
    assert Order(3) == Order(m=3) != Order(4)
    assert Order(1) != NonTorsion(1)


def test_a_singular_curve_is_refused_at_construction():
    with pytest.raises(DomainError, match="singular curve"):
        EllipticCurve(F(0), F(0))
    with pytest.raises(DomainError, match="singular curve"):
        EllipticCurve(F(-3), F(2))  # 4(-27) + 27 * 4 = 0
    with pytest.raises(DomainError):
        FibrationModel(RatFn(Poly([F(-3)])), RatFn(Poly([F(2)])))


def test_reprs_keep_their_bytes():
    assert repr(Point()) == "Infinity"
    assert repr(Point(F(1), F(-2, 3))) == "(1, -2/3)"
    assert repr(EllipticCurve(F(3, 7), F(5, 11))) == "EllipticCurve(a=3/7, b=5/11)"
    assert repr(FibrationModel(RatFn(Poly([F(0), F(1)])), RatFn(1))) == "FibrationModel(a=t, b=1)"
    assert repr(Order(3)) == "Order(m=3)"
    assert repr(NonTorsion(F(1))) == "NonTorsion(witness=Fraction(1, 1))"
