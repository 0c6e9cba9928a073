"""Run-spec parsing.

A run is described by one JSON file: a fibration block or a cone-quartic
block, an optional multisection block, sweep parameters, and output paths.
All rationals are written as strings ("3/2", "-1"); JSON numbers are rejected
so that every value in the system stays exact.  Parse failures carry a
line/column position (malformed JSON) or a dotted field path (bad values).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from .enriques import ConeQuartic
from .errors import DomainError, SpecSyntaxError, SpecValidationError, ZeroInput
from .exactmath import Poly, RatFn, rat_from_string
from .fibration import (
    ConstantX,
    FibrationModel,
    GraphOnQuartic,
    Parametrized,
    SplitList,
    ZeroSection,
)


@dataclass(frozen=True)
class RunSpec:
    """A fully validated run description."""

    fibration: FibrationModel | None = None
    multisection: object | None = None
    cone_quartic: ConeQuartic | None = None
    points: tuple = ()
    through: tuple | None = None
    allow_quadratic_twist_extension: bool = False
    height_bound: int | None = None
    k_max: int | None = None
    samples: tuple = ()
    out: str | None = None


def _require(obj: dict, key: str, path: str):
    if key not in obj:
        raise SpecValidationError(f"{path}.{key}" if path else key, "missing field")
    return obj[key]


def _check_keys(obj: dict, allowed: set[str], path: str) -> None:
    for key in obj:
        if key not in allowed:
            raise SpecValidationError(f"{path}.{key}" if path else key, "unknown field")


def _rational(value, path: str) -> Fraction:
    if not isinstance(value, str):
        raise SpecValidationError(path, "rationals must be written as strings")
    try:
        return rat_from_string(value)
    except ZeroInput:
        raise SpecValidationError(path, "zero denominator") from None
    except ValueError:
        raise SpecValidationError(path, f"not a rational: {value!r}") from None


def _rational_list(value, path: str) -> list[Fraction]:
    if not isinstance(value, list):
        raise SpecValidationError(path, "expected a list of rationals")
    return [_rational(v, f"{path}[{i}]") for i, v in enumerate(value)]


def _poly(value, path: str) -> Poly:
    return Poly(_rational_list(value, path))


def _ratfn(value, path: str) -> RatFn:
    if not isinstance(value, dict):
        raise SpecValidationError(path, 'expected an object {"num": [...], "den": [...]}')
    _check_keys(value, {"num", "den"}, path)
    num = _poly(_require(value, "num", path), f"{path}.num")
    den = _poly(value["den"], f"{path}.den") if "den" in value else Poly([Fraction(1)])
    if den.is_zero:
        raise SpecValidationError(f"{path}.den", "zero denominator")
    return RatFn(num, den)


def _pair(value, path: str) -> tuple[Fraction, Fraction]:
    if not isinstance(value, list) or len(value) != 2:
        raise SpecValidationError(path, "expected a pair [t, z] of rationals")
    return (_rational(value[0], f"{path}[0]"), _rational(value[1], f"{path}[1]"))


def _count(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise SpecValidationError(path, "expected an integer >= 0")
    return value


def _fibration(obj, path: str) -> FibrationModel:
    if not isinstance(obj, dict):
        raise SpecValidationError(path, "expected an object with a and b")
    _check_keys(obj, {"a", "b"}, path)
    a = _ratfn(_require(obj, "a", path), f"{path}.a")
    b = _ratfn(_require(obj, "b", path), f"{path}.b")
    try:
        return FibrationModel(a, b)
    except DomainError:
        raise SpecValidationError(path, "singular generic fiber") from None


def _multisection(obj, path: str):
    if not isinstance(obj, dict):
        raise SpecValidationError(path, "expected an object with a kind tag")
    kind = _require(obj, "kind", path)
    if kind == "zero_section":
        _check_keys(obj, {"kind"}, path)
        return ZeroSection()
    if kind == "constant_x":
        _check_keys(obj, {"kind", "x"}, path)
        return ConstantX(_rational(_require(obj, "x", path), f"{path}.x"))
    if kind == "parametrized":
        _check_keys(obj, {"kind", "t", "x", "y"}, path)
        return Parametrized(
            _ratfn(_require(obj, "t", path), f"{path}.t"),
            _ratfn(_require(obj, "x", path), f"{path}.x"),
            _ratfn(_require(obj, "y", path), f"{path}.y"),
        )
    if kind == "graph_on_quartic":
        _check_keys(obj, {"kind", "p", "fiber_coeffs", "sign", "generator"}, path)
        coeffs = _require(obj, "fiber_coeffs", path)
        if not isinstance(coeffs, list) or len(coeffs) != 5:
            raise SpecValidationError(f"{path}.fiber_coeffs", "expected five coefficient lists")
        sign = obj.get("sign", 1)
        if isinstance(sign, bool) or not isinstance(sign, int) or sign not in (1, -1):
            raise SpecValidationError(f"{path}.sign", "expected 1 or -1")
        generator = None
        if obj.get("generator") is not None:
            generator = _pair(obj["generator"], f"{path}.generator")
        try:
            return GraphOnQuartic(
                p=_poly(_require(obj, "p", path), f"{path}.p"),
                fiber_coeffs=tuple(
                    _poly(c, f"{path}.fiber_coeffs[{i}]") for i, c in enumerate(coeffs)
                ),
                sign=sign,
                generator=generator,
            )
        except DomainError as exc:
            raise SpecValidationError(path, str(exc)) from None
    if kind == "split":
        _check_keys(obj, {"kind", "sections"}, path)
        raw = _require(obj, "sections", path)
        if not isinstance(raw, list) or not raw:
            raise SpecValidationError(f"{path}.sections", "expected a nonempty list")
        sections = []
        for i, entry in enumerate(raw):
            if not isinstance(entry, list) or len(entry) != 2:
                raise SpecValidationError(f"{path}.sections[{i}]", "expected an [x, y] pair")
            sections.append(
                (
                    _ratfn(entry[0], f"{path}.sections[{i}][0]"),
                    _ratfn(entry[1], f"{path}.sections[{i}][1]"),
                )
            )
        return SplitList(tuple(sections))
    raise SpecValidationError(f"{path}.kind", f"unknown multisection kind: {kind!r}")


def _cone_quartic(obj, path: str) -> ConeQuartic:
    if not isinstance(obj, dict):
        raise SpecValidationError(path, 'expected coefficients keyed by exponents "e0e1e2e3"')
    coeffs = {}
    for key, value in obj.items():
        if len(key) != 4 or not (key.isascii() and key.isdigit()):
            raise SpecValidationError(f"{path}.{key}", 'keys must be four digits "e0e1e2e3"')
        exponents = tuple(int(ch) for ch in key)
        coeffs[exponents] = _rational(value, f"{path}.{key}")
    try:
        return ConeQuartic(coeffs)
    except DomainError as exc:
        raise SpecValidationError(path, str(exc)) from None


_TOP_KEYS = {
    "fibration",
    "multisection",
    "cone_quartic",
    "point",
    "points",
    "through",
    "allow_quadratic_twist_extension",
    "params",
    "out",
}
_PARAM_KEYS = {"height_bound", "k_max", "samples"}


def parse_spec(text: str, overrides: dict | None = None) -> RunSpec:
    """Parse and validate a JSON run spec.

    overrides maps "out" and params fields to values (the CLI flags) that
    replace the spec's own before validation, so both pass the same checks.
    """
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecSyntaxError(exc.msg, exc.lineno, exc.colno) from None
    except RecursionError:
        raise SpecValidationError("spec", "nested too deeply") from None
    if not isinstance(raw, dict):
        raise SpecValidationError("", "top level must be an object")
    _check_keys(raw, _TOP_KEYS, "")

    fib = _fibration(raw["fibration"], "fibration") if "fibration" in raw else None
    multi = _multisection(raw["multisection"], "multisection") if "multisection" in raw else None
    cone = _cone_quartic(raw["cone_quartic"], "cone_quartic") if "cone_quartic" in raw else None

    points = []
    if "point" in raw:
        points.append(_pair(raw["point"], "point"))
    if "points" in raw:
        if not isinstance(raw["points"], list):
            raise SpecValidationError("points", "expected a list of [t, z] pairs")
        points.extend(_pair(p, f"points[{i}]") for i, p in enumerate(raw["points"]))
    through = _pair(raw["through"], "through") if "through" in raw else None

    twist_flag = raw.get("allow_quadratic_twist_extension", False)
    if not isinstance(twist_flag, bool):
        raise SpecValidationError("allow_quadratic_twist_extension", "expected true or false")

    overrides = dict(overrides or {})
    out = overrides.pop("out", raw.get("out"))
    params = raw.get("params", {})
    if not isinstance(params, dict):
        raise SpecValidationError("params", "expected an object")
    params = {**params, **overrides}
    _check_keys(params, _PARAM_KEYS, "params")
    samples = tuple(_rational_list(params["samples"], "params.samples")) if "samples" in params else ()

    if out is not None and not isinstance(out, str):
        raise SpecValidationError("out", "expected a path string")

    return RunSpec(
        fibration=fib,
        multisection=multi,
        cone_quartic=cone,
        points=tuple(points),
        through=through,
        allow_quadratic_twist_extension=twist_flag,
        height_bound=(
            _count(params["height_bound"], "params.height_bound") if "height_bound" in params else None
        ),
        k_max=_count(params["k_max"], "params.k_max") if "k_max" in params else None,
        samples=samples,
        out=out,
    )
