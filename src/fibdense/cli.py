"""Command-line front end.

One JSON spec file describes a run; the subcommand picks the pipeline:

    fibdense analyze <spec>             singular fibers and ramification table
    fibdense densify <spec>             density sweep -> report.json, points.csv
    fibdense probe <spec>               multisection order probe
    fibdense enriques-restrict <spec>   cone quartic -> branch curve coefficients
    fibdense enriques-bitangents <spec> bitangent search -> bitangents.json
    fibdense enriques-model <spec>      Weierstrass model of the double cover

Exit statuses: 0 success, 2 spec/validation problems, 3 computational errors.
Outputs contain exact rationals only and are byte-identical across runs.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from fractions import Fraction

from .density import _json_list, _rationals_json, densify, report_to_csv, report_to_json
from .enriques import (
    BitangentReport,
    bitangent_sections,
    k3_weierstrass_model,
    restrict_quartic_to_cone,
)
from .errors import DomainError, NoCandidates, SpecError, SpecValidationError
from .exactmath import NumFieldElement, enumerate_rationals, rat_to_string
from .fibration import (
    NonTorsion,
    Order,
    SplitList,
    ZeroSection,
    fiber_type,
    order_probe,
    section_difference_order,
    specialize,
)
from .specfile import RunSpec, parse_spec


def _scalar_json(value, indent: int) -> str:
    """Exact JSON form at the given indentation: rationals as strings,
    quadratic elements as {coords, minpoly} objects."""
    if isinstance(value, NumFieldElement):
        if not value.is_rational:
            coords = _rationals_json(value.coeffs, indent + 2)
            minpoly = _rationals_json(value.field.minimal_polynomial.coeffs, indent + 2)
            pad = " " * indent
            return f'{{\n{pad}  "coords": {coords},\n{pad}  "minpoly": {minpoly}\n{pad}}}'
        value = value.coeffs[0]
    if isinstance(value, Fraction):
        return f'"{rat_to_string(value)}"'
    raise DomainError(f"unrenderable scalar: {value!r}")


def _bitangents_json(through, results) -> str:
    """bitangents.json for the (base point, BitangentReport) pairs, byte for
    byte json.dumps(doc, indent=2) + "\n": rationals need no JSON escape, and
    the one free string, a field's name, goes through json.dumps, C-encoded."""
    entries = []
    for point, report in results:
        candidates = []
        for cand in report:
            coords = [cand.section.coefficient(k) for k in range(3)]
            field = '"Q"'
            if not all(isinstance(c, Fraction) for c in coords):
                gen = next(c for c in coords if isinstance(c, NumFieldElement)).field
                minpoly = _rationals_json(gen.minimal_polynomial.coeffs, 12)
                field = (
                    f'{{\n            "minpoly": {minpoly},\n'
                    f'            "name": {json.dumps(gen.name)}\n          }}'
                )
            c0, c1, c2 = (_scalar_json(c, 10) for c in coords)
            tangencies = [
                _json_list([_scalar_json(t, 14), _scalar_json(z, 14)], 12)
                for t, z in cand.second_tangencies
            ]
            candidates.append(
                f'{{\n          "parameter": {_scalar_json(cand.parameter, 10)},\n'
                f'          "c0": {c0},\n          "c1": {c1},\n          "c2": {c2},\n'
                f'          "field": {field},\n'
                f'          "second_tangency": {_json_list(tangencies, 10)}\n        }}'
            )
        entries.append(
            f'{{\n      "base_point": {_rationals_json(point, 6)},\n'
            f'      "candidates": {_json_list(candidates, 6)},\n'
            f'      "higher_degree_parameters": {report.higher_degree_parameters}\n    }}'
        )
    through = "null" if through is None else _rationals_json(through, 2)
    return f'{{\n  "through": {through},\n  "results": {_json_list(entries, 2)}\n}}\n'


def _need(spec: RunSpec, field: str, command: str):
    value = getattr(spec, field)
    missing = value is None or (field in ("points", "samples") and not value)
    if missing:
        raise SpecValidationError(field, f"required by {command}")
    return value


def _out_dir(spec: RunSpec) -> str:
    """The output directory, made if missing; a path that cannot be a
    directory is a bad out field."""
    out_dir = spec.out or "out"
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise SpecValidationError("out", str(exc)) from None
    return out_dir


def _open_artifact(path: str):
    """path opened for writing; a path that cannot be a file, such as a
    directory, is a bad out field."""
    try:
        return open(path, "w", encoding="utf-8", newline="")
    except OSError as exc:
        raise SpecValidationError("out", str(exc)) from None


# -- commands --


def _cmd_analyze(spec: RunSpec) -> int:
    model = _need(spec, "fibration", "analyze")
    singular = model.singular_parameters()
    print("singular fibers:" + (" none" if not singular else ""))
    for b in singular:
        ft = fiber_type(model, b)
        irr = "undecided" if ft.label == "Other" else "irreducible"
        print(f"b={rat_to_string(b)}: ordΔ={ft.ord_delta}, {ft.label}, {irr}")
    if spec.multisection is None:
        return 0
    report = spec.multisection.ramification(model)
    empty = not report.points and not report.unresolved
    print("ramification:" + (" none" if empty else ""))
    for rp in report.points:
        tag = "salient" if rp.salient else "not salient"
        print(f"b={rp.b}: point={rp.point}, {tag}")
    for u in report.unresolved:
        tag = "all roots singular" if u.all_singular else "roots undecided"
        print(f"unresolved factor {u.factor}: {tag}")
    return 0


def _cmd_densify(spec: RunSpec) -> int:
    model = _need(spec, "fibration", "densify")
    m = _need(spec, "multisection", "densify")
    height_bound = _need(spec, "height_bound", "densify")
    given = {} if spec.k_max is None else {"k_max": spec.k_max}  # unset: densify's default
    report = densify(model, m, height_bound, **given)
    out_dir = _out_dir(spec)
    report_path = os.path.join(out_dir, "report.json")
    points_path = os.path.join(out_dir, "points.csv")
    with _open_artifact(report_path) as fh:
        report_to_json(report, fh)
    with _open_artifact(points_path) as fh:
        report_to_csv(report, fh)
    print(f"fibers attempted: {report.fibers_attempted}")
    print(f"fibers certified: {report.fibers_certified}")
    print(f"points emitted: {report.points_emitted}")
    print(f"max height seen: {report.max_height_seen}")
    print(f"wrote {report_path}")
    print(f"wrote {points_path}")
    return 0


def _cmd_probe(spec: RunSpec) -> int:
    model = _need(spec, "fibration", "probe")
    m = _need(spec, "multisection", "probe")
    samples = list(_need(spec, "samples", "probe"))
    verdict = order_probe(model, m, samples)
    if isinstance(verdict, Order):
        print(f"Order({verdict.m}) (evidence on {len(samples)} sampled fibers)")
    else:
        b = rat_to_string(verdict.witness)
        print(f"NonTorsion(witness={b}) (proof: the sampled difference at t = {b} "
              "has infinite order)")
    return 0


def _cmd_enriques_restrict(spec: RunSpec) -> int:
    cone = _need(spec, "cone_quartic", "enriques-restrict")
    data = restrict_quartic_to_cone(cone)
    for i, c in enumerate(data.coeffs):
        print(f"f{i} = {c}")
    return 0


def _cmd_enriques_bitangents(spec: RunSpec) -> int:
    cone = _need(spec, "cone_quartic", "enriques-bitangents")
    points = _need(spec, "points", "enriques-bitangents")
    data = restrict_quartic_to_cone(cone)
    results = []
    for point in points:
        try:
            report = bitangent_sections(data, point, through=spec.through)
        except NoCandidates:
            report = BitangentReport((), 0)
        results.append((point, report))
    out_dir = _out_dir(spec)
    path = os.path.join(out_dir, "bitangents.json")
    with _open_artifact(path) as fh:
        fh.write(_bitangents_json(spec.through, results))
    for (t, z), report in results:
        print(f"base point ({rat_to_string(t)}, {rat_to_string(z)}): {len(report)} candidate(s)")
    print(f"wrote {path}")
    return 0


def _default_difference_samples(model) -> list[Fraction]:
    samples = []
    for b in enumerate_rationals(5):
        try:
            specialize(model, b)
        except DomainError:
            continue
        samples.append(b)
        if len(samples) == 3:
            break
    return samples


def _cmd_enriques_model(spec: RunSpec) -> int:
    cone = _need(spec, "cone_quartic", "enriques-model")
    data = restrict_quartic_to_cone(cone)
    k3 = k3_weierstrass_model(data, spec.allow_quadratic_twist_extension)
    print(f"a(t) = {k3.fibration.a}")
    print(f"b(t) = {k3.fibration.b}")
    print(f"e2 = {k3.e2}")
    print(f"twist = {rat_to_string(k3.twist)}")
    samples = list(spec.samples) if spec.samples else _default_difference_samples(k3.fibration)
    e2 = SplitList(((k3.e2.x, k3.e2.y),))
    verdict = section_difference_order(k3.fibration, ZeroSection(), e2, samples)
    rendered = ", ".join(rat_to_string(b) for b in samples)
    if isinstance(verdict, Order):
        print(f"e1 - e2: TorsionEvidence(order={verdict.m}) (samples {rendered})")
    elif isinstance(verdict, NonTorsion):
        print(f"e1 - e2: NonTorsion(witness={rat_to_string(verdict.witness)}) (samples {rendered})")
    return 0


_COMMANDS = {
    "analyze": _cmd_analyze,
    "densify": _cmd_densify,
    "probe": _cmd_probe,
    "enriques-restrict": _cmd_enriques_restrict,
    "enriques-bitangents": _cmd_enriques_bitangents,
    "enriques-model": _cmd_enriques_model,
}


def run_command(name: str, spec: RunSpec) -> int:
    """Run one pipeline against a validated spec; returns the exit status."""
    if name not in _COMMANDS:
        raise SpecValidationError("command", f"unknown command: {name!r}")
    return _COMMANDS[name](spec)


# -- argument plumbing --


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="fibdense",
        description="Exact density sweeps for elliptic fibrations and cone quartics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("spec", help="path to a JSON run spec")
        p.add_argument("--out", help="output directory (default: out)")
        p.add_argument("--height-bound", type=int, dest="height_bound")
        p.add_argument("--k-max", type=int, dest="k_max")
    return parser


_FLAG_FIELDS = ("out", "height_bound", "k_max")


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    overrides = {f: getattr(args, f) for f in _FLAG_FIELDS if getattr(args, f) is not None}
    try:
        try:
            with open(args.spec, encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise SpecValidationError("spec", str(exc)) from None
        spec = parse_spec(text, overrides)
        return run_command(args.command, spec)
    except SpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # no tracebacks reach the user
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
