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

from .density import densify, report_to_csv, report_to_json
from .enriques import (
    bitangent_sections,
    k3_weierstrass_model,
    restrict_quartic_to_cone,
)
from .errors import DomainError, NoCandidates, SpecError, SpecValidationError
from .exactmath import NumFieldElement, enumerate_rationals, rat_to_string
from .fibration import (
    NonTorsion,
    Order,
    TorsionEvidence,
    ZeroSection,
    fiber_type,
    order_probe,
    section_difference_order,
    specialize,
)
from .specfile import RunSpec, parse_spec


def _render_point(p) -> str:
    if p.is_infinity:
        return "Infinity"
    return f"({p.x}, {p.y})"


def _scalar_json(value):
    """Exact JSON form: rationals as strings, quadratic elements as objects."""
    if isinstance(value, Fraction):
        return rat_to_string(value)
    if isinstance(value, NumFieldElement):
        if value.is_rational:
            return rat_to_string(value.coeffs[0])
        return {
            "coords": [rat_to_string(c) for c in value.coeffs],
            "minpoly": [rat_to_string(c) for c in value.field.minimal_polynomial.coeffs],
        }
    raise DomainError(f"unrenderable scalar: {value!r}")


def _need(spec: RunSpec, field: str, command: str):
    value = getattr(spec, field)
    missing = value is None or (field in ("points", "samples") and not value)
    if missing:
        raise SpecValidationError(field, f"required by {command}")
    return value


# -- commands --


def _cmd_analyze(spec: RunSpec) -> int:
    model = _need(spec, "fibration", "analyze")
    singular = model.singular_parameters()
    print("singular fibers:" + (" none" if not singular else ""))
    for b in singular:
        ft = fiber_type(model, b)
        irr = {True: "irreducible", False: "reducible", None: "undecided"}[ft.irreducible]
        print(f"b={rat_to_string(b)}: ordΔ={ft.ord_delta}, {ft.label}, {irr}")
    if spec.multisection is None:
        return 0
    report = spec.multisection.ramification(model)
    empty = not report.points and not report.unresolved
    print("ramification:" + (" none" if empty else ""))
    for rp in report.points:
        tag = "salient" if rp.salient else "not salient"
        print(f"b={rp.b}: point={_render_point(rp.point)}, {tag}")
    for u in report.unresolved:
        tag = "all roots singular" if u.all_singular else "roots undecided"
        print(f"unresolved factor {u.factor}: {tag}")
    return 0


def _cmd_densify(spec: RunSpec) -> int:
    model = _need(spec, "fibration", "densify")
    m = _need(spec, "multisection", "densify")
    height_bound = _need(spec, "height_bound", "densify")
    report = densify(model, m, height_bound, spec.k_max if spec.k_max is not None else 5)
    out_dir = spec.out or "out"
    os.makedirs(out_dir, exist_ok=True)
    report_path = os.path.join(out_dir, "report.json")
    points_path = os.path.join(out_dir, "points.csv")
    with open(report_path, "w", encoding="utf-8", newline="") as fh:
        report_to_json(report, fh)
    with open(points_path, "w", encoding="utf-8", newline="") as fh:
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
    m_max = _need(spec, "m_max", "probe")
    samples = list(_need(spec, "samples", "probe"))
    verdict = order_probe(model, m, samples, m_max)
    if isinstance(verdict, Order):
        print(f"Order({verdict.m}) (evidence on {len(samples)} sampled fibers)")
    else:
        print(
            f"NoOrderUpTo({verdict.m_max}) (proof: no m <= {verdict.m_max} kills "
            f"every sampled fiber difference)"
        )
    return 0


def _cmd_enriques_restrict(spec: RunSpec) -> int:
    cone = _need(spec, "cone_quartic", "enriques-restrict")
    data = restrict_quartic_to_cone(cone)
    for i, c in enumerate(data.coeffs):
        print(f"f{i} = {c}")
    return 0


def _candidate_json(cand) -> dict:
    section = cand.section
    rational = all(isinstance(c, Fraction) for c in (section.c0, section.c1, section.c2))
    if rational:
        field = "Q"
    else:
        gen = next(c for c in (section.c0, section.c1, section.c2) if isinstance(c, NumFieldElement))
        field = {
            "minpoly": [rat_to_string(c) for c in gen.field.minimal_polynomial.coeffs],
            "name": gen.field.name,
        }
    return {
        "parameter": _scalar_json(cand.parameter),
        "c0": _scalar_json(section.c0),
        "c1": _scalar_json(section.c1),
        "c2": _scalar_json(section.c2),
        "field": field,
        "second_tangency": [[_scalar_json(t), _scalar_json(z)] for t, z in cand.second_tangencies],
    }


def _cmd_enriques_bitangents(spec: RunSpec) -> int:
    cone = _need(spec, "cone_quartic", "enriques-bitangents")
    points = _need(spec, "points", "enriques-bitangents")
    data = restrict_quartic_to_cone(cone)
    results = []
    for point in points:
        try:
            report = bitangent_sections(data, point, through=spec.through)
        except NoCandidates:
            report = None
        entry = {
            "base_point": [rat_to_string(point[0]), rat_to_string(point[1])],
            "candidates": [] if report is None else [_candidate_json(c) for c in report],
            "higher_degree_parameters": 0 if report is None else report.higher_degree_parameters,
        }
        results.append(entry)

    payload = {
        "through": None if spec.through is None else [rat_to_string(c) for c in spec.through],
        "results": results,
    }
    out_dir = spec.out or "out"
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "bitangents.json")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(json.dumps(payload, indent=2) + "\n")
    for entry in results:
        base = "(" + ", ".join(entry["base_point"]) + ")"
        print(f"base point {base}: {len(entry['candidates'])} candidate(s)")
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
    print(f"e2 = ({k3.e2.x}, {k3.e2.y})")
    print(f"twist = {rat_to_string(k3.twist)}")
    samples = list(spec.samples) if spec.samples else _default_difference_samples(k3.fibration)
    verdict = section_difference_order(k3.fibration, ZeroSection(), (k3.e2.x, k3.e2.y), samples)
    rendered = ", ".join(rat_to_string(b) for b in samples)
    if isinstance(verdict, TorsionEvidence):
        print(f"e1 - e2: TorsionEvidence(order={verdict.order}) (samples {rendered})")
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
        p.add_argument("--m-max", type=int, dest="m_max")
    return parser


_FLAG_FIELDS = ("out", "height_bound", "k_max", "m_max")


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    overrides = {f: getattr(args, f) for f in _FLAG_FIELDS if getattr(args, f) is not None}
    try:
        try:
            with open(args.spec, encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
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
