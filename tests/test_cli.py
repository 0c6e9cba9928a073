"""Spec-file parsing and command-surface tests."""

from __future__ import annotations

import csv
import gc
import io
import itertools
import json
import os
import subprocess
import sys
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fibdense
import fibdense.fibration
from fibdense.cli import _bitangents_json, _parser, main, run_command
from fibdense.density import densify, report_to_csv, report_to_json
from fibdense.elliptic import EllipticCurve, Torsion
from fibdense.enriques import BitangentCandidate, BitangentReport, ConeQuartic
from fibdense.errors import SpecSyntaxError, SpecValidationError
from fibdense.exactmath import NumField, NumFieldElement, poly, rat_to_string, ratfn
from fibdense.fibration import (
    ConstantX,
    FibrationModel,
    GraphOnQuartic,
    Order,
    Parametrized,
    SplitList,
    ZeroSection,
    order_probe,
)
from fibdense.specfile import RunSpec, parse_spec

WORKED_TEXT = """{
  "fibration": {"a": {"num": ["0", "1"]}, "b": {"num": ["1"]}},
  "multisection": {"kind": "constant_x", "x": "1"},
  "params": {"height_bound": 10, "k_max": 5}
}"""

PROBE_TEXT = """{
  "fibration": {"a": {"num": ["0", "1"]}, "b": {"num": ["1"]}},
  "multisection": {"kind": "parametrized",
                   "t": {"num": ["-1", "0", "0", "-1"], "den": ["0", "1"]},
                   "x": {"num": ["0", "1"]},
                   "y": {"num": ["0"]}},
  "params": {"samples": ["-2", "-9/2", "-28/3", "-65/4"]}
}"""

CONE_TEXT = """{
  "cone_quartic": {"0004": "1", "1120": "1", "4000": "-2"},
  "point": ["1", "1"]
}"""


def write_spec(tmp_path, text, name="run.json"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestParseSpec:
    def test_worked_round_trip(self):
        spec = parse_spec(WORKED_TEXT)
        assert spec.fibration == FibrationModel(ratfn([0, 1]), ratfn([1]))
        assert spec.multisection == ConstantX(F(1))
        assert (spec.height_bound, spec.k_max) == (10, 5)
        assert spec.out is None

    def test_all_multisection_kinds(self):
        assert parse_spec(
            '{"multisection": {"kind": "zero_section"}}'
        ).multisection == ZeroSection()
        spec = parse_spec(PROBE_TEXT)
        assert spec.multisection == Parametrized(
            ratfn([-1, 0, 0, -1], [0, 1]), ratfn([0, 1]), ratfn([0])
        )
        graph = parse_spec(
            """{"multisection": {"kind": "graph_on_quartic", "p": ["0"],
                "fiber_coeffs": [["1","1","1","1","1"], ["0"], ["0"], ["0"], ["1"]],
                "generator": ["0", "1"]}}"""
        ).multisection
        assert graph == GraphOnQuartic(
            p=poly([0]),
            fiber_coeffs=(poly([1, 1, 1, 1, 1]), poly([0]), poly([0]), poly([0]), poly([1])),
            generator=(F(0), F(1)),
        )
        split = parse_spec(
            """{"multisection": {"kind": "split", "sections":
                [[{"num": ["0"]}, {"num": ["1"]}], [{"num": ["1"]}, {"num": ["0", "2"]}]]}}"""
        ).multisection
        assert split == SplitList(((ratfn([0]), ratfn([1])), (ratfn([1]), ratfn([0, 2]))))

    def test_cone_quartic_block(self):
        spec = parse_spec(CONE_TEXT)
        assert spec.cone_quartic == ConeQuartic({(0, 0, 0, 4): 1, (1, 1, 2, 0): 1, (4, 0, 0, 0): -2})
        assert spec.points == ((F(1), F(1)),)

    def test_zero_denominator_rational(self):
        bad = WORKED_TEXT.replace('"0", "1"', '"0", "1/0"')
        with pytest.raises(SpecValidationError) as info:
            parse_spec(bad)
        assert info.value.field == "fibration.a.num[1]"
        assert "zero denominator" in info.value.reason

    def test_zero_denominator_polynomial(self):
        with pytest.raises(SpecValidationError) as info:
            parse_spec('{"fibration": {"a": {"num": ["1"], "den": ["0"]}, "b": {"num": ["1"]}}}')
        assert info.value.field == "fibration.a.den"

    def test_singular_generic_fiber(self):
        with pytest.raises(SpecValidationError) as info:
            parse_spec('{"fibration": {"a": {"num": ["0"]}, "b": {"num": ["0"]}}}')
        assert (info.value.field, info.value.reason) == ("fibration", "singular generic fiber")

    def test_syntax_error_is_positioned(self):
        with pytest.raises(SpecSyntaxError) as info:
            parse_spec('{\n  "fibration": {\n}')
        assert info.value.line >= 2 and info.value.column >= 1

    def test_floats_rejected(self):
        with pytest.raises(SpecValidationError):
            parse_spec('{"multisection": {"kind": "constant_x", "x": 1.5}}')

    def test_unknown_fields_rejected(self):
        with pytest.raises(SpecValidationError):
            parse_spec('{"fibratio": {}}')
        with pytest.raises(SpecValidationError):
            parse_spec('{"multisection": {"kind": "diagonal"}}')
        with pytest.raises(SpecValidationError):
            parse_spec('{"cone_quartic": {"123": "1"}}')

    def test_param_validation(self):
        with pytest.raises(SpecValidationError):
            parse_spec('{"params": {"height_bound": -1}}')
        with pytest.raises(SpecValidationError):
            parse_spec('{"params": {"m_max": 0}}')
        with pytest.raises(SpecValidationError):
            parse_spec('{"params": {"samples": ["1", "x"]}}')


class TestExitCodes:
    def test_analyze_fiber_type_row(self, tmp_path, capsys):
        path = write_spec(tmp_path, '{"fibration": {"a": {"num": ["0"]}, "b": {"num": ["0", "1"]}}}')
        assert main(["analyze", path]) == 0
        assert "b=0: ordΔ=2, II, irreducible" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "a, b, row",
        [
            ({"num": ["1"], "den": ["0", "1"]}, {"num": ["1"]}, "b=0: ordΔ=9, Other, undecided"),
            (
                {"num": ["1"], "den": ["0", "0", "0", "0", "1"]},
                {"num": ["1"], "den": ["0", "0", "0", "0", "0", "0", "1"]},
                "b=0: ordΔ=0, I0, irreducible",
            ),
            (
                {"num": ["0", "0", "0", "0", "1"]},
                {"num": ["0", "0", "0", "0", "0", "0", "1"]},
                "b=0: ordΔ=0, I0, irreducible",
            ),
        ],
        ids=["a=1/t", "a=t^-4,b=t^-6", "a=t^4,b=t^6"],
    )
    def test_analyze_classifies_a_coefficient_pole(self, tmp_path, capsys, a, b, row):
        path = write_spec(tmp_path, json.dumps({"fibration": {"a": a, "b": b}}))
        assert main(["analyze", path]) == 0
        assert capsys.readouterr().out == f"singular fibers:\n{row}\n"

    def test_analyze_ramification_table(self, tmp_path, capsys):
        path = write_spec(tmp_path, WORKED_TEXT)
        assert main(["analyze", path]) == 0
        out = capsys.readouterr().out
        assert "singular fibers: none" in out
        assert "b=-2: point=(1, 0), salient" in out

    def test_analyze_graph_branch_point_on_a_singular_fiber(self, tmp_path, capsys):
        # F = z^4 + z^2 + t^2 and z = 0: G = t^2 branches at t = 0, where the
        # fiber quartic z^4 + z^2 has a double root; the chart still maps it
        path = write_spec(
            tmp_path,
            """{"fibration": {"a": {"num": ["-1/3", "0", "-4"]}, "b": {"num": ["2/27", "0", "-8/3"]}},
                "multisection": {"kind": "graph_on_quartic", "p": ["0"],
                                 "fiber_coeffs": [["0", "0", "1"], ["0"], ["1"], ["0"], ["1"]]}}""",
        )
        assert main(["analyze", path]) == 0
        assert capsys.readouterr().out.endswith("ramification:\nb=0: point=(1/3, 0), not salient\n")

    def test_densify_graph_skips_points_on_singular_fibers(self, tmp_path, capsys):
        # the same F with z = t + 1: multiples of the generator (-1, 1) on the
        # covering curve land on the singular fibers t = -1/2 and t = 1/2
        path = write_spec(
            tmp_path,
            """{"fibration": {"a": {"num": ["-1/3", "0", "-4"]}, "b": {"num": ["2/27", "0", "-8/3"]}},
                "multisection": {"kind": "graph_on_quartic", "p": ["1", "1"], "generator": ["-1", "1"],
                                 "fiber_coeffs": [["0", "0", "1"], ["0"], ["1"], ["0"], ["1"]]},
                "params": {"height_bound": 2}}""",
        )
        assert main(["densify", path, "--out", str(tmp_path / "out")]) == 0
        assert capsys.readouterr().out.startswith("fibers attempted: 4\nfibers certified: 1\n")
        report = json.loads((tmp_path / "out" / "report.json").read_text(encoding="utf-8"))
        skipped = [(f["b"], f["reason"]) for f in report["per_fiber"] if f["verdict"] == "skipped"]
        assert skipped == [("-1/2", "singular"), ("1/2", "singular")]

    def test_analyze_unresolved_factor_line(self, tmp_path, capsys):
        # y^2 = x^3 + (t^3 + 2) meets x = 0 over the roots of t^3 + 2, a cubic
        # factor whose fibers are all singular
        path = write_spec(
            tmp_path,
            """{"fibration": {"a": {"num": ["0"]}, "b": {"num": ["2", "0", "0", "1"]}},
                "multisection": {"kind": "constant_x", "x": "0"}}""",
        )
        assert main(["analyze", path]) == 0
        assert capsys.readouterr().out == (
            "singular fibers: none\n"
            "ramification:\n"
            "unresolved factor t^3 + 2: all roots singular\n"
        )

    def test_analyze_parametrized_rational_critical_parameter(self, tmp_path, capsys):
        # s -> (t, x, y) = (-s^2, s, 1) on y^2 = x^3 + t x + 1: t'(s) = -2s
        # vanishes at s = 0 only, over the smooth fiber t = 0
        path = write_spec(
            tmp_path,
            """{"fibration": {"a": {"num": ["0", "1"]}, "b": {"num": ["1"]}},
                "multisection": {"kind": "parametrized", "t": {"num": ["0", "0", "-1"]},
                                 "x": {"num": ["0", "1"]}, "y": {"num": ["1"]}}}""",
        )
        assert main(["analyze", path]) == 0
        assert capsys.readouterr().out == (
            "singular fibers: none\n"
            "ramification:\n"
            "b=0: point=(0, 1), salient\n"
        )

    def test_analyze_ramification_point_at_infinity(self, tmp_path, capsys):
        # s -> (-s^2, 1/s^2, 1/s^3) on y^2 = x^3 + t x + 1: the critical
        # parameter s = 0 is a pole of x and y, so its point is the origin
        path = write_spec(
            tmp_path,
            """{"fibration": {"a": {"num": ["0", "1"]}, "b": {"num": ["1"]}},
                "multisection": {"kind": "parametrized", "t": {"num": ["0", "0", "-1"]},
                                 "x": {"num": ["1"], "den": ["0", "0", "1"]},
                                 "y": {"num": ["1"], "den": ["0", "0", "0", "1"]}}}""",
        )
        assert main(["analyze", path]) == 0
        assert capsys.readouterr().out == (
            "singular fibers: none\n"
            "ramification:\n"
            "b=0: point=Infinity, salient\n"
        )

    def test_analyze_parametrized_quadratic_critical_parameters(self, tmp_path, capsys):
        # s -> (2 + s^2 - s^4, s^2, 1 + s^2) on y^2 = x^3 + t x + 1:
        # t'(s) = -2s(2s^2 - 1), so besides s = 0 the critical parameters are
        # s = +-sqrt(1/2), whose t-image 9/4 and point (1/2, 3/2) are rational;
        # t, x and y are functions of s^2, so both conjugates give that point
        path = write_spec(
            tmp_path,
            """{"fibration": {"a": {"num": ["0", "1"]}, "b": {"num": ["1"]}},
                "multisection": {"kind": "parametrized", "t": {"num": ["2", "0", "1", "0", "-1"]},
                                 "x": {"num": ["0", "0", "1"]}, "y": {"num": ["1", "0", "1"]}}}""",
        )
        assert main(["analyze", path]) == 0
        assert capsys.readouterr().out == (
            "singular fibers: none\n"
            "ramification:\n"
            "b=2: point=(0, 1), salient\n"
            "b=9/4: point=(1/2, 3/2), salient\n"
            "b=9/4: point=(1/2, 3/2), salient\n"
        )

    def test_syntax_error_exit_2(self, tmp_path, capsys):
        path = write_spec(tmp_path, '{"fibration": {')
        assert main(["analyze", path]) == 2
        assert "line" in capsys.readouterr().err

    def test_validation_error_exit_2(self, tmp_path, capsys):
        path = write_spec(tmp_path, '{"fibration": {"a": {"num": ["0"]}, "b": {"num": ["0"]}}}')
        assert main(["analyze", path]) == 2
        assert "singular generic fiber" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "spec, field, reason",
        [
            ({"fibration": {"a": {"num": ["0", "1"]}}}, "fibration.b", "missing field"),
            (
                {"fibration": {"a": {"num": "1"}, "b": {"num": ["1"]}}},
                "fibration.a.num",
                "expected a list of rationals",
            ),
            (
                {"fibration": {"a": "t", "b": {"num": ["1"]}}},
                "fibration.a",
                'expected an object {"num": [...], "den": [...]}',
            ),
            ({"point": ["1"]}, "point", "expected a pair [t, z] of rationals"),
            ({"fibration": []}, "fibration", "expected an object with a and b"),
            ({"multisection": "x"}, "multisection", "expected an object with a kind tag"),
            (
                {"multisection": {"kind": "graph_on_quartic", "p": ["0"], "fiber_coeffs": []}},
                "multisection.fiber_coeffs",
                "expected five coefficient lists",
            ),
            (
                {
                    "multisection": {
                        "kind": "graph_on_quartic",
                        "p": ["0", "0", "0", "1"],
                        "fiber_coeffs": [["-1"], ["0"], ["0"], ["0"], ["1"]],
                    }
                },
                "multisection",
                "graph sections have degree at most 2 in t",
            ),
            (
                {"multisection": {"kind": "split", "sections": []}},
                "multisection.sections",
                "expected a nonempty list",
            ),
            (
                {"multisection": {"kind": "split", "sections": [{"num": ["1"]}]}},
                "multisection.sections[0]",
                "expected an [x, y] pair",
            ),
            ({"cone_quartic": []}, "cone_quartic", 'expected coefficients keyed by exponents "e0e1e2e3"'),
            (
                {"cone_quartic": {"0003": "1"}},
                "cone_quartic",
                "(0, 0, 0, 3) is not a degree-4 monomial exponent",
            ),
            ([], "", "top level must be an object"),
            ({"points": "x"}, "points", "expected a list of [t, z] pairs"),
            (
                {"allow_quadratic_twist_extension": "yes"},
                "allow_quadratic_twist_extension",
                "expected true or false",
            ),
            ({"params": []}, "params", "expected an object"),
            ({"out": 3}, "out", "expected a path string"),
        ],
        ids=[
            "missing field",
            "num not a list",
            "ratfn not an object",
            "pair of one",
            "fibration not an object",
            "multisection not an object",
            "four fiber_coeffs",
            "graph of degree 3",
            "no split sections",
            "split section not a pair",
            "cone_quartic not an object",
            "cone exponent sum 3",
            "top level a list",
            "points not a list",
            "twist flag not a bool",
            "params not an object",
            "out not a string",
        ],
    )
    def test_each_spec_validation_error_exit_2(self, tmp_path, capsys, spec, field, reason):
        # every value the validator rejects exits 2 and names its field path
        path = write_spec(tmp_path, json.dumps(spec))
        assert main(["analyze", path]) == 2
        assert capsys.readouterr().err == f"error: invalid spec field '{field}': {reason}\n"

    def test_missing_file_exit_2(self, tmp_path, capsys):
        assert main(["analyze", str(tmp_path / "absent.json")]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize(
        "case",
        [
            "nested too deeply",
            "not UTF-8",
            "out under a file",
            "report.json is a directory",
            "points.csv is a directory",
            "bitangents.json is a directory",
        ],
    )
    def test_unusable_spec_or_out_exit_2(self, tmp_path, capsys, case):
        path, argv = tmp_path / "run.json", ["densify", str(tmp_path / "run.json")]
        field = "spec" if case in ("nested too deeply", "not UTF-8") else "out"
        if case == "nested too deeply":
            path.write_text("[" * 200000 + "]" * 200000, encoding="utf-8")
        elif case == "not UTF-8":
            path.write_bytes(WORKED_TEXT.replace('"1"', '"\xff"').encode("latin-1"))
        elif case == "bitangents.json is a directory":
            path.write_text(CONE_TEXT, encoding="utf-8")
            argv = ["enriques-bitangents", str(path), "--out", str(tmp_path / "out")]
            (tmp_path / "out" / "bitangents.json").mkdir(parents=True)
        else:
            path.write_text(WORKED_TEXT.replace('"height_bound": 10', '"height_bound": 2'), encoding="utf-8")
            if case == "out under a file":
                (tmp_path / "file").write_text("", encoding="utf-8")
                argv += ["--out", str(tmp_path / "file" / "out")]
            else:
                (tmp_path / "out" / case.split()[0]).mkdir(parents=True)
                argv += ["--out", str(tmp_path / "out")]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith(f"error: invalid spec field '{field}': ")

    def test_command_spec_mismatch_exit_2(self, tmp_path, capsys):
        path = write_spec(tmp_path, CONE_TEXT)
        assert main(["densify", path]) == 2
        assert "required by densify" in capsys.readouterr().err

    def test_computational_error_exit_3(self, tmp_path, capsys):
        path = write_spec(tmp_path, '{"cone_quartic": {"0004": "2", "1120": "1", "4000": "-2"}}')
        assert main(["enriques-model", path]) == 3
        assert "LeadingCoefficientNotSquare" in capsys.readouterr().err

    def test_run_command_unknown_name(self):
        with pytest.raises(SpecValidationError):
            run_command("frobnicate", RunSpec())


class TestParserReuse:
    def test_bad_flag_then_valid_spec_match_a_fresh_process(self, tmp_path, capsys):
        # main() builds its parser once per process; a rejected command line
        # must leave it as a fresh process would have it
        path = write_spec(tmp_path, WORKED_TEXT)
        bad = ["densify", path, "--height-bound", "x"]
        with pytest.raises(SystemExit) as exc:
            main(bad)
        assert exc.value.code == 2
        bad_err = capsys.readouterr().err
        assert bad_err.startswith("usage: fibdense densify")
        assert main(["densify", path, "--out", str(tmp_path / "same"), "--height-bound", "4"]) == 0
        capsys.readouterr()

        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(fibdense.__file__)))

        def fresh(*args):
            cmd = [sys.executable, "-m", "fibdense.cli", *args]
            return subprocess.run(cmd, env=env, capture_output=True, text=True, check=False)

        proc = fresh(*bad)
        assert (proc.returncode, proc.stderr) == (2, bad_err)
        proc = fresh("densify", path, "--out", str(tmp_path / "fresh"), "--height-bound", "4")
        assert proc.returncode == 0
        for name in ("report.json", "points.csv"):
            assert (tmp_path / "same" / name).read_bytes() == (tmp_path / "fresh" / name).read_bytes()


class TestProbeCommand:
    def test_order_evidence_line(self, tmp_path, capsys):
        path = write_spec(tmp_path, PROBE_TEXT)
        assert main(["probe", path]) == 0
        assert capsys.readouterr().out == "Order(2) (evidence on 4 sampled fibers)\n"

    def test_no_order_is_reported_as_proof(self, tmp_path, capsys):
        path = write_spec(
            tmp_path,
            """{
            "fibration": {"a": {"num": ["0", "1"]}, "b": {"num": ["1"]}},
            "multisection": {"kind": "constant_x", "x": "1"},
            "params": {"samples": ["2", "7", "14"]}
            }""",
        )
        assert main(["probe", path]) == 0
        assert capsys.readouterr().out == (
            "NonTorsion(witness=2) (proof: the sampled difference at t = 2 has infinite order)\n"
        )

    def test_rational_field_x_beside_a_constant_y(self, tmp_path, capsys):
        # s -> (s^2, 0, 2) lies on y^2 = x^3 + t x + 4. At t = 2, s = +-sqrt(2):
        # the zero x(s) is a field element and the constant y(s) a Fraction,
        # and the point (0, 2) descends to Q on both conjugates
        path = write_spec(
            tmp_path,
            """{
            "fibration": {"a": {"num": ["0", "1"]}, "b": {"num": ["4"]}},
            "multisection": {"kind": "parametrized", "t": {"num": ["0", "0", "1"]},
                             "x": {"num": ["0"]}, "y": {"num": ["2"]}},
            "params": {"samples": ["2"]}
            }""",
        )
        assert main(["probe", path]) == 0
        captured = capsys.readouterr()
        assert "internal error" not in captured.err
        assert captured.out == "Order(1) (evidence on 1 sampled fibers)\n"

    def test_order_is_the_lcm_of_the_exact_orders(self, tmp_path, capsys, monkeypatch):
        # a 2-torsion and a 3-torsion difference are killed together by 6
        # and its multiples only
        orders = itertools.cycle([Torsion(2), Torsion(3)])
        monkeypatch.setattr(fibdense.fibration, "torsion_certify", lambda *_a: next(orders))
        spec = parse_spec(PROBE_TEXT)
        assert order_probe(spec.fibration, spec.multisection, spec.samples) == Order(6)
        path = write_spec(tmp_path, PROBE_TEXT)
        assert main(["probe", path]) == 0
        assert capsys.readouterr().out == "Order(6) (evidence on 4 sampled fibers)\n"


class TestDensifyCommand:
    def test_artifacts_match_in_memory_run(self, tmp_path, capsys):
        path = write_spec(tmp_path, WORKED_TEXT)
        out_dir = tmp_path / "run"
        assert main(["densify", path, "--out", str(out_dir), "--height-bound", "4"]) == 0
        stdout = capsys.readouterr().out
        assert "fibers certified:" in stdout

        report = densify(FibrationModel(ratfn([0, 1]), ratfn([1])), ConstantX(F(1)), 4, 5)
        for name, write in (("report.json", report_to_json), ("points.csv", report_to_csv)):
            buf = io.StringIO()
            write(report, buf)
            assert (out_dir / name).read_text(encoding="utf-8") == buf.getvalue()

    def test_csv_reparses_to_emitted_points(self, tmp_path, capsys):
        path = write_spec(tmp_path, WORKED_TEXT)
        out_dir = tmp_path / "run"
        assert main(["densify", path, "--out", str(out_dir), "--height-bound", "3"]) == 0
        capsys.readouterr()
        with open(out_dir / "points.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        report = densify(FibrationModel(ratfn([0, 1]), ratfn([1])), ConstantX(F(1)), 3, 5)
        assert len(rows) == report.points_emitted
        model = FibrationModel(ratfn([0, 1]), ratfn([1]))
        for row in rows:
            b, x, y = F(row["b"]), F(row["x"]), F(row["y"])
            assert y * y == x**3 + model.a(b) * x + model.b(b)

    def test_flag_overrides_spec_value(self, tmp_path, capsys):
        path = write_spec(tmp_path, WORKED_TEXT)
        out_small = tmp_path / "small"
        assert main(["densify", path, "--out", str(out_small), "--height-bound", "3"]) == 0
        small = json.loads((out_small / "report.json").read_text(encoding="utf-8"))
        assert small["fibers_attempted"] < 20
        capsys.readouterr()


class TestEnriquesCommands:
    def test_restrict_prints_branch_coefficients(self, tmp_path, capsys):
        path = write_spec(tmp_path, CONE_TEXT)
        assert main(["enriques-restrict", path]) == 0
        out = capsys.readouterr().out
        assert "f0 = t^4 - 2" in out and "f4 = 1" in out

    def test_bitangents_artifact(self, tmp_path, capsys):
        path = write_spec(tmp_path, CONE_TEXT)
        out_dir = tmp_path / "bit"
        assert main(["enriques-bitangents", path, "--out", str(out_dir)]) == 0
        capsys.readouterr()
        payload = json.loads((out_dir / "bitangents.json").read_text(encoding="utf-8"))
        (entry,) = payload["results"]
        assert entry["base_point"] == ["1", "1"]
        (candidate,) = entry["candidates"]
        assert candidate["field"] == "Q"
        assert (candidate["c0"], candidate["c1"], candidate["c2"]) == ("3/2", "0", "-1/2")
        assert candidate["parameter"] == "-1/2"
        assert candidate["second_tangency"] == [["-1", "1"]]

    def test_model_report(self, tmp_path, capsys):
        path = write_spec(tmp_path, CONE_TEXT)
        assert main(["enriques-model", path]) == 0
        out = capsys.readouterr().out
        assert "a(t) = -4*t^4 + 8" in out
        assert "b(t) = 0" in out
        assert "e2 = (0, 0)" in out
        assert "twist = 1" in out
        assert "e1 - e2: TorsionEvidence(order=2)" in out

    def test_model_checks_each_section_point_once(self, tmp_path, capsys, monkeypatch):
        # per sample: the trace of e2 checks its point, and torsion_certify
        # checks e1 - e2; the difference itself adds no check
        calls = []
        contains = EllipticCurve.contains
        monkeypatch.setattr(EllipticCurve, "contains", lambda self, p: calls.append(p) or contains(self, p))
        assert main(["enriques-model", write_spec(tmp_path, CONE_TEXT)]) == 0
        assert capsys.readouterr().out == (
            "a(t) = -4*t^4 + 8\n"
            "b(t) = 0\n"
            "e2 = (0, 0)\n"
            "twist = 1\n"
            "e1 - e2: TorsionEvidence(order=2) (samples 0, -1, 1)\n"
        )
        assert len(calls) == 6

    def test_model_non_torsion_difference(self, tmp_path, capsys):
        path = write_spec(
            tmp_path, '{"cone_quartic": {"0004": "1", "1021": "-2", "1210": "2", "4000": "-1"}}'
        )
        assert main(["enriques-model", path]) == 0
        assert capsys.readouterr().out == (
            "a(t) = -8*t^5 + 4\n"
            "b(t) = 4*t^4\n"
            "e2 = (0, 2*t^2)\n"
            "twist = 1\n"
            "e1 - e2: NonTorsion(witness=-1) (samples 0, -1, 1)\n"
        )

    def test_model_twist_opt_in(self, tmp_path, capsys):
        text = """{
          "cone_quartic": {"0004": "2", "1120": "1", "4000": "-2"},
          "allow_quadratic_twist_extension": true
        }"""
        path = write_spec(tmp_path, text)
        assert main(["enriques-model", path]) == 0
        assert "twist = 2" in capsys.readouterr().out


@pytest.mark.parametrize(
    "command, text",
    [("densify", WORKED_TEXT), ("enriques-bitangents", CONE_TEXT)],
    ids=["densify", "enriques-bitangents"],
)
def test_commands_leave_no_cyclic_garbage(tmp_path, capsys, command, text):
    # a command frees what it made by reference counting alone: json's
    # indent encoder leaves a reference cycle behind each document
    path = write_spec(tmp_path, text)
    _parser()  # built once per process; argparse's formatters hold cycles
    gc.collect()
    gc.disable()
    try:
        assert main([command, path, "--out", str(tmp_path / "out")]) == 0
        assert gc.collect() == 0
    finally:
        gc.enable()
    capsys.readouterr()


def _reference_bitangents_json(through, results):
    """bitangents.json as one document dumped at once."""

    def scalar(value):
        if isinstance(value, NumFieldElement) and not value.is_rational:
            return {
                "coords": [rat_to_string(c) for c in value.coeffs],
                "minpoly": [rat_to_string(c) for c in value.field.minimal_polynomial.coeffs],
            }
        return rat_to_string(value.coeffs[0] if isinstance(value, NumFieldElement) else value)

    def candidate(cand):
        coords = [cand.section.coefficient(k) for k in range(3)]
        if all(isinstance(c, F) for c in coords):
            field = "Q"
        else:
            gen = next(c for c in coords if isinstance(c, NumFieldElement))
            field = {
                "minpoly": [rat_to_string(c) for c in gen.field.minimal_polynomial.coeffs],
                "name": gen.field.name,
            }
        return {
            "parameter": scalar(cand.parameter),
            "c0": scalar(coords[0]),
            "c1": scalar(coords[1]),
            "c2": scalar(coords[2]),
            "field": field,
            "second_tangency": [[scalar(t), scalar(z)] for t, z in cand.second_tangencies],
        }

    doc = {
        "through": None if through is None else [rat_to_string(c) for c in through],
        "results": [
            {
                "base_point": [rat_to_string(point[0]), rat_to_string(point[1])],
                "candidates": [candidate(c) for c in report],
                "higher_degree_parameters": report.higher_degree_parameters,
            }
            for point, report in results
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


RATIONALS = st.fractions() | st.integers(-(10**40), 10**40).map(F)
# field names with every character class json escapes
FIELD_NAMES = st.one_of(st.text(), st.text(alphabet='"\\/\n\t\x00\x7fé√€😀 az'))
FIELDS = st.builds(
    lambda d, name: NumField(poly([-d, 0, 1]), name),
    st.sampled_from([F(2), F(-1), F(3), F(-7, 5)]),
    FIELD_NAMES,
)


@st.composite
def _candidates(draw):
    """A candidate over Q or over one quadratic field; its scalars are
    rationals, rational field elements or irrational field elements."""
    field = draw(st.none() | FIELDS)
    if field is None:
        scalars = RATIONALS
    else:
        elements = st.builds(
            lambda a, b: NumFieldElement(field, (a, b)), RATIONALS, RATIONALS | st.just(F(0))
        )
        scalars = RATIONALS | elements
    coords = draw(st.lists(scalars, min_size=3, max_size=3))
    if field is not None and not any(isinstance(c, NumFieldElement) for c in coords):
        coords[draw(st.integers(0, 2))] = NumFieldElement(field, (draw(RATIONALS), F(1)))
    return BitangentCandidate(
        poly(coords),
        draw(scalars),
        tuple(draw(st.lists(st.tuples(scalars, scalars), max_size=2))),
    )


RESULTS = st.tuples(
    st.tuples(RATIONALS, RATIONALS),
    st.builds(BitangentReport, st.lists(_candidates(), max_size=3).map(tuple), st.integers(0, 9)),
)

NAMED = NumField(poly([-2, 0, 1]), 'r"\\\n√')


@given(st.none() | st.tuples(RATIONALS, RATIONALS), st.lists(RESULTS, max_size=3))
@example(None, [((F(1), F(1)), BitangentReport((), 0))])
@example(
    (F(1), F(-1, 2)),
    [
        (
            (F(1), F(1)),
            BitangentReport(
                (
                    BitangentCandidate(
                        poly([F(1), NumFieldElement(NAMED, (F(0), F(1))), F(0)]),
                        NumFieldElement(NAMED, (F(3), F(0))),
                        ((NumFieldElement(NAMED, (F(1), F(-1))), F(2)),),
                    ),
                ),
                1,
            ),
        )
    ],
)
@settings(max_examples=200, deadline=None)
def test_bitangents_json_is_the_indent_2_dump(through, results):
    assert _bitangents_json(through, results) == _reference_bitangents_json(through, results)
