"""Spec-file parsing and command-surface tests."""

from __future__ import annotations

import csv
import io
import itertools
import json
import os
import subprocess
import sys
from fractions import Fraction as F

import pytest

import fibdense
import fibdense.fibration
from fibdense.cli import main, run_command
from fibdense.density import densify, report_to_csv, report_to_json
from fibdense.enriques import ConeQuartic
from fibdense.errors import SpecSyntaxError, SpecValidationError
from fibdense.exactmath import poly, ratfn
from fibdense.fibration import (
    ConstantX,
    FibrationModel,
    GraphOnQuartic,
    NoOrderUpTo,
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
  "params": {"m_max": 4, "samples": ["-2", "-9/2", "-28/3", "-65/4"]}
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

    def test_analyze_ramification_table(self, tmp_path, capsys):
        path = write_spec(tmp_path, WORKED_TEXT)
        assert main(["analyze", path]) == 0
        out = capsys.readouterr().out
        assert "singular fibers: none" in out
        assert "b=-2: point=(1, 0), salient" in out

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

    def test_missing_file_exit_2(self, tmp_path, capsys):
        assert main(["analyze", str(tmp_path / "absent.json")]) == 2
        capsys.readouterr()

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
            "params": {"m_max": 6, "samples": ["2", "7", "14"]}
            }""",
        )
        assert main(["probe", path]) == 0
        out = capsys.readouterr().out
        assert out.startswith("NoOrderUpTo(6)")
        assert "proof" in out

    def test_no_order_when_the_killers_lcm_exceeds_the_cap(self, tmp_path, capsys, monkeypatch):
        # every difference has a killer <= 5, but no single m <= 5 kills both
        # a 2-torsion and a 3-torsion difference
        killers = itertools.cycle([2, 3])
        monkeypatch.setattr(fibdense.fibration, "smallest_order", lambda *_a: next(killers))
        spec = parse_spec(PROBE_TEXT)
        assert order_probe(spec.fibration, spec.multisection, spec.samples, 5) == NoOrderUpTo(5)
        path = write_spec(tmp_path, PROBE_TEXT)
        assert main(["probe", path, "--m-max", "5"]) == 0
        assert capsys.readouterr().out == (
            "NoOrderUpTo(5) (proof: no m <= 5 kills every sampled fiber difference)\n"
        )


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
