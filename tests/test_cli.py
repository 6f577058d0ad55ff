"""CLI surface: commands, emitted files, exit-code contract, determinism."""

import contextlib
import errno
import io
import json
import math
import os
import re
import tempfile
import warnings
from pathlib import Path
from xml.etree import ElementTree

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fingerkit import _array_cli, cli, registry
from fingerkit.cli import main
from fingerkit.config import default_config_path
from fingerkit.errors import ConfigError, FingerkitError, strict_json
from fingerkit.finger import GraspReport
from fingerkit.registry import default_registry
from fingerkit.safety import ClearanceResult, SafetyVerdict, StrokeResult
from test_safety import registry_json

BAD_GEOMETRY = {
    # loop 1 cannot close anywhere near theta1 = 0
    "v": [25.0, 40.0, 45.0, 10.0, 25.0, 40.0, 45.0, 10.0],
    "sigma_deg": 0.0,
    "rho_deg": 0.0,
    "theta1_range_deg": [0.0, 75.0],
    "phalanx_mm": [45.0, 25.0, 20.0],
    "psi_range_deg": [-45.0, 45.0],
    "tendon": {
        "kind": "single",
        "arms_mm": [10.0, 8.0, 6.0],
        "spring_nmm_per_rad": 100.0,
        "preload_nmm": 200.0,
        "max_tension_n": 38.0,
    },
    "thumb_line_mm": [[-20.0, -85.0], [80.0, -85.0]],
}
COEFFICIENT_ERROR = ("error: invalid geometry: loop 1 coefficients must "
                     "satisfy |kappa1| + |kappa2| + |kappa3| + 1 <= 1e+153\n")


def edited_config(tmp_path, edit):
    """The shipped config after ``edit(doc)``, written under ``tmp_path``."""
    doc = json.loads(default_config_path().read_text())
    edit(doc)
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


@pytest.fixture()
def bad_config(tmp_path):
    path = tmp_path / "bad_geometry.json"
    path.write_text(json.dumps(BAD_GEOMETRY), encoding="utf-8")
    return path


class TestAnalyze:
    def test_prints_mobility_and_loops(self, capsys):
        assert main(["analyze"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "M=1, loops=2"
        assert "kappa1=" in out and "loop2:" in out


class TestSweep:
    def test_emits_csv_and_svg(self, tmp_path, capsys):
        out = tmp_path / "run"
        code = main(["sweep", "--out", str(out), "--samples", "25",
                     "--format", "svg"])
        assert code == 0
        angles = (out / "joint_angles.csv").read_text()
        trace = (out / "tip_trace.csv").read_text()
        assert angles.startswith("# config_sha256=")
        assert trace.splitlines()[1] == (
            "theta1_deg,psi_deg,tip_x_mm,tip_y_mm,grip_x_mm,grip_y_mm")
        assert len(trace.splitlines()) == 25 + 2
        assert (out / "joint_angles.svg").exists()
        assert (out / "tip_trace.svg").exists()

    def test_json_format(self, tmp_path):
        out = tmp_path / "run"
        assert main(["sweep", "--out", str(out), "--samples", "5",
                     "--format", "json"]) == 0
        doc = json.loads((out / "joint_angles.json").read_text())
        assert "config_sha256" in doc
        assert len(doc["rows"]) == 5

    def test_deterministic_output(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            assert main(["sweep", "--out", str(out), "--samples", "40",
                         "--format", "svg"]) == 0
        for name in ("joint_angles.csv", "tip_trace.csv",
                     "joint_angles.svg", "tip_trace.svg"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_sample_count_validated(self, tmp_path, capsys):
        assert main(["sweep", "--out", str(tmp_path), "--samples", "1"]) == 2

    @pytest.mark.parametrize("range_deg, samples", [
        ([30.0, 30.0], 5), ([30.0, 30.000000000000004], 1000)])
    def test_zero_width_range(self, range_deg, samples, tmp_path):
        # a linspace over a range this narrow repeats angles
        config = edited_config(
            tmp_path, lambda doc: doc.update(theta1_range_deg=range_deg))
        for command in ("sweep", "workspace", "force"):
            argv = [command, "--config", str(config), "--format", "svg",
                    "--samples", str(samples), "--out", str(tmp_path / command)]
            if command == "workspace":
                argv += ["--psi-samples", "2"]
            assert main(argv) == 0


class TestWorkspace:
    def test_emits_cloud_and_metrics(self, tmp_path):
        out = tmp_path / "ws"
        assert main(["workspace", "--out", str(out), "--samples", "12",
                     "--psi-samples", "4", "--format", "svg"]) == 0
        cloud = (out / "workspace.csv").read_text().splitlines()
        assert len(cloud) == 12 * 4 + 2
        metrics = json.loads((out / "workspace_metrics.json").read_text())
        assert metrics["max_opening_mm"] > 0.0
        assert (out / "workspace.svg").exists()


class TestForce:
    def test_profile_columns(self, tmp_path):
        out = tmp_path / "force"
        assert main(["force", "--out", str(out), "--samples", "10",
                     "--tendon", "double"]) == 0
        lines = (out / "force_profile.csv").read_text().splitlines()
        assert lines[1] == ("theta1_deg,excursion_mm,dexcursion_mm_per_rad,"
                            "tip_speed_mm_per_rad,force_n")
        assert len(lines) == 12

    def test_tension_above_max_is_domain_error(self, tmp_path, capsys):
        assert main(["force", "--out", str(tmp_path), "--tension-n", "99"]) == 1
        assert "error:" in capsys.readouterr().err


class TestGrasp:
    def test_cylinder_report(self, capsys):
        assert main(["grasp", "--diameter-mm", "100"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["grasp_type"] == "cylindrical"
        assert doc["feasible"] is True

    def test_infeasible_cylinder(self, capsys):
        assert main(["grasp", "--diameter-mm", "200"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["grasp_type"] == "infeasible"
        assert doc["predicted_force_n"] == 0.0

    def test_flat_report(self, capsys):
        assert main(["grasp", "--thickness-mm", "0.5"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["grasp_type"] == "pinch"
        assert doc["predicted_force_n"] <= 11.8

    @pytest.mark.parametrize("obj", [
        ["--diameter-mm", "100"], ["--diameter-mm", "200"],
        ["--thickness-mm", "0.5"],
    ])
    def test_keys_are_the_report_fields(self, obj, capsys):
        assert main(["grasp", *obj]) == 0
        assert set(json.loads(capsys.readouterr().out)) == set(GraspReport._fields)

    def test_requires_exactly_one_object(self, capsys):
        assert main(["grasp"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")


class TestSafety:
    def test_default_checks_pass(self, capsys):
        assert main(["safety"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["iso_contact"]["passed"] is True
        assert doc["clearance"]["per_side_clearance_mm"] == 170.0
        assert doc["clearance"]["fits"] is True
        assert doc["stroke"]["slack_mm"] == 10.0

    def test_excessive_force_fails(self, capsys):
        assert main(["safety", "--force-n", "500"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["iso_contact"]["passed"] is False

    def test_zero_force_margin_is_json_null(self, capsys):
        def refuse(constant):
            raise ValueError(f"{constant} is not RFC 8259 JSON")

        # limit/force is infinite at zero force, and overflows at 5e-324
        for force in ("0", "5e-324"):
            assert main(["safety", "--force-n", force]) == 0
            doc = json.loads(capsys.readouterr().out, parse_constant=refuse)
            assert doc["iso_contact"]["margin_ratio"] is None

    @pytest.mark.parametrize("force", [[], ["--force-n", "0"],
                                       ["--force-n", "50"], ["--force-n", "300"]])
    def test_keys_are_the_record_fields(self, force, capsys):
        main(["safety", *force])
        doc = json.loads(capsys.readouterr().out)
        assert {name: set(record) for name, record in doc.items()} == {
            "iso_contact": set(SafetyVerdict._fields),
            "clearance": set(ClearanceResult._fields),
            "stroke": set(StrokeResult._fields),
        }

    def test_non_finite_json_is_a_domain_error(self):
        with pytest.raises(FingerkitError):
            strict_json({"x": float("inf")})


class TestValidate:
    def test_agreement_within_tolerance(self, capsys):
        assert main(["validate", "--samples", "200"]) == 0
        out = capsys.readouterr().out
        deviation = float(out.splitlines()[-1].split("=")[1].split("rad")[0])
        assert deviation <= 1e-9

    def test_bad_geometry_is_domain_error(self, bad_config, capsys):
        assert main(["validate", "--config", str(bad_config),
                     "--samples", "50"]) == 1


class TestRegistryCommand:
    def test_shipped_registry_passes(self, capsys):
        assert main(["registry"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 4
        assert "4/4 rules passed" in out

    def test_faulted_registry_fails(self, tmp_path, capsys):
        text = registry_json(default_registry()).replace(
            '"value": 7.8', '"value": 12.5', 1)
        path = tmp_path / "reg.json"
        path.write_text(text, encoding="utf-8")
        assert main(["registry", "--registry-path", str(path)]) == 1
        assert "FAIL pinch-ordering" in capsys.readouterr().out

    def test_rules_cannot_be_dropped_by_the_file(self, tmp_path, capsys):
        doc = json.loads(registry_json(default_registry()))
        for entry in doc["entries"]:
            if entry["key"] == "gripper_weight_g":
                entry["value"] = 99
        path = tmp_path / "reg.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["registry", "--registry-path", str(path)]) == 1
        out = capsys.readouterr().out
        assert "FAIL gripper-weight: gripper_weight_g = 99 (expected 235)" in out
        assert out.endswith("\n3/4 rules passed\n")

    def test_failing_shipped_registry_is_a_verdict_exit(self, tmp_path,
                                                          monkeypatch, capsys):
        """With no ``--registry-path``, a shipped file that fails a rule
        gets the full report and exit 1, not an ``error:`` line."""
        doc = json.loads(registry_json(default_registry()))
        for entry in doc["entries"]:
            if entry["key"] == "gripper_weight_g":
                entry["value"] = 236
        path = tmp_path / "reference_registry.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        monkeypatch.setattr(cli, "default_registry_path", lambda: path)
        assert main(["registry"]) == 1
        captured = capsys.readouterr()
        assert captured.err == ""
        lines = captured.out.splitlines()
        assert [line.split()[0] for line in lines[:4]] == ["PASS", "PASS", "FAIL", "PASS"]
        assert lines[4:] == ["3/4 rules passed"]

    def test_rules_run_once_per_call(self, monkeypatch, capsys):
        calls = []
        verify = registry.registry_verify

        def spy(reg):
            calls.append(reg)
            return verify(reg)

        monkeypatch.setattr(registry, "registry_verify", spy)
        monkeypatch.setattr(cli, "registry_verify", spy)
        assert main(["registry"]) == 0
        assert len(calls) == 1

    @pytest.mark.parametrize("text", [
        pytest.param('{"entries": [], "rules": []}', id="rules-key"),
        pytest.param('[]', id="list-root"),
        pytest.param('{}', id="no-entries"),
        pytest.param('{"entries": {}}', id="entries-object"),
        pytest.param(b'\xff{"entries": []}', id="not-utf8"),
    ])
    def test_non_entries_document_is_two(self, text, tmp_path, capsys):
        path = tmp_path / "reg.json"
        if isinstance(text, bytes):
            path.write_bytes(text)
        else:
            path.write_text(text, encoding="utf-8")
        assert main(["registry", "--registry-path", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: registry ")

    @pytest.mark.parametrize("value", ["x", None, True, False, float("nan"),
                                       float("inf"), float("-inf"),
                                       pytest.param(10**400, id="400-digits")])
    def test_non_numeric_value_is_two(self, value, tmp_path, capsys):
        doc = json.loads(registry_json(default_registry()))
        doc["entries"][0]["value"] = value
        path = tmp_path / "reg.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["registry", "--registry-path", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: registry entry {doc['entries'][0]['key']}"
                                " value must be a number\n")

    @pytest.mark.parametrize("field, value", [
        ("key", float("nan")), ("unit", 5), ("source", None), ("quote", ["x"])])
    def test_non_string_text_is_two(self, field, value, tmp_path, capsys):
        doc = json.loads(registry_json(default_registry()))
        doc["entries"][0][field] = value
        path = tmp_path / "reg.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["registry", "--registry-path", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: registry entry key, unit, source and "
                                "quote must be strings\n")


class TestExitCodes:
    def test_domain_error_is_one(self, bad_config, tmp_path, capsys):
        assert main(["sweep", "--config", str(bad_config),
                     "--out", str(tmp_path / "x")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_closure_error_names_loop_and_theta1(self, bad_config, tmp_path,
                                                 capsys):
        errors = []
        for command in ("sweep", "workspace", "force"):
            assert main([command, "--config", str(bad_config),
                         "--out", str(tmp_path / command)]) == 1
            errors.append(capsys.readouterr().err)
        assert main(["validate", "--config", str(bad_config)]) == 1
        errors.append(capsys.readouterr().err)
        assert errors == ["error: loop 1 cannot close at theta1=0 rad\n"] * 4

    def test_out_of_memory_is_two(self, monkeypatch, tmp_path, capsys):
        def exhausted(*args, **kwargs):
            raise MemoryError()

        monkeypatch.setattr(_array_cli, "workspace", exhausted)
        assert main(["workspace", "--out", str(tmp_path / "ws"),
                     "--samples", "2", "--psi-samples", "100000000000"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")

    @pytest.mark.parametrize("argv", [
        ["sweep", "--samples", "4611686018427387904"],
        ["validate", "--samples", "100000000000000000000"],
        ["workspace", "--samples", "3", "--psi-samples", "99999999999999999999"],
    ])
    def test_oversized_count_is_out_of_memory(self, argv, tmp_path, capsys):
        # numpy refuses tables this large before allocating anything
        out = tmp_path / "out"
        if argv[0] != "validate":
            argv = argv + ["--out", str(out)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: out of memory; use fewer samples\n"
        assert not out.exists()

    @pytest.mark.parametrize("theta1", [
        ["--theta1-deg", "inf"], ["--theta1-deg=-inf"],
        ["--theta1-deg", "1e309"]])
    def test_non_finite_theta1_is_one_line(self, theta1, capsys):
        assert main(["grasp", "--diameter-mm", "80", *theta1]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert "outside admissible range" in lines[0]

    @pytest.mark.parametrize("scale", [2.06e152, 1.47e153, 1e-170])
    def test_non_finite_coefficients_are_two(self, scale, tmp_path, capsys):
        # kappa3 overflows to inf, to inf/inf, or divides by an underflow
        config = edited_config(
            tmp_path, lambda doc: doc.update(v=[scale * x for x in doc["v"]]))
        assert main(["analyze", "--config", str(config)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == COEFFICIENT_ERROR

    @pytest.mark.parametrize("command", ["analyze", "sweep"])
    def test_overflowing_coefficients_are_two(self, command, tmp_path, capsys):
        # kappa2 = v4 / v1 = 1.35e161 is finite, but the discriminant of the
        # half-angle quadratic would overflow
        def tiny_v1(doc):
            doc["v"][0] = 1e-160

        config = edited_config(tmp_path, tiny_v1)
        out = tmp_path / "out"
        argv = [command, "--config", str(config)]
        assert main(argv + (["--out", str(out)] if command == "sweep" else [])) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == COEFFICIENT_ERROR
        assert not out.exists()

    @pytest.mark.parametrize("obj", [
        ["--thickness-mm", "1.5"], ["--diameter-mm", "80"], ["--diameter-mm", "200"],
    ])
    def test_infinite_tip_force_is_one(self, obj, tmp_path, capsys):
        # such moment arms make the predicted tip force infinite, which no
        # verdict may report, not even one capped at the pinch maximum
        config = edited_config(
            tmp_path, _set(("tendon", "arms_mm"), [1e308] * 3))
        assert main(["grasp", "--config", str(config), *obj]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: tip force inf N outside [0, inf) N\n"

    def test_single_tendon_on_double_config_is_two(self, tmp_path, capsys):
        config = edited_config(tmp_path, lambda doc: doc["tendon"].update(
            kind="double", spring_nmm_per_rad=0.0, preload_nmm=0.0))
        assert main(["grasp", "--config", str(config), "--diameter-mm", "100",
                     "--tendon", "single"]) == 2
        assert "single-tendon variant needs spring" in capsys.readouterr().err

    def test_safety_and_registry_read_no_config(self, monkeypatch, capsys):
        def unreadable(path):
            raise ConfigError(f"cannot read config {path}")

        monkeypatch.setattr(cli, "load_config", unreadable)
        assert main(["safety"]) == 0
        assert main(["registry"]) == 0
        assert main(["analyze"]) == 2

    def test_missing_config_is_two(self, tmp_path, capsys):
        assert main(["analyze", "--config", str(tmp_path / "absent.json")]) == 2

    def test_unknown_key_is_two(self, tmp_path, capsys):
        path = tmp_path / "weird.json"
        doc = json.loads(default_config_path().read_text())
        doc["frobnicator"] = 7
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["analyze", "--config", str(path)]) == 2

    def test_malformed_json_is_two(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{oops", encoding="utf-8")
        assert main(["analyze", "--config", str(path)]) == 2

    @pytest.mark.parametrize("command, flag, document", [
        ("analyze", "--config", "config"),
        ("registry", "--registry-path", "registry"),
    ])
    def test_deeply_nested_json_is_two(self, command, flag, document,
                                       tmp_path, capsys):
        """Nesting beyond the parser's recursion limit is one error line,
        not a RecursionError traceback."""
        path = tmp_path / "nested.json"
        path.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
        assert main([command, flag, str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {document} is nested too deeply to parse\n"

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    def test_failed_write_names_its_file(self, tmp_path, capsys):
        """A write that fails (here, on a full device) is one error line
        naming the file, exit 2: the error of a write or a close carries no
        file name of its own."""
        out = tmp_path / "o"
        out.mkdir()
        target = out / "tip_trace.csv"
        target.symlink_to("/dev/full")
        assert main(["sweep", "--samples", "10", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: [Errno {errno.ENOSPC}] "
                                f"{os.strerror(errno.ENOSPC)}: {str(target)!r}\n")

    def test_non_utf8_config_is_two(self, tmp_path, capsys):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"v": [1\xff]}')
        assert main(["analyze", "--config", str(path)]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: config is not valid JSON: ")

    def test_usage_error_is_two(self, tmp_path, capsys):
        out = tmp_path / "x"
        assert main(["sweep", "--format", "pdf", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert not out.exists()

    def test_success_is_zero(self, capsys):
        assert main(["analyze"]) == 0


class TestArgumentChecks:
    """Non-finite or out-of-domain arguments: exit 2, one error line."""

    @pytest.mark.parametrize("argv", [
        ["sweep", "--psi-deg", "nan"],
        ["sweep", "--psi-deg", "inf"],
        ["sweep", "--psi-deg=-inf"],
        ["grasp", "--diameter-mm", "-5"],
        ["grasp", "--diameter-mm", "nan"],
        ["grasp", "--thickness-mm", "0"],
        ["grasp", "--thickness-mm", "inf"],
        ["safety", "--force-n", "nan"],
        ["safety", "--force-n", "-1"],
        ["safety", "--force-n", "-1e308"],
        ["sweep", "--samples", "abc"],
        ["grasp"],
        ["frobnicate"],
    ])
    def test_rejected_with_one_error_line(self, argv, tmp_path, capsys):
        out = tmp_path / "out"
        if argv[0] == "sweep":
            argv = argv + ["--out", str(out)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert not out.exists()

    def test_zero_force_is_still_valid(self, capsys):
        assert main(["safety", "--force-n", "0"]) == 0


class TestParserDefaults:
    """argparse is the one place the defaults live: leaving a flag out
    equals passing its documented default."""

    @staticmethod
    def emitted(argv, out):
        assert main(argv + ["--out", str(out)]) == 0
        return {path.name: path.read_bytes() for path in out.iterdir()}

    def test_sweep_psi_deg_is_zero(self, tmp_path):
        argv = ["sweep", "--samples", "7", "--format", "json"]
        assert (self.emitted(argv, tmp_path / "a")
                == self.emitted(argv + ["--psi-deg", "0"], tmp_path / "b"))

    def test_workspace_psi_samples_is_25(self, tmp_path):
        files = self.emitted(["workspace", "--samples", "3"], tmp_path)
        assert len(files["workspace.csv"].splitlines()) == 2 + 3 * 25

    def test_force_tension_is_config_maximum(self, tmp_path):
        argv = ["force", "--samples", "7", "--format", "json"]
        assert (self.emitted(argv, tmp_path / "a")
                == self.emitted(argv + ["--tension-n", "38"], tmp_path / "b"))

    def test_grasp_theta1_is_range_start(self, capsys):
        assert main(["grasp", "--diameter-mm", "100"]) == 0
        default = capsys.readouterr().out
        assert main(["grasp", "--diameter-mm", "100", "--theta1-deg", "30"]) == 0
        assert capsys.readouterr().out == default


ROOT = Path(__file__).resolve().parents[1]
FORMATS = ("csv", "json", "svg")
TIP_HEADER = "theta1_deg,psi_deg,tip_x_mm,tip_y_mm,grip_x_mm,grip_y_mm"
HEADERS = {
    "joint_angles": ("theta1_deg,theta2_deg,theta3_deg,theta5_deg,theta6_deg,"
                     "theta7_deg,mcp_deg,pip_deg,dip_deg"),
    "tip_trace": TIP_HEADER,
    "workspace": TIP_HEADER,
    "force_profile": ("theta1_deg,excursion_mm,dexcursion_mm_per_rad,"
                      "tip_speed_mm_per_rad,force_n"),
}
EMITTED = {
    "sweep": (["joint_angles", "tip_trace"], []),
    "workspace": (["workspace"], ["workspace_metrics.json"]),
    "force": (["force_profile"], []),
}
EMIT_ARGV = {
    "sweep": ["sweep", "--samples", "9"],
    "workspace": ["workspace", "--samples", "4", "--psi-samples", "5"],
    "force": ["force", "--samples", "9"],
}


def _with_nan(fn):
    """``fn`` with a NaN written into the float rows it returns."""
    def poisoned(*args, **kwargs):
        result = fn(*args, **kwargs)
        rows = getattr(result, "points", result)
        rows.view("f8").reshape(len(rows), -1)[1, -1] = math.nan
        return result
    return poisoned


class TestEmit:
    """The emitting commands share one write rule, in every format."""

    @pytest.mark.parametrize("fmt", FORMATS)
    @pytest.mark.parametrize("command", EMITTED)
    def test_file_set(self, command, fmt, tmp_path):
        out = tmp_path / "out"
        assert main(EMIT_ARGV[command] + ["--out", str(out), "--format", fmt]) == 0
        stems, docs = EMITTED[command]
        table_ext = "json" if fmt == "json" else "csv"
        expected = [f"{stem}.{table_ext}" for stem in stems] + docs
        if fmt == "svg":
            expected += [f"{stem}.svg" for stem in stems]
        assert sorted(path.name for path in out.iterdir()) == sorted(expected)
        for stem in stems:
            if fmt == "json":
                doc = json.loads((out / f"{stem}.json").read_text())
                assert ",".join(doc["columns"]) == HEADERS[stem]
            else:
                lines = (out / f"{stem}.csv").read_text().splitlines()
                assert re.fullmatch("# config_sha256=[0-9a-f]{64}", lines[0])
                assert lines[1] == HEADERS[stem]
            if fmt == "svg":
                ElementTree.parse(out / f"{stem}.svg")
        for name in docs:
            json.loads((out / name).read_text())

    @pytest.mark.parametrize("fmt", FORMATS)
    @pytest.mark.parametrize("command", EMITTED)
    def test_plots_render_for_svg_only(self, command, fmt, tmp_path,
                                       monkeypatch):
        calls = []
        real = _array_cli.render_svg
        monkeypatch.setattr(_array_cli, "render_svg",
                            lambda *a, **k: calls.append(1) or real(*a, **k))
        argv = EMIT_ARGV[command] + ["--out", str(tmp_path), "--format", fmt]
        assert main(argv) == 0
        plots = {"sweep": 2, "workspace": 1, "force": 1}[command]
        assert len(calls) == (plots if fmt == "svg" else 0)

    def test_workspace_builds_only_plotted_series(self, tmp_path,
                                                  monkeypatch):
        built = []
        real = _array_cli.Series
        monkeypatch.setattr(_array_cli, "Series",
                            lambda *a: built.append(a) or real(*a))
        assert main(["workspace", "--samples", "3", "--psi-samples", "1000",
                     "--out", str(tmp_path), "--format", "svg"]) == 0
        assert 0 < len(built) <= 6

    @pytest.mark.parametrize("psi_samples, labels", [
        (2, [-45, 45]),
        (6, [-45, -27, -9, 9, 27, 45]),
        (7, [-45, -30, -15, 15, 30, 45]),
        (12, [-45, -29, -12, 12, 29, 45]),
        (25, [-45, -26, -8, 7, 26, 45]),
    ])
    def test_workspace_legend(self, psi_samples, labels, tmp_path,
                              monkeypatch):
        """At most 6 orientations, evenly spread, round(i * (n - 1) / 5)."""
        legends = []
        real = _array_cli.render_svg
        monkeypatch.setattr(
            _array_cli, "render_svg",
            lambda series, **k: legends.append([s.name for s in series])
            or real(series, **k))
        assert main(["workspace", "--samples", "3", "--psi-samples",
                     str(psi_samples), "--out", str(tmp_path),
                     "--format", "svg"]) == 0
        assert legends == [[f"psi {deg} deg" for deg in labels]]

    @pytest.mark.parametrize("command, stem", [
        ("workspace", "workspace"), ("force", "force_profile")])
    def test_nan_table_is_one_error_in_every_format(self, command, stem,
                                                    tmp_path, monkeypatch,
                                                    capsys):
        """The solver function and the table it fills share one name."""
        monkeypatch.setattr(_array_cli, stem, _with_nan(getattr(_array_cli, stem)))
        for fmt in FORMATS:
            out = tmp_path / fmt
            argv = EMIT_ARGV[command] + ["--out", str(out), "--format", fmt]
            assert main(argv) == 1
            assert capsys.readouterr().err == (
                f"error: {stem} has non-finite values; nothing written\n")
            assert not out.exists()


def _readme_cli_lines():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [line.split("#", 1)[0].split()
            for line in block.splitlines() if line.startswith("fingerkit ")]


@pytest.mark.parametrize("argv", _readme_cli_lines(), ids=" ".join)
def test_readme_cli_example(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(argv[1:]) == 0


# the edge values every numeric flag is fuzzed with, among ordinary ones
EDGE_NUMBERS = (math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0, 1e308, -1e308,
                5e-324, 2.2250738585072014e-308, 1e-310)
NUMBERS = st.sampled_from(EDGE_NUMBERS) | st.floats(-1e3, 1e3)
COUNTS = st.integers(-2, 50)
NON_FINITE_TOKEN = re.compile(r"(?<![A-Za-z_])[-+]?(nan|inf)(?![A-Za-z_])",
                              re.IGNORECASE)


@st.composite
def fuzzed_argv(draw):
    """One invocation of any subcommand, numeric flags drawn from NUMBERS
    (as ``--flag=value``, so that argparse reads ``-inf`` as a value) and
    counts from COUNTS."""
    command = draw(st.sampled_from(["analyze", "sweep", "workspace", "force",
                                    "grasp", "safety", "validate", "registry"]))
    argv = [command]

    def flag(name, values=NUMBERS, optional=True):
        if not optional or draw(st.booleans()):
            argv.append(f"{name}={draw(values)!r}")

    if command in ("sweep", "workspace", "force", "validate"):
        flag("--samples", COUNTS, optional=False)
    if command in ("sweep", "workspace", "force"):
        argv.append(f"--format={draw(st.sampled_from(['csv', 'json', 'svg']))}")
    if command == "sweep":
        flag("--psi-deg")
    if command == "workspace":
        flag("--psi-samples", COUNTS, optional=False)
    if command in ("force", "grasp"):
        flag("--tension-n")
        if draw(st.booleans()):
            argv.append(f"--tendon={draw(st.sampled_from(['single', 'double']))}")
    if command == "grasp":
        flag(draw(st.sampled_from(["--diameter-mm", "--thickness-mm"])),
             optional=False)
        flag("--theta1-deg")
    if command == "safety":
        flag("--force-n")
    return argv


def _refuse(constant):
    raise ValueError(f"{constant} is not RFC 8259 JSON")


def assert_two_outcomes(argv, out):
    """Run ``argv`` and check its outcome, with no warning either way.

    It exits 0 with finite, strictly parsed output, or with a failed
    verdict (exit 1, the report on stdout, no ``error:`` line).  Or it
    exits 1 or 2 with one ``error:`` line, no stdout and no ``out``; the
    ``error:`` line is returned, else None.
    """
    stdout, stderr = io.StringIO(), io.StringIO()
    with (contextlib.redirect_stdout(stdout),
          contextlib.redirect_stderr(stderr),
          warnings.catch_warnings(record=True) as caught):
        warnings.simplefilter("always")
        code = main(argv)
    assert [str(w.message) for w in caught] == []
    lines = stderr.getvalue().splitlines()
    if code == 2 or lines[:1] and lines[0].startswith("error: "):
        assert code in (1, 2)
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert stdout.getvalue() == ""
        assert not out.exists()
        return lines[0]
    assert code == 0 or (code == 1 and stdout.getvalue())
    assert lines == []
    texts = {"stdout": stdout.getvalue()}
    if out.exists():
        texts.update((p.name, p.read_text(encoding="utf-8"))
                     for p in out.iterdir())
    for name, text in texts.items():
        if name.endswith(".json") or text.startswith("{"):
            json.loads(text, parse_constant=_refuse)
        if name.endswith(".svg"):
            ElementTree.fromstring(text.encode("utf-8"))
        assert not NON_FINITE_TOKEN.search(text), (name, text[:200])


class TestFuzzedFlags:
    """Every invocation has one of the outcomes of ``assert_two_outcomes``."""

    @settings(max_examples=150, deadline=None)
    @given(fuzzed_argv())
    def test_two_outcomes(self, argv):
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "out"
            if argv[0] in ("sweep", "workspace", "force"):
                argv = argv + ["--out", str(out)]
            assert_two_outcomes(argv, out)


def _set(path, value):
    """A config edit that sets the item at ``path`` to ``value``."""
    def edit(doc):
        *parents, last = path
        for key in parents:
            doc = doc[key]
        doc[last] = value
    return edit


def _both(*edits):
    """A config edit that applies each of ``edits`` in turn."""
    def edit(doc):
        for one in edits:
            one(doc)
    return edit


def _scale_v(factor):
    """A config edit that multiplies every link length by ``factor``."""
    def edit(doc):
        doc["v"] = [factor * length for length in doc["v"]]
    return edit


_PHALANX = _set(("phalanx_mm",), [1e308] * 3)
_THUMB_X = _set(("thumb_line_mm", 0, 0), 1e308)
_THUMB_MINUS_X = _set(("thumb_line_mm", 0, 0), -1e308)

# workspace's error line for an edit: a non-finite tip fails its table;
# with every tip finite, a thumb-line end so far out that the squared
# segment length overflows makes max_opening_mm NaN
WORKSPACE_ERRORS = {
    _PHALANX: "error: workspace has non-finite values; nothing written",
    **{edit: f"error: max_opening_mm is nan: the distance to the thumb line "
             f"(({x}, -85.0), (80.0, -85.0)) overflows"
       for edit, x in ((_THUMB_X, 1e308), (_THUMB_MINUS_X, -1e308))},
}


class TestExtremeConfigNumbers:
    """A finite config number so large, or so small, that the arithmetic
    overflows or underflows has the same outcomes as a fuzzed flag, with the
    table files checked before the first one is written."""

    @pytest.mark.parametrize("command", [
        "sweep", "workspace", "force", "grasp",
        *(pytest.param(f"{command} --format svg", id=f"{command}-svg")
          for command in ("sweep", "workspace", "force")),
    ])
    @pytest.mark.parametrize("edit", [
        pytest.param(_PHALANX, id="phalanx"),
        pytest.param(_THUMB_X, id="thumb-x"),
        pytest.param(_THUMB_MINUS_X, id="thumb-minus-x"),
        pytest.param(_set(("base_offset_mm", 0), 1e308), id="base-x"),
        pytest.param(_set(("tendon", "arms_mm"), [1e308] * 3), id="arms"),
        pytest.param(_set(("tendon", "max_tension_n"), 1e308), id="max-tension"),
        # plot axes: a step below one ulp of the axis values, a subnormal
        # span, and a span that overflows
        pytest.param(_set(("base_offset_mm", 0), 1e18), id="base-x-1e18"),
        pytest.param(_set(("phalanx_mm",), [5e-324] * 3), id="phalanx-subnormal"),
        pytest.param(_both(_set(("base_offset_mm", 0), 1e308),
                           _set(("psi_range_deg",), [-90.0, 90.0])),
                     id="base-x-psi-90"),
    ])
    def test_two_outcomes(self, edit, command, tmp_path, deadline):
        config = edited_config(tmp_path, edit)
        out = tmp_path / "out"
        name, *options = command.split()
        argv = [name, "--config", str(config), *options]
        argv += ["--diameter-mm", "80"] if name == "grasp" else ["--out", str(out)]
        # each run takes well under 0.1 s; a short deadline also bounds
        # what a hang in a loop that appends can allocate before it fails
        with deadline(3):
            error = assert_two_outcomes(argv, out)
        if name == "workspace" and edit in WORKSPACE_ERRORS:
            assert error == WORKSPACE_ERRORS[edit]

    @pytest.mark.parametrize("edit", [
        *(pytest.param(_set(("v", i), value), id=f"v{i}-{value:g}")
          for value in (1e160, 1e-160, 5e-324) for i in range(8)),
        pytest.param(_scale_v(1e160), id="v-times-1e160"),
        pytest.param(_scale_v(1e-160), id="v-times-1e-160"),
        pytest.param(_scale_v(5e-324), id="v-times-5e-324"),
        pytest.param(_set(("v", 0), 1e-150), id="v0-1e-150"),
    ])
    def test_validate_two_outcomes(self, edit, tmp_path):
        """Most of these lengths fail the geometry check or leave a loop
        that cannot close; a 1e-150 first length reaches the oracle with
        coefficients near 1e151, close to the geometry check's 1e153 limit."""
        config = edited_config(tmp_path, edit)
        assert_two_outcomes(
            ["validate", "--config", str(config), "--samples", "64"],
            tmp_path / "out")


def _paths(doc, path=()):
    """Every item path of a JSON document, the root ``()`` first."""
    yield path
    items = doc.items() if isinstance(doc, dict) else (
        enumerate(doc) if isinstance(doc, list) else ())
    for key, value in items:
        yield from _paths(value, (*path, key))


# JSON values a mutation may put anywhere in a config: numbers from the
# flag fuzz (NaN and infinities included, which json writes as NaN and
# Infinity), integers beyond the float range, and values of the wrong type
JSON_VALUES = st.recursive(
    NUMBERS | st.sampled_from([10**400, -10**400, 0, True, None, "", "1"]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["kind", "x", "v"]), inner, max_size=2),
    max_leaves=4,
)


@st.composite
def mutated_document(draw, text):
    """The JSON document ``text`` after one or two edits, each of which
    scales a number (the edit most likely to leave a document that still
    runs), sets an item to a number or to any JSON value, nests an item in
    lists or objects, up to far beyond the parser's recursion limit, or
    deletes an item; then, at times, cut short."""
    doc = json.loads(text)
    nests = {}
    for _ in range(draw(st.integers(1, 2))):
        items = list(_paths(doc))[1:]
        if not items:  # the first edit deleted the one top-level key
            break
        *parents, last = draw(st.sampled_from(items))
        holder = doc
        for key in parents:
            holder = holder[key]
        action = draw(st.sampled_from(["scale", "scale", "number", "value",
                                       "nest", "delete"]))
        if action == "delete":
            del holder[last]
        elif action == "nest":
            # json.dumps cannot write the deep ones: a marker string stands in
            depth = draw(st.sampled_from([1, 20, 100_000]))
            start, end = draw(st.sampled_from([("[", "]"), ('{"x": ', "}")]))
            marker = f"nest-{len(nests)}"
            nests[marker] = start * depth + json.dumps(holder[last]) + end * depth
            holder[last] = marker
        elif action == "scale" and isinstance(holder[last], float):
            holder[last] *= draw(st.sampled_from(
                [0.5, 0.9, 1.1, 2.0, -1.0, 0.0, 1e-300, 1e300]))
        else:
            holder[last] = draw(NUMBERS if action == "number" else JSON_VALUES)
    text = json.dumps(doc)
    # a later nest may hold an earlier one's marker
    for marker in reversed(nests):
        text = text.replace(json.dumps(marker), nests[marker])
    if draw(st.booleans()):
        text = text[:draw(st.integers(0, len(text) - 1))]
    return text


# a few seconds of each document fuzz under the default profile
DOCUMENT_EXAMPLES = max(60, settings().max_examples // 4)


class TestFuzzedConfig:
    """A mutated config file has the outcomes of ``assert_two_outcomes``
    for every command that reads a config, each with few samples."""

    @settings(max_examples=DOCUMENT_EXAMPLES, deadline=None)
    @given(mutated_document(default_config_path().read_text()))
    def test_two_outcomes(self, text):
        with tempfile.TemporaryDirectory() as tmp:
            config = Path(tmp) / "config.json"
            config.write_text(text, encoding="utf-8")
            for argv in (["analyze"], ["grasp", "--diameter-mm", "80"],
                         ["sweep", "--samples", "20"],
                         ["workspace", "--samples", "8", "--psi-samples", "3"],
                         ["force", "--samples", "20"],
                         ["validate", "--samples", "16"]):
                out = Path(tmp) / argv[0]
                if argv[0] in ("sweep", "workspace", "force"):
                    argv = argv + ["--out", str(out)]
                assert_two_outcomes([*argv, "--config", str(config)], out)


class TestFuzzedRegistry:
    """A mutated registry file has the outcomes of ``assert_two_outcomes``."""

    @settings(max_examples=DOCUMENT_EXAMPLES, deadline=None)
    @given(mutated_document(registry_json(default_registry())))
    def test_two_outcomes(self, text):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "registry.json"
            path.write_text(text, encoding="utf-8")
            assert_two_outcomes(["registry", "--registry-path", str(path)],
                                Path(tmp) / "out")
