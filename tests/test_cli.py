"""CLI surface: commands, emitted files, exit-code contract, determinism."""

import json

import pytest

from fingerkit import cli
from fingerkit.cli import _dumps, main
from fingerkit.config import default_config_path
from fingerkit.errors import FingerkitError

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

    def test_requires_exactly_one_object(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(["grasp"])
        assert exc_info.value.code == 2


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

        assert main(["safety", "--force-n", "0"]) == 0
        doc = json.loads(capsys.readouterr().out, parse_constant=refuse)
        assert doc["iso_contact"]["margin_ratio"] is None

    def test_non_finite_json_is_a_domain_error(self):
        with pytest.raises(FingerkitError):
            _dumps({"x": float("inf")})


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
        from fingerkit.registry import default_registry
        text = default_registry().to_json().replace(
            '"value": 7.8', '"value": 12.5', 1)
        path = tmp_path / "reg.json"
        path.write_text(text, encoding="utf-8")
        assert main(["registry", "--registry-path", str(path)]) == 1
        assert "FAIL pinch-ordering" in capsys.readouterr().out

    @pytest.mark.parametrize("value", ["x", None, True, False])
    def test_non_numeric_value_is_two(self, value, tmp_path, capsys):
        from fingerkit.registry import default_registry
        doc = json.loads(default_registry().to_json())
        doc["entries"][0]["value"] = value
        path = tmp_path / "reg.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["registry", "--registry-path", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: registry entry {doc['entries'][0]['key']}"
                                " value must be a number\n")


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

        monkeypatch.setattr(cli, "workspace", exhausted)
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

    def test_usage_error_is_two(self):
        with pytest.raises(SystemExit) as exc_info:
            main(["sweep", "--format", "pdf", "--out", "x"])
        assert exc_info.value.code == 2

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
