import json

import numpy as np
import pytest
from click.testing import CliRunner

from trkalian.cli import main


@pytest.fixture
def runner():
    return CliRunner()


class TestFieldEval:
    def test_lundquist_row_count(self, runner, tmp_path):
        out = tmp_path / "out"
        result = runner.invoke(main, [
            "field-eval", "--field", "lundquist",
            "--params", '{"f0": 1.0, "nu": 1.0}',
            "--grid", "-1:1:21,-1:1:21,-1:1:21",
            "--out", str(out),
        ])
        assert result.exit_code == 0, result.output
        rows = (out / "field.csv").read_text().strip().splitlines()
        assert len(rows) == 21**3 + 1  # header + 9261 rows
        meta = json.loads((out / "field_meta.json").read_text())
        assert meta["rows"] == 9261
        assert meta["eigenvalue"] == 1.0

    def test_mode_field_origin_row(self, runner, tmp_path):
        out = tmp_path / "out"
        amp = (2 * np.pi) ** 1.5
        params = {"modes": [{"lam": 1, "nu": 1.0, "kappa0": [0.0, 0.0, 1.0],
                             "amplitude_re": amp, "amplitude_im": 0.0}]}
        result = runner.invoke(main, [
            "field-eval", "--field", "modes",
            "--params", json.dumps(params),
            "--grid", "0:0:1,0:0:1,0:0:1",
            "--out", str(out),
        ])
        assert result.exit_code == 0, result.output
        row = (out / "field.csv").read_text().strip().splitlines()[1].split(",")
        vals = [float(c) for c in row]
        expected = np.array([1.0, 1.0j, 0.0]) / np.sqrt(2)
        assert abs(vals[3] - expected[0].real) < 1e-14
        assert abs(vals[6] - expected[1].imag) < 1e-14

    def test_malformed_json_exits_2(self, runner, tmp_path):
        result = runner.invoke(main, [
            "field-eval", "--field", "lundquist",
            "--params", "{not json",
            "--out", str(tmp_path / "out"),
        ])
        assert result.exit_code == 2

    def test_unknown_field_nonzero_exit(self, runner, tmp_path):
        result = runner.invoke(main, [
            "field-eval", "--field", "nonexistent",
            "--out", str(tmp_path / "out"),
        ])
        assert result.exit_code != 0
        assert "unknown field" in result.output

    def test_determinism(self, runner, tmp_path):
        outputs = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            result = runner.invoke(main, [
                "field-eval", "--field", "abc",
                "--params", '{"a": 1.0, "b": 0.5, "c": 0.25}',
                "--grid", "-1:1:5,-1:1:5,-1:1:5",
                "--out", str(out),
            ])
            assert result.exit_code == 0
            outputs.append((out / "field.csv").read_bytes())
        assert outputs[0] == outputs[1]


class TestRadonCommand:
    def test_gaussian_grid_profile(self, runner, tmp_path):
        out = tmp_path / "out"
        result = runner.invoke(main, [
            "radon", "--field", "gaussian",
            "--params", '{"width": 1.0, "polarization": [1.0, 0.0, 0.0]}',
            "--quad", "4,8", "--pgrid", "-8:8:16",
            "--out", str(out),
        ])
        assert result.exit_code == 0, result.output
        assert (out / "profile_grid.csv").exists()
        meta = json.loads((out / "radon_meta.json").read_text())
        assert meta["mode"] == "grid"
        assert meta["parity_check"] == "pass"

    def test_lundquist_atom_json(self, runner, tmp_path):
        out = tmp_path / "out"
        result = runner.invoke(main, [
            "radon", "--field", "lundquist",
            "--params", '{"f0": 1.0, "nu": 1.0, "n_ring": 8}',
            "--out", str(out),
        ])
        assert result.exit_code == 0, result.output
        payload = json.loads((out / "profile_atoms.json").read_text())
        assert len(payload["atoms"]) == 16  # two tones per ring node
        meta = json.loads((out / "radon_meta.json").read_text())
        assert meta["support"] == "equatorial-ring"

    def test_grid_outputs_are_deterministic(self, runner, tmp_path):
        blobs = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            result = runner.invoke(main, [
                "radon", "--field", "gaussian",
                "--quad", "4,8", "--pgrid", "-8:8:16",
                "--out", str(out),
            ])
            assert result.exit_code == 0, result.output
            blobs.append(((out / "profile_grid.csv").read_bytes(),
                          (out / "radon_meta.json").read_bytes()))
        assert blobs[0] == blobs[1]

    def test_single_mode_two_atoms(self, runner, tmp_path):
        out = tmp_path / "out"
        params = {"modes": [{"lam": 1, "nu": 1.0, "kappa0": [0.0, 0.0, 1.0],
                             "amplitude_re": 1.0}]}
        result = runner.invoke(main, [
            "radon", "--field", "modes",
            "--params", json.dumps(params),
            "--out", str(out),
        ])
        assert result.exit_code == 0, result.output
        payload = json.loads((out / "profile_atoms.json").read_text())
        assert len(payload["atoms"]) == 2


class TestVerifyCommand:
    def test_filtered_run_passes(self, runner, tmp_path):
        report_path = tmp_path / "report.json"
        result = runner.invoke(main, [
            "verify", "--only", "frame", "--out", str(report_path),
        ])
        assert result.exit_code == 0, result.output
        report = json.loads(report_path.read_text())
        assert report["all_passed"]
        assert report["n_total"] >= 4

    def test_tolerance_override_forces_failure(self, runner, tmp_path):
        result = runner.invoke(main, [
            "verify", "--only", "frame_orthonormality",
            "--tol", "frame_orthonormality=1e-20",
        ])
        assert result.exit_code == 1
        assert "FAIL" in result.output
        assert "residual=" in result.output

    def test_report_is_deterministic(self, runner, tmp_path):
        blobs = []
        for name in ("r1.json", "r2.json"):
            path = tmp_path / name
            result = runner.invoke(main, [
                "verify", "--only", "ampere", "--out", str(path),
            ])
            assert result.exit_code == 0
            blobs.append(path.read_bytes())
        assert blobs[0] == blobs[1]


@pytest.mark.parametrize("args", [
    ["verify", "--only", "zzz"],
    ["verify", "--only", "frame", "--tol", "no_such_record=1"],
    ["radon", "--field", "modes", "--params", "{}", "--out", "out"],
], ids=["verify-empty-selection", "verify-unknown-tolerance", "radon-modes-without-modes"])
def test_bad_input_is_usage_error(runner, tmp_path, args):
    with runner.isolated_filesystem(temp_dir=tmp_path):
        result = runner.invoke(main, args)
    assert result.exit_code == 2, result.output
    assert "Usage:" in result.output


class TestPlotCommand:
    def test_lundquist_radial(self, runner, tmp_path):
        data = tmp_path / "field.csv"
        data.write_text("x,y,z\n0,0,0\n")
        out = tmp_path / "plots"
        result = runner.invoke(main, [
            "plot", "--kind", "lundquist_radial",
            "--data", str(data), "--out", str(out),
        ])
        assert result.exit_code == 0
        script = (out / "lundquist_radial.gp").read_text()
        assert "J0" in script and "J1" in script

    def test_radon_heatmap(self, runner, tmp_path):
        data = tmp_path / "profile_grid.csv"
        data.write_text("p,kx,ky,kz\n0,0,0,1\n")
        out = tmp_path / "plots"
        result = runner.invoke(main, [
            "plot", "--kind", "radon_heatmap",
            "--data", str(data), "--out", str(out),
        ])
        assert result.exit_code == 0
        assert (out / "radon_heatmap.gp").exists()

    def test_verify_residual_chart(self, runner, tmp_path):
        data = tmp_path / "report.json"
        data.write_text(json.dumps({"records": [
            {"name": "x", "residual": 1e-10, "tolerance": 1e-6}]}))
        out = tmp_path / "plots"
        result = runner.invoke(main, [
            "plot", "--kind", "verify_residuals",
            "--data", str(data), "--out", str(out),
        ])
        assert result.exit_code == 0
        assert (out / "verify_residuals.csv").exists()

    def test_missing_input_exits_2(self, runner, tmp_path):
        result = runner.invoke(main, [
            "plot", "--kind", "lundquist_radial",
            "--data", str(tmp_path / "absent.csv"), "--out", str(tmp_path / "p"),
        ])
        assert result.exit_code == 2
