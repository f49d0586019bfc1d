import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from test_properties import format_csv_reference

import trkalian
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

    def test_field_csv_equals_per_row_writer(self, runner, tmp_path):
        """field.csv is the per-value %.17g text of the grid points and the
        field values, on a grid where the axisymmetric field repeats values."""
        out = tmp_path / "out"
        result = runner.invoke(main, [
            "field-eval", "--field", "lundquist",
            "--grid", "-1:1:7,-1:1:7,-1:1:7", "--out", str(out),
        ])
        assert result.exit_code == 0, result.output
        axis = np.linspace(-1.0, 1.0, 7)
        pts = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1).reshape(-1, 3)
        expected = format_csv_reference("x,y,z,re_fx,im_fx,re_fy,im_fy,re_fz,im_fz",
                                        pts, trkalian.fields.lundquist(1.0, 1.0)(pts))
        assert (out / "field.csv").read_bytes() == expected.encode()

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

    def test_dc_content_is_the_riesz_threshold(self, runner, tmp_path):
        out = tmp_path / "out"
        result = runner.invoke(main, [
            "radon", "--field", "gaussian", "--params", '{"center": [0.3, -0.2, 0.1]}',
            "--quad", "4,8", "--pgrid", "-8:8:16", "--out", str(out),
        ])
        assert result.exit_code == 0, result.output
        dc = json.loads((out / "radon_meta.json").read_text())["dc_content_rel"]
        grid = trkalian.grid_from_csv((out / "profile_grid.csv").read_text(),
                                      trkalian.sphere_quadrature(4, 8, antipodal=True))
        # the zero-frequency atom of a direction is its mean over the period
        mean = np.max(np.abs(grid.samples.mean(axis=0))) / np.max(np.abs(grid.samples))
        assert dc == pytest.approx(mean, rel=1e-12) and dc > 0.01
        trkalian.radon_riesz(grid, dc_tol=1.001 * dc)
        with pytest.raises(ValueError, match="DC content"):
            trkalian.radon_riesz(grid, dc_tol=0.999 * dc)

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

    def test_grid_csv_does_not_depend_on_blas_threads(self, tmp_path):
        # the plane sums are BLAS contractions; one thread and the default
        # thread count must write the same bytes
        env = {k: v for k, v in os.environ.items()
               if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
        env["PYTHONPATH"] = str(Path(trkalian.__file__).parents[1])
        blobs = []
        for sub, threads in (("one", {"OPENBLAS_NUM_THREADS": "1"}), ("default", {})):
            out = tmp_path / sub
            subprocess.run([sys.executable, "-c", "from trkalian.cli import main; main()",
                            "radon", "--field", "gaussian", "--quad", "4,8",
                            "--pgrid", "-8:8:16", "--out", str(out)],
                           env={**env, **threads}, check=True, capture_output=True, timeout=120)
            blobs.append((out / "profile_grid.csv").read_bytes())
        assert blobs[0] == blobs[1]

    def test_truncated_plane_sets_warning_flag(self, runner, tmp_path):
        out = tmp_path / "out"
        result = runner.invoke(main, [
            "radon", "--field", "gaussian", "--params", '{"center": [7, 0, 0]}',
            "--quad", "4,8", "--pgrid", "-8:8:16", "--out", str(out),
        ])
        assert result.exit_code == 0, result.output
        meta = json.loads((out / "radon_meta.json").read_text())
        assert meta["truncation_warning"] is True
        assert 0 < meta["truncated_planes"] <= 16 * 32
        assert 1e-10 < meta["truncation_worst_ratio"] < 1.0

    @pytest.mark.parametrize("params, verdict", [
        ({"center": [0.3, -0.2, 0.1]}, "pass"),
        ({"center": [7, 0, 0]}, "fail"),
        ({"center": [7, 0, 0], "polarization": [1e-9, 0, 0]}, "fail"),
    ], ids=["interior", "edge", "edge-tiny-amplitude"])
    def test_parity_scan_is_relative(self, runner, tmp_path, params, verdict):
        out = tmp_path / "out"
        result = runner.invoke(main, [
            "radon", "--field", "gaussian", "--params", json.dumps(params),
            "--quad", "4,8", "--pgrid", "-8:8:16", "--out", str(out),
        ])
        assert result.exit_code == 0, result.output
        meta = json.loads((out / "radon_meta.json").read_text())
        assert meta["parity_check"] == verdict
        if verdict == "pass":
            assert meta["parity_defect_rel"] < 1e-8 and meta["p_end_ratio"] < 1e-8
            assert meta["truncated_planes"] == 0 and meta["truncation_worst_ratio"] is None
        else:
            # the defect is the wrap of the periodic p-range: F(-8) stands in
            # for F(+8), where the Gaussian centred at 7 has its mass
            assert meta["parity_defect_rel"] > 0.1 and meta["p_end_ratio"] > 0.1

    def test_parity_scan_on_shifted_p_grid(self, runner, tmp_path):
        # row i holds p_i = -6 + i/4, and row (48 - i) mod 64 holds -p_i
        out = tmp_path / "out"
        result = runner.invoke(main, [
            "radon", "--field", "gaussian", "--quad", "4,8", "--pgrid", "-6:10:64",
            "--out", str(out),
        ])
        assert result.exit_code == 0, result.output
        meta = json.loads((out / "radon_meta.json").read_text())
        assert meta["p_end_ratio"] < 1e-8
        assert meta["parity_check"] == "pass" and meta["parity_defect_rel"] < 1e-8

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
    ["radon", "--field", "gaussian", "--pgrid", "-8:8:12", "--out", "out"],
    ["radon", "--field", "gaussian", "--pgrid", "8:-8:16", "--out", "out"],
    ["radon", "--field", "gaussian", "--pgrid", "-3:12:64", "--out", "out"],
    ["radon", "--field", "gaussian", "--quad", "4,7", "--out", "out"],
    ["radon", "--field", "lundquist", "--params", '{"nu": 0}', "--out", "out"],
    ["radon", "--field", "lundquist", "--params", '{"n_ring": 5}', "--out", "out"],
    ["radon", "--field", "gaussian", "--params", '{"centre": [7, 0, 0]}', "--out", "out"],
    ["radon", "--field", "lundquist", "--params", '{"nring": 8}', "--out", "out"],
    ["radon", "--field", "modes", "--params",
     '{"modes": [{"lam": 1, "nu": 1, "kappa0": [0, 0, 1], "amplitude": 2}]}', "--out", "out"],
    ["radon", "--field", "modes", "--params", '{"modes": [3]}', "--out", "out"],
    ["field-eval", "--field", "lundquist", "--params", '{"nuu": 2}', "--out", "out"],
    ["field-eval", "--field", "gaussian", "--params", '{"center": [1, 2]}', "--out", "out"],
    ["radon", "--field", "gaussian", "--params", '{"polarization": [1, 0]}', "--out", "out"],
    ["field-eval", "--field", "lundquist", "--params", '{"nu": NaN}', "--out", "out"],
    ["radon", "--field", "gaussian", "--params", '{"width": NaN}', "--out", "out"],
    ["field-eval", "--field", "lundquist", "--grid", "a:1:3,-1:1:3,-1:1:3", "--out", "out"],
    ["field-eval", "--field", "lundquist", "--grid", "-1:1:2.5,-1:1:3,-1:1:3", "--out", "out"],
    ["field-eval", "--field", "lundquist", "--grid", "nan:1:3,-1:1:3,-1:1:3", "--out", "out"],
    ["field-eval", "--field", "lundquist", "--grid", "-1:inf:3,-1:1:3,-1:1:3", "--out", "out"],
    ["verify", "--only", "frame", "--tol", "frame_metric=nan", "--out", "out"],
    ["verify", "--only", "frame", "--tol", "frame_metric=inf", "--out", "out"],
    ["verify", "--only", "frame", "--tol", "frame_metric=-1", "--out", "out"],
], ids=["verify-empty-selection", "verify-unknown-tolerance", "radon-modes-without-modes",
        "radon-pgrid-not-power-of-two", "radon-pgrid-decreasing", "radon-pgrid-not-symmetric",
        "radon-quad-odd-azimuth",
        "radon-lundquist-zero-nu", "radon-lundquist-odd-ring", "radon-gaussian-unknown-key",
        "radon-lundquist-unknown-key", "radon-mode-record-unknown-key", "radon-mode-record-not-object",
        "field-eval-lundquist-unknown-key", "field-eval-gaussian-short-center",
        "radon-gaussian-short-polarization", "field-eval-lundquist-nan-nu",
        "radon-gaussian-nan-width", "field-eval-grid-non-numeric-bound",
        "field-eval-grid-non-integer-count", "field-eval-grid-nan-bound",
        "field-eval-grid-infinite-bound", "verify-nan-tolerance", "verify-infinite-tolerance",
        "verify-negative-tolerance"])
def test_bad_input_is_usage_error(runner, tmp_path, args):
    with runner.isolated_filesystem(temp_dir=tmp_path):
        result = runner.invoke(main, args)
        written = Path("out").exists()
    assert result.exit_code == 2, result.output
    assert "Usage:" in result.output
    assert not written


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

    @pytest.mark.parametrize("text", ["name,residual\n", '{"n_passed": 43}',
                                      '{"records": [{"name": "x"}]}'],
                             ids=["not-json", "no-records", "record-without-residual"])
    def test_verify_residuals_need_a_report(self, runner, tmp_path, text):
        data = tmp_path / "report.json"
        data.write_text(text)
        out = tmp_path / "plots"
        result = runner.invoke(main, [
            "plot", "--kind", "verify_residuals", "--data", str(data), "--out", str(out),
        ])
        assert result.exit_code == 2, result.output
        assert "Usage:" in result.output
        assert not out.exists()

    def test_missing_input_exits_2(self, runner, tmp_path):
        result = runner.invoke(main, [
            "plot", "--kind", "lundquist_radial",
            "--data", str(tmp_path / "absent.csv"), "--out", str(tmp_path / "p"),
        ])
        assert result.exit_code == 2


def test_cli_import_leaves_scipy_unloaded():
    # scipy is imported on the first Bessel evaluation only, so commands
    # that never evaluate one (the default Gaussian transform) skip its cost
    env = {**os.environ, "PYTHONPATH": str(Path(trkalian.__file__).parents[1])}
    probe = "import sys, trkalian.cli; print('scipy.special' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    assert out.stdout.strip() == "False"


def test_module_entry_point_runs_the_command():
    env = {**os.environ, "PYTHONPATH": str(Path(trkalian.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-m", "trkalian.cli", "verify", "--only", "frame"],
                         env=env, check=True, capture_output=True, text=True, timeout=120)
    # the last line is "N/N passed" for the N >= 4 frame records
    n_passed, n_total = out.stdout.splitlines()[-1].removesuffix(" passed").split("/")
    assert n_passed == n_total and int(n_total) >= 4
