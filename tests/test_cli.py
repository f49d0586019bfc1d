import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from test_properties import format_csv_reference

import trkalian
from trkalian import verify
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

    @pytest.mark.parametrize("f0, nu", [(0.5, 2.0), (1.7305, 0.6172)])
    def test_field_csv_on_the_benchmark_grid_equals_per_row_writer(self, runner, tmp_path,
                                                                   f0, nu):
        out = tmp_path / "out"
        result = runner.invoke(main, [
            "field-eval", "--field", "lundquist", "--params", json.dumps({"f0": f0, "nu": nu}),
            "--grid", "-2:2:21,-2:2:21,-2:2:21", "--out", str(out),
        ])
        assert result.exit_code == 0, result.output
        axis = np.linspace(-2.0, 2.0, 21)
        pts = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1).reshape(-1, 3)
        expected = format_csv_reference("x,y,z,re_fx,im_fx,re_fy,im_fy,re_fz,im_fz",
                                        pts, trkalian.fields.lundquist(f0, nu)(pts))
        assert (out / "field.csv").read_bytes() == expected.encode()

    def test_values_that_are_not_finite_write_nothing(self, runner, tmp_path):
        out = tmp_path / "out"
        result = runner.invoke(main, [
            "field-eval", "--field", "lundquist", "--params", '{"f0": 1e308, "nu": 10}',
            "--grid", "0:1:2,0:0:1,0:0:1", "--out", str(out),
        ])
        assert result.exit_code == 1, result.output
        # f0 nu = 1e309 overflows, and its product with the azimuthal factor is NaN
        assert ("lundquist is not finite at 2 of 2 grid points, the first at [0.0, 0.0, 0.0]"
                in result.output)
        assert not out.exists()

    def test_ck_circular_csv_is_the_library_field(self, runner, tmp_path):
        out = tmp_path / "out"
        params = {"m": 2, "k": 0.5, "nu": 1.3, "amplitude": 0.7}
        result = runner.invoke(main, [
            "field-eval", "--field", "ck_circular", "--params", json.dumps(params),
            "--grid", "-1:1:4,-1:1:3,0:1:2", "--out", str(out),
        ])
        assert result.exit_code == 0, result.output
        pts = np.stack(np.meshgrid(np.linspace(-1, 1, 4), np.linspace(-1, 1, 3),
                                   np.linspace(0, 1, 2), indexing="ij"), axis=-1).reshape(-1, 3)
        field = trkalian.ck_circular(**params)
        expected = format_csv_reference("x,y,z,re_fx,im_fx,re_fy,im_fy,re_fz,im_fz",
                                        pts, field(pts))
        assert (out / "field.csv").read_bytes() == expected.encode()
        meta = json.loads((out / "field_meta.json").read_text())
        assert meta["eigenvalue"] == field.eigenvalue == np.hypot(1.3, 0.5)

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
        assert len(payload["frequency"]) == 16  # two tones per ring node
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

    @pytest.mark.parametrize("center", [[0.3, -0.2, 0.1], [7, 0, 0]], ids=["centred", "edge"])
    def test_grid_is_the_envelope_transform_times_polarization(self, runner, tmp_path, center):
        # R[g P] = R[g] P: the CLI integrates the real envelope only; the
        # vector route differs in rounding, and its edge/peak ratios are g's
        width, pol = 1.1, [0.3 + 1.2j, -0.7 + 0.1j, 2.1 - 0.4j]
        out = tmp_path / "out"
        result = runner.invoke(main, [
            "radon", "--field", "gaussian", "--quad", "4,8", "--pgrid", "-8:8:16", "--out",
            str(out), "--params", json.dumps({"center": center, "width": width,
                                              "polarization": [repr(z) for z in pol]}),
        ])
        assert result.exit_code == 0, result.output
        meta = json.loads((out / "radon_meta.json").read_text())
        sphere = trkalian.sphere_quadrature(4, 8, antipodal=True)
        grid = trkalian.grid_from_csv((out / "profile_grid.csv").read_text(), sphere)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", trkalian.TruncationWarning)
            vector = trkalian.radon_forward_grid(
                trkalian.gaussian_test_field(center, width, pol), grid.p, sphere,
                trkalian.PlaneQuadrature(half_width=8.0 * width))
        scale = np.max(np.abs(vector.samples))
        assert np.max(np.abs(grid.samples - vector.samples)) <= 4e-15 * scale
        warning = next((w.message for w in caught), None)
        assert (warning is not None) is (center[0] == 7)
        assert meta["truncation_warning"] is (warning is not None)
        if warning is not None:
            assert meta["truncated_planes"] == warning.n_truncated > 0
            assert meta["truncation_worst_ratio"] == pytest.approx(warning.worst_ratio,
                                                                   rel=1e-14)

    def test_zero_polarization_gives_a_zero_grid_without_warning(self, runner, tmp_path):
        # the envelope is truncated at an edge centre, but P = 0 is the zero field
        out = tmp_path / "out"
        result = runner.invoke(main, [
            "radon", "--field", "gaussian", "--quad", "4,8", "--pgrid", "-8:8:16", "--out",
            str(out), "--params", '{"center": [7, 0, 0], "polarization": [0, 0, 0]}',
        ])
        assert result.exit_code == 0, result.output
        assert "warning" not in result.output
        grid = trkalian.grid_from_csv((out / "profile_grid.csv").read_text(),
                                      trkalian.sphere_quadrature(4, 8, antipodal=True))
        assert not np.any(grid.samples)
        meta = json.loads((out / "radon_meta.json").read_text())
        assert meta["truncation_warning"] is False and meta["truncated_planes"] == 0
        assert meta["parity_check"] == "pass"

    @pytest.mark.parametrize("offset, truncated", [(1.5, False), (6.5, True)],
                             ids=["interior-1.5w", "edge-6.5w"])
    def test_truncation_flag_on_the_trapezoid_plane(self, runner, tmp_path, offset, truncated):
        # the plane's edge nodes sit at 8 w: a centre 1.5 w out leaves the
        # edge below e^-42 of the peak, one 6.5 w out above e^-3
        width = 1.3
        center = offset * width * np.array([2.0, -1.0, 2.0]) / 3.0
        out = tmp_path / "out"
        result = runner.invoke(main, [
            "radon", "--field", "gaussian", "--out", str(out), "--params",
            json.dumps({"center": center.tolist(), "width": width}),
        ])
        assert result.exit_code == 0, result.output
        meta = json.loads((out / "radon_meta.json").read_text())
        assert meta["truncation_warning"] is truncated
        assert (meta["truncated_planes"] > 0) is truncated
        assert meta["plane_rule"] == "trapezoid"
        assert meta["plane_nodes_per_axis"] == 32
        assert meta["plane_half_width"] == 8.0 * width

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
            # for F(+8), where the Gaussian centred at 7 has its mass; the
            # interpolant's atoms measure 0.0091 of max |F|
            assert meta["parity_defect_rel"] > 5e-3 and meta["p_end_ratio"] > 0.1

    def test_parity_scan_on_shifted_p_grid(self, runner, tmp_path):
        # row i holds p_i = -6 + i/4, and row (48 - i) mod 64 holds -p_i; the
        # interpolant's parity holds as on a grid symmetric about 0
        out = tmp_path / "out"
        result = runner.invoke(main, [
            "radon", "--field", "gaussian", "--quad", "4,8", "--pgrid", "-6:10:64",
            "--out", str(out),
        ])
        assert result.exit_code == 0, result.output
        meta = json.loads((out / "radon_meta.json").read_text())
        assert meta["p_end_ratio"] < 1e-8
        assert meta["parity_check"] == "pass" and meta["parity_defect_rel"] < 1e-8

    @pytest.mark.parametrize("pgrid, verdict", [("-8:8.5:64", "pass"), ("-3:12:64", "fail")])
    def test_parity_on_p_grid_not_symmetric_about_zero(self, runner, tmp_path, pgrid, verdict):
        # -p_i is off the grid, so the parity is that of the interpolant; it
        # holds unless the window cuts the Gaussian, e^{-9} of its peak at -3
        out = tmp_path / "out"
        result = runner.invoke(main, [
            "radon", "--field", "gaussian", "--quad", "4,8", "--pgrid", pgrid,
            "--out", str(out),
        ])
        assert result.exit_code == 0, result.output
        meta = json.loads((out / "radon_meta.json").read_text())
        assert meta["parity_check"] == verdict
        if verdict == "pass":
            assert meta["parity_defect_rel"] < 1e-14 and meta["p_end_ratio"] < 1e-14
        else:
            assert meta["parity_defect_rel"] > 1e-8
            assert meta["p_end_ratio"] == pytest.approx(np.exp(-9.0), rel=0.01)

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
        assert len(payload["frequency"]) == 2


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

    def test_help_offers_no_tolerance_override(self, runner):
        # a run cannot loosen a record's tolerance; --only is the one filter
        result = runner.invoke(main, ["verify", "--help"])
        assert result.exit_code == 0
        assert "--only" in result.output
        assert "--tol" not in result.output

    def test_failing_record_fails_the_run(self, runner, tmp_path, monkeypatch):
        failing = ("zz_failing", "a residual above its tolerance", 1e-12, lambda: 1e-6)
        monkeypatch.setattr(verify, "_CHECKS", verify._CHECKS + [failing])
        report_path = tmp_path / "report.json"
        result = runner.invoke(main, ["verify", "--only", "zz_", "--out", str(report_path)])
        assert result.exit_code == 1
        assert "FAIL  zz_failing  residual=1.000e-06" in result.output
        assert "0/1 passed" in result.output
        report = json.loads(report_path.read_text())
        assert report["all_passed"] is False
        assert report["records"][0]["margin"] == 1e-12 / 1e-6

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

    def test_batched_records_do_not_depend_on_blas_threads(self):
        # the two records that evaluate a batch of points per call; one
        # thread and the default thread count must give the same residuals
        env = {k: v for k, v in os.environ.items()
               if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
        env["PYTHONPATH"] = str(Path(trkalian.__file__).parents[1])
        script = ("from trkalian import verify\n"
                  "for name in ('eigenfunction_curl', 'ck_abc_reconstruction'):\n"
                  "    print(name, repr(verify.run_verify(only=name)['records'][0]['residual']))\n")
        texts = [subprocess.run([sys.executable, "-c", script], env={**env, **threads}, check=True,
                                capture_output=True, timeout=120).stdout
                 for threads in ({"OPENBLAS_NUM_THREADS": "1"}, {})]
        assert texts[0] == texts[1]
        names = [line.split()[0] for line in texts[0].decode().splitlines()]
        assert names == ["eigenfunction_curl", "ck_abc_reconstruction"]


_ONE_MODE = {"lam": 1, "nu": 1.0, "kappa0": [0.0, 0.0, 1.0]}


@pytest.mark.parametrize("args", [
    ["verify", "--only", "zzz"],
    ["radon", "--field", "modes", "--params", "{}", "--out", "out"],
    ["radon", "--field", "gaussian", "--pgrid", "-8:8:12", "--out", "out"],
    ["radon", "--field", "gaussian", "--pgrid", "8:-8:16", "--out", "out"],
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
    ["radon", "--field", "gaussian", "--params", '{"center": [0, NaN, 0]}', "--out", "out"],
    ["field-eval", "--field", "lundquist", "--grid", "a:1:3,-1:1:3,-1:1:3", "--out", "out"],
    ["field-eval", "--field", "lundquist", "--grid", "-1:1:2.5,-1:1:3,-1:1:3", "--out", "out"],
    ["field-eval", "--field", "lundquist", "--grid", "nan:1:3,-1:1:3,-1:1:3", "--out", "out"],
    ["field-eval", "--field", "lundquist", "--grid", "-1:inf:3,-1:1:3,-1:1:3", "--out", "out"],
    ["field-eval", "--field", "lundquist", "--grid", "-1:1,-1:1:3,-1:1:3", "--out", "out"],
    ["field-eval", "--field", "lundquist", "--grid", "-1:1:3,-1:1:3", "--out", "out"],
    ["radon", "--field", "gaussian", "--quad", "8", "--out", "out"],
    ["radon", "--field", "gaussian", "--pgrid", "-8:8", "--out", "out"],
    ["field-eval", "--field", "lundquist", "--params", "[1]", "--out", "out"],
    ["radon", "--field", "gaussian", "--params", '{"width": 1e-200}', "--out", "out"],
    ["field-eval", "--field", "gaussian", "--params", '{"width": 1e-200}', "--out", "out"],
    ["radon", "--field", "gaussian", "--params", '{"width": 1e200}', "--out", "out"],
    ["field-eval", "--field", "gaussian", "--params", '{"width": 1e200}', "--out", "out"],
    ["radon", "--field", "lundquist", "--pgrid", "nan:8:64", "--quad", "x", "--out", "out"],
    ["radon", "--field", "lundquist", "--pgrid", "-8:8:64", "--out", "out"],
    ["radon", "--field", "modes", "--params", json.dumps({"modes": [_ONE_MODE]}),
     "--quad", "8,16", "--out", "out"],
], ids=["verify-empty-selection", "radon-modes-without-modes",
        "radon-pgrid-not-power-of-two", "radon-pgrid-decreasing",
        "radon-quad-odd-azimuth",
        "radon-lundquist-zero-nu", "radon-lundquist-odd-ring", "radon-gaussian-unknown-key",
        "radon-lundquist-unknown-key", "radon-mode-record-unknown-key", "radon-mode-record-not-object",
        "field-eval-lundquist-unknown-key", "field-eval-gaussian-short-center",
        "radon-gaussian-short-polarization", "field-eval-lundquist-nan-nu",
        "radon-gaussian-nan-width", "radon-gaussian-nan-center", "field-eval-grid-non-numeric-bound",
        "field-eval-grid-non-integer-count", "field-eval-grid-nan-bound",
        "field-eval-grid-infinite-bound", "field-eval-grid-two-field-axis",
        "field-eval-grid-two-axes", "radon-quad-one-count", "radon-pgrid-two-fields",
        "field-eval-params-not-object", "radon-gaussian-underflowing-width",
        "field-eval-gaussian-underflowing-width", "radon-gaussian-overflowing-width",
        "field-eval-gaussian-overflowing-width", "radon-lundquist-bad-quad-and-pgrid",
        "radon-lundquist-pgrid", "radon-modes-quad"])
def test_bad_input_is_usage_error(runner, tmp_path, args):
    with runner.isolated_filesystem(temp_dir=tmp_path):
        result = runner.invoke(main, args)
        written = Path("out").exists()
    assert result.exit_code == 2, result.output
    assert "Usage:" in result.output
    assert not written


@pytest.mark.parametrize("args, named", [
    (["field-eval", "--field", "ck_circular", "--params", '{"m": 2.5}'],
     "m must be an integer, got 2.5"),
    (["radon", "--field", "lundquist", "--params", '{"n_ring": 16.9}'],
     "n_ring must be an integer, got 16.9"),
    (["field-eval", "--field", "modes", "--params",
      json.dumps({"modes": [dict(_ONE_MODE, lam=1.7)]})], "lam must be an integer, got 1.7"),
    (["radon", "--field", "modes", "--params",
      json.dumps({"modes": [dict(_ONE_MODE, mu=1.5)]})], "mu must be an integer, got 1.5"),
    (["radon", "--field", "gaussian", "--params", '{"polarization": [1e308, 0, 0]}'],
     "polarization [(1e+308+0j), 0j, 0j] overflows the transform"),
    (["field-eval", "--field", "lundquist", "--params", '{"nu": 1%s}' % ("0" * 400)],
     "parameter nu is an integer beyond the float range"),
    (["radon", "--field", "gaussian", "--params", '{"width": 1%s}' % ("0" * 400)],
     "parameter width is an integer beyond the float range"),
    (["radon", "--field", "modes", "--params",
      '{"modes": [{"lam": 1, "nu": 1, "kappa0": [0, 0, -1%s]}]}' % ("0" * 400)],
     "parameter modes[0].kappa0[2] is an integer beyond the float range"),
    (["field-eval", "--field", "lundquist", "--params", '{"nu": 1%s}' % ("0" * 5000)],
     "malformed JSON parameters: Exceeds the limit (4300 digits)"),
    # counts whose points numpy cannot index, refused before any array is made
    (["field-eval", "--field", "lundquist", "--grid", "0:1:100000000000000000000000,0:1:2,0:1:2"],
     "grid axis '0:1:100000000000000000000000' has too many points"),
    (["field-eval", "--field", "lundquist", "--grid", f"0:1:2,0:1:{2**63 - 1},0:1:2"],
     f"grid axis '0:1:{2**63 - 1}' has too many points"),
    (["field-eval", "--field", "lundquist", "--grid", "0:1:10000000,0:1:10000000,0:1:10000000"],
     "grid '0:1:10000000,0:1:10000000,0:1:10000000' has too many points: 1000000000000000000000"),
    # bounds checked as scalars before the grid: not the whole array in the message,
    # nor numpy's overflow warning on (p1 - p0) k
    (["radon", "--field", "gaussian", "--pgrid", "nan:8:64"],
     "--pgrid axis 'nan:8:64' needs finite bounds, positive count"),
    (["radon", "--field", "gaussian", "--pgrid", "0:1e308:64"],
     "invalid gaussian input: (p1 - p0) n must be finite, got inf"),
    # the grid options of a Gaussian, which an atom field ignored without a word
    (["radon", "--field", "lundquist", "--quad", "4,8", "--pgrid", "nan:8:64"],
     "--field lundquist is exact atoms, sized by --params: it takes no --quad or --pgrid"),
    (["radon", "--field", "modes", "--pgrid", "-8:8:64"], "it takes no --pgrid"),
], ids=["ck-circular-m", "lundquist-n-ring", "mode-lam", "mode-mu", "gaussian-polarization",
        "field-eval-int-beyond-float", "radon-int-beyond-float", "radon-nested-int-beyond-float",
        "field-eval-int-beyond-digit-limit", "field-eval-grid-count-beyond-array-size",
        "field-eval-grid-count-at-index-limit", "field-eval-grid-product-beyond-array-size",
        "radon-pgrid-nan-bound", "radon-pgrid-overflowing-span", "radon-lundquist-grid-options",
        "radon-modes-pgrid"])
def test_bad_value_is_usage_error_naming_it(runner, tmp_path, args, named):
    # where int() truncated the value without a word, where the product of the
    # transform and the polarization overflowed into a traceback, and where
    # float() of a JSON integer or numpy's grid axis raised one
    with runner.isolated_filesystem(temp_dir=tmp_path):
        result = runner.invoke(main, args + ["--out", "out"])
        written = Path("out").exists()
    assert result.exit_code == 2, result.output
    assert "Usage:" in result.output and named in result.output
    assert not written


def test_radon_help_states_the_grid_defaults(runner):
    result = runner.invoke(main, ["radon", "--help"])
    assert result.exit_code == 0, result.output
    text = " ".join(result.output.split())  # click wraps the help text
    assert "npolar,nazimuth, --field gaussian only [default: 8,16]" in text
    assert "p0:p1:n, --field gaussian only [default: -8:8:64]" in text


def _raise_memory_error(*args, **kwargs):
    raise MemoryError


@pytest.mark.parametrize("target, patch, args, named", [
    ("trkalian.cli.build_field", lambda name, params: _raise_memory_error,
     ["field-eval", "--field", "lundquist", "--grid", "0:1:3,0:1:3,0:1:3"],
     "--grid 0:1:3,0:1:3,0:1:3"),
    ("trkalian.cli.sphere_quadrature", _raise_memory_error,
     ["radon", "--field", "gaussian", "--quad", "3000,6000"], "--quad 3000,6000 --pgrid -8:8:64"),
    ("trkalian.radon.radon_forward_grid", _raise_memory_error,
     ["radon", "--field", "gaussian", "--quad", "2,4", "--pgrid", "-4:4:8"],
     "--quad 2,4 --pgrid -4:4:8"),
    ("trkalian.radon.lundquist_radon_profile", _raise_memory_error,
     ["radon", "--field", "lundquist", "--params", '{"n_ring": 1000000000000000}'],
     '--params {"n_ring": 1000000000000000}'),
], ids=["field-eval-evaluation", "radon-sphere-rule", "radon-transform", "radon-lundquist-ring"])
def test_allocation_failure_is_one_line_error_naming_the_input(runner, tmp_path, monkeypatch,
                                                               target, patch, args, named):
    # numpy's _ArrayMemoryError traceback before; no array here is large
    monkeypatch.setattr(target, patch)
    with runner.isolated_filesystem(temp_dir=tmp_path):
        result = runner.invoke(main, args + ["--out", "out"])
        written = Path("out").exists()
    assert result.exit_code == 1, result.output
    assert result.output == f"Error: not enough memory for {named}; nothing written\n"
    assert not written


def test_integral_float_reads_as_the_integer(runner, tmp_path):
    written = []
    for m in ("2", "2.0"):
        result = runner.invoke(main, ["field-eval", "--field", "ck_circular", "--params",
                                      f'{{"m": {m}}}', "--grid", "-1:1:3,-1:1:3,-1:1:3",
                                      "--out", str(tmp_path / m)])
        assert result.exit_code == 0, result.output
        written.append((tmp_path / m / "field.csv").read_bytes())
    assert written[0] == written[1]


def _radon_grid_csv(runner, tmp_path) -> Path:
    """A trk radon profile_grid.csv on a small rule."""
    result = runner.invoke(main, ["radon", "--field", "gaussian", "--quad", "2,4",
                                  "--pgrid=-4:4:8", "--out", str(tmp_path / "gauss")])
    assert result.exit_code == 0, result.output
    return tmp_path / "gauss" / "profile_grid.csv"


class TestPlotCommand:
    def test_radon_heatmap(self, runner, tmp_path):
        data = _radon_grid_csv(runner, tmp_path)
        out = tmp_path / "plots"
        result = runner.invoke(main, [
            "plot", "--kind", "radon_heatmap",
            "--data", str(data), "--out", str(out),
        ])
        assert result.exit_code == 0, result.output
        assert sorted(p.name for p in out.iterdir()) == ["radon_heatmap.gp"]
        script = (out / "radon_heatmap.gp").read_text()
        assert f"splot '{data}' using 1:(atan2($3,$2)):5" in script
        assert "title 'Re F_x'" in script

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
        assert (out / "verify_residuals.gp").exists()

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
            "plot", "--kind", "verify_residuals",
            "--data", str(tmp_path / "absent.json"), "--out", str(tmp_path / "p"),
        ])
        assert result.exit_code == 2
        assert "does not exist" in result.output


_GRID_ROW = "0,1,0,0,1,0,0,0,0,0\n"


@pytest.mark.parametrize("kind,data", [
    ("lundquist_radial", ("field.csv", "x,y,z\n0,0,0\n")),
    ("radon_heatmap", None),
    ("verify_residuals", None),
    ("radon_heatmap", "directory"),
    ("radon_heatmap", ("profile_grid.csv", "p,kx,ky,kz\n0,0,0,1\n")),
    ("radon_heatmap", ("field.csv", "x,y,z,re_fx,im_fx,re_fy,im_fy,re_fz,im_fz\n" + _GRID_ROW)),
    ("radon_heatmap", ("profile_grid.csv", "")),
    ("radon_heatmap", ("profile_grid.csv", b"\xff\xfe" + _GRID_ROW.encode())),
    ("verify_residuals", ("report.json", b"\xff\xfe{}")),
], ids=["lundquist-radial-kind", "heatmap-missing-data", "residuals-missing-data",
        "heatmap-data-is-directory", "heatmap-header-only-directions", "heatmap-field-csv",
        "heatmap-empty-file", "heatmap-not-text", "residuals-not-text"])
def test_bad_plot_input_is_usage_error(runner, tmp_path, kind, data):
    """Every bad --kind or --data exits 2 with a usage message before anything
    is written under --out."""
    if data is None:
        data_path = tmp_path / "absent"
    elif data == "directory":
        data_path = tmp_path
    else:
        data_path = tmp_path / data[0]
        if isinstance(data[1], bytes):
            data_path.write_bytes(data[1])
        else:
            data_path.write_text(data[1])
    out = tmp_path / "plots"
    result = runner.invoke(main, ["plot", "--kind", kind, "--data", str(data_path),
                                  "--out", str(out)])
    assert result.exit_code == 2, result.output
    assert "Usage:" in result.output
    assert not out.exists()


def test_cli_import_leaves_scipy_unloaded(tmp_path):
    # scipy is imported on the first Bessel evaluation only, so commands
    # that never evaluate one (the default Gaussian transform and both plot
    # kinds) skip its cost
    env = {**os.environ, "PYTHONPATH": str(Path(trkalian.__file__).parents[1])}
    report = tmp_path / "report.json"
    report.write_text(json.dumps({"records": [
        {"name": "x", "residual": 1e-10, "tolerance": 1e-6}]}))
    gauss, plots = tmp_path / "gauss", tmp_path / "plots"
    commands = [["radon", "--field", "gaussian", "--out", str(gauss)],
                ["plot", "--kind", "radon_heatmap", "--data", str(gauss / "profile_grid.csv"),
                 "--out", str(plots)],
                ["plot", "--kind", "verify_residuals", "--data", str(report), "--out", str(plots)]]
    probe = ("import sys; from trkalian.cli import main\n"
             f"for args in {commands!r}: main(args, standalone_mode=False)\n"
             "print('scipy.special' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    assert out.stdout.strip().splitlines()[-1] == "False"
    assert sorted(p.name for p in plots.iterdir()) == [
        "radon_heatmap.gp", "verify_residuals.csv", "verify_residuals.gp"]


def test_module_entry_point_runs_the_command():
    env = {**os.environ, "PYTHONPATH": str(Path(trkalian.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-m", "trkalian.cli", "verify", "--only", "frame"],
                         env=env, check=True, capture_output=True, text=True, timeout=120)
    # the last line is "N/N passed" for the N >= 4 frame records
    n_passed, n_total = out.stdout.splitlines()[-1].removesuffix(" passed").split("/")
    assert n_passed == n_total and int(n_total) >= 4
