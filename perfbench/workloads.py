"""The four benchmark workloads.

Each workload makes its inputs from ``(seed, op index)`` alone, runs one op
as a sequence of public ``trkalian`` calls (``run``, the timed part), and then
checks the op's outputs against references that do not share the program's
code path (``check``, untimed and untraced).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import warnings
from collections import Counter
from pathlib import Path

import numpy as np

import oracles as orc

# Failures present in the program this benchmark was written against.  Each
# is counted in ``failed`` and named in the report; a run whose failures are
# all listed here is still ``correct``.  A fix removes its entry.
KNOWN_DEFECTS = {
    "radon_grid.recon_grid_start":
        "inverse_radon on a GridProfile treats the p-grid as starting at 0 "
        "and ignores p[0]",
    "radon_grid.truncation_flag":
        "radon_forward_grid suppresses TruncationWarning, so the CLI's "
        "truncation_warning sidecar field is always false",
    "volume.bs_box_sign":
        "the box rule of bs_integral subtracts the eps^2/4 curl F correction "
        "of the cut-off ball instead of adding it",
}


class Checks:
    """Output checks of one run: counts, worst residuals and file digests."""

    def __init__(self, workload: str, digest_path: Path):
        self.workload = workload
        self.attempted = 0
        self.failures: Counter = Counter()
        self.worst: dict[str, float] = {}
        self.digest_path = digest_path
        self.stored = json.loads(digest_path.read_text()) if digest_path.exists() else {}
        self.digests: dict[str, str] = {}

    def expect(self, name: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failures[f"{self.workload}.{name}"] += 1

    def within(self, name: str, residual: float, tol: float) -> None:
        """Pass when residual <= tol; NaN fails.  Records the worst residual."""
        residual = float(residual)
        prev = self.worst.get(name, 0.0)
        self.worst[name] = residual if np.isnan(residual) else max(prev, residual)
        self.expect(name, bool(residual <= tol))

    def digest(self, key: str, data: bytes) -> None:
        """Outputs of the same input must be byte-identical from run to run."""
        sha = hashlib.sha256(data).hexdigest()
        for known in (self.digests.get(key), self.stored.get(key)):
            if known is not None:
                self.expect("digest_repeat", known == sha)
        self.digests[key] = sha

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    def save_digests(self) -> None:
        self.digest_path.parent.mkdir(parents=True, exist_ok=True)
        merged = {**self.stored, **self.digests}
        self.digest_path.write_text(json.dumps(merged, indent=1, sort_keys=True) + "\n")


def run_cli(cli, args: list[str]) -> int:
    """Invoke the ``trk`` command in-process; returns its exit code."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            cli.main(args, standalone_mode=False)
        except SystemExit as exc:
            return int(exc.code or 0)
    return 0


def _rel(a, b) -> float:
    a, b = np.asarray(a), np.asarray(b)
    return float(np.max(np.abs(a - b)) / max(float(np.max(np.abs(b))), 1e-300))


def _unit_vectors(rng, n: int) -> np.ndarray:
    v = rng.normal(size=(n, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


class Workload:
    name = ""
    item = ""
    warmup_ops = 1
    min_ops = 1

    def __init__(self, tk, seed: int, workdir: Path):
        self.tk = tk
        self.seed = seed
        self.workdir = workdir

    def rng(self, *key) -> np.random.Generator:
        return np.random.default_rng([self.seed, *key])

    def setup(self) -> None:
        """Build the inputs of the first op (the part of set-up that is ours)."""
        self.inputs(0)

    def inputs(self, i: int) -> dict:
        raise NotImplementedError

    def run(self, i: int) -> dict:
        raise NotImplementedError

    def check(self, i: int, out: dict, checks: Checks) -> None:
        raise NotImplementedError


# ---------------------------------------------------------------------------

class RadonGrid(Workload):
    """``trk radon --field gaussian`` at its defaults, then read-back,
    Gamma products and reconstruction of the written grid."""

    name = "radon_grid"
    item = "planes"
    warmup_ops = 0
    min_ops = 2  # op 0 is an interior input, op 1 an edge input
    N_POINTS = 8

    def inputs(self, i: int) -> dict:
        rng = self.rng(i)
        width = rng.uniform(0.8, 1.2)
        edge = i % 4 == 1  # one input in four sits within two widths of the plane edge
        offset = rng.uniform(6.0, 7.0) if edge else rng.uniform(0.0, 1.5)
        center = offset * width * _unit_vectors(rng, 1)[0]
        pol = rng.normal(size=3) + 1j * rng.normal(size=3)
        radii = width * rng.uniform(0.0, 0.5, size=self.N_POINTS)
        points = center + radii[:, None] * _unit_vectors(rng, self.N_POINTS)
        params = {"center": [float(c) for c in center], "width": float(width),
                  "polarization": [repr(complex(z)) for z in pol]}
        return {"edge": edge, "params": params, "points": points}

    def run(self, i: int) -> dict:
        tk = self.tk
        inp = self.inputs(i)
        out_dir = self.workdir / f"radon_{i}"
        code = run_cli(tk.cli, ["radon", "--field", "gaussian",
                                "--params", json.dumps(inp["params"]),
                                "--out", str(out_dir)])
        csv_text = (out_dir / "profile_grid.csv").read_text()
        meta_text = (out_dir / "radon_meta.json").read_text()
        sphere = tk.sphere_quadrature(8, 16, antipodal=True)
        grid = tk.grid_from_csv(csv_text, sphere)
        cross = tk.gamma_apply(grid, "cross")
        dot = tk.gamma_apply(grid, "dot")
        recon = np.array([tk.inverse_radon(grid, x) for x in inp["points"]])
        return {"inp": inp, "code": code, "csv": csv_text, "meta": meta_text,
                "grid": grid, "cross": cross, "dot": dot, "recon": recon,
                "items": grid.p.size * sphere.n}

    def check(self, i: int, out: dict, checks: Checks) -> None:
        inp, grid = out["inp"], out["grid"]
        checks.expect("exit_code", out["code"] == 0)
        checks.digest(f"{i}/profile_grid.csv", out["csv"].encode())
        checks.digest(f"{i}/radon_meta.json", out["meta"].encode())
        meta = json.loads(out["meta"])
        checks.expect("meta_shape", meta["n_p"] == 64 and meta["n_directions"] == 128)

        center = np.asarray(inp["params"]["center"])
        width = inp["params"]["width"]
        pol = np.asarray(inp["params"]["polarization"], dtype=complex)
        nodes = grid.sphere.nodes
        # the CLI's plane: half-width 8 w, 40 Gauss-Legendre nodes per axis
        e1, e2 = np.array([self.tk.plane_basis(k) for k in nodes]).transpose(1, 0, 2)
        log_ratio = orc.plane_edge_log_ratio(e1, e2, center, width, 8.0 * width, 40)
        expect_flag = bool(np.any(log_ratio > np.log(orc.TRUNCATION_THRESHOLD)))
        checks.expect("truncation_flag", meta["truncation_warning"] == expect_flag)
        if inp["edge"]:
            return

        checks.expect("parity_scan", meta["parity_check"] == "pass")
        scale = np.pi * width**2 * np.max(np.abs(pol))
        exact = orc.gaussian_plane_integral(grid.p, nodes, center, width, pol)
        checks.within("forward_err", np.max(np.abs(grid.samples - exact)) / scale, 1e-8)
        deriv = orc.gaussian_plane_derivative(grid.p, nodes, center, width, pol)
        dscale = np.max(np.abs(deriv))
        checks.within("gamma_cross", np.max(np.abs(
            out["cross"].samples - np.cross(nodes[None], deriv))) / dscale, 1e-6)
        checks.within("gamma_dot", np.max(np.abs(
            out["dot"].samples - np.einsum("jk,ijk->ij", nodes, deriv))) / dscale, 1e-6)
        field = orc.gaussian_field(inp["points"], center, width, pol)
        err = np.linalg.norm(out["recon"] - field, axis=1) / np.linalg.norm(field, axis=1)
        checks.within("recon_grid_start", np.max(err), 1e-4)


# ---------------------------------------------------------------------------

class Atoms(Workload):
    """Exact transform-space arithmetic on Lundquist rings and mode sums.

    One op is a sweep over atom counts 32..1024 (log-spaced), alternating
    rings and mode sums; the next op swaps the two kinds, so ops do nearly
    the same amount of work.
    """

    name = "atoms"
    item = "atoms"
    SIZES = (32, 64, 128, 256, 512, 1024)
    N_POINTS = 16

    def inputs(self, i: int) -> dict:
        cases = []
        for j, n in enumerate(self.SIZES):
            kind = ("ring", "modes")[(i + j) % 2]
            rng = self.rng(i, j)
            nu = rng.uniform(0.5, 2.0)
            case = {"kind": kind, "n": n, "nu": nu,
                    "points": rng.uniform(-1.0, 1.0, size=(self.N_POINTS, 3)) / nu}
            if kind == "ring":
                case["f0"] = rng.uniform(0.5, 2.0)
            else:
                case["dirs"] = _unit_vectors(rng, n // 2)
                case["amps"] = rng.normal(size=n // 2) + 1j * rng.normal(size=n // 2)
            # Debye data: n/2 tones at +-nu, and n/4 omega atoms per branch
            case["tone_dirs"] = _unit_vectors(rng, n // 2)
            case["tone_coef"] = rng.normal(size=n // 2) + 1j * rng.normal(size=n // 2)
            case["omega"] = rng.normal(size=3)
            case["om_dirs"] = _unit_vectors(rng, n // 2)
            case["om_vecs"] = rng.normal(size=(n // 2, 3)) + 1j * rng.normal(size=(n // 2, 3))
            cases.append(case)
        return {"cases": cases}

    def _profile(self, case):
        tk = self.tk
        if case["kind"] == "ring":
            return tk.lundquist_radon_profile(case["f0"], case["nu"], n_ring=case["n"] // 2), None
        mf = tk.ModeField(modes=tuple(tk.HelicityMode(1, case["nu"], d, a)
                                      for d, a in zip(case["dirs"], case["amps"])))
        return tk.radon_mode_analytic(mf), mf

    def run(self, i: int) -> dict:
        tk = self.tk
        hemisphere = tk.canonical_hemisphere()
        results = []
        for c_idx, case in enumerate(self.inputs(i)["cases"]):
            prof, mf = self._profile(case)
            res = {"case": case, "profile": prof, "mf": mf}
            res["defects"] = (prof.transverse_defect(), prof.parity_defect(),
                              tk.gamma_cross_eigendefect(prof), tk.rbs_eigendefect(prof))
            res["cross"] = tk.gamma_apply(prof, "cross")
            res["dot"] = tk.gamma_apply(prof, "dot")
            res["rbs"] = tk.rbs_apply(prof)
            res["antipodal"] = tk.antipodal_profile(prof)
            probe_atoms = prof.atoms[:8:2]
            res["probe_atoms"] = probe_atoms
            res["probes"] = [tk.spherical_curl_transform(prof, a.direction) for a in probe_atoms]
            dirs = np.array([a.direction for a in prof.atoms])
            res["frames"] = (dirs, tk.moses_frame(dirs, 1), tk.moses_frame(dirs, 2))
            res["inverse"] = tk.inverse_radon(prof, case["points"])
            res["hemi"] = tk.hemisphere_inverse(prof, hemisphere, case["points"])
            path = self.workdir / f"atoms_{i}_{c_idx}.json"
            path.write_text(tk.profile_to_json(prof))
            res["json"] = path.read_text()
            res["back"] = tk.profile_from_json(res["json"])
            nu = case["nu"]
            tones = [tk.ScalarTone(d, s * nu, c) for d, c, s in
                     zip(case["tone_dirs"], case["tone_coef"], np.resize([1.0, -1.0], case["n"] // 2))]
            res["ck"] = tk.ck_transform_solution(tk.DebyeChoice(tones, case["omega"], nu))
            half = case["n"] // 4
            om = [tk.OmegaAtom(d, v) for d, v in zip(case["om_dirs"], case["om_vecs"])]
            res["ck_x"] = tk.reconstruct_physical(om[:half], om[half:], 1, nu, case["points"])
            results.append(res)
        return {"results": results, "items": sum(len(r["profile"].atoms) for r in results)}

    def check(self, i: int, out: dict, checks: Checks) -> None:
        tk = self.tk
        for c_idx, res in enumerate(out["results"]):
            case, prof = res["case"], res["profile"]
            nu = case["nu"]
            amps = np.array([a.amplitude for a in prof.atoms])
            dirs = np.array([a.direction for a in prof.atoms])
            freqs = np.array([a.frequency for a in prof.atoms])
            a_max = float(np.max(np.abs(amps)))
            tol = 1e-12 * a_max
            td, pd, gd, rd = res["defects"]
            checks.expect("atom_count", len(prof.atoms) == case["n"])
            checks.within("transverse", td / a_max, 1e-12)
            checks.within("parity", pd / a_max, 1e-12)
            checks.within("gamma_eigen", gd / (nu * a_max), 1e-12)
            checks.within("rbs_eigen", rd * nu / a_max, 1e-12)
            # the kappa products against numpy's own cross and dot of the atoms
            gamma = 1j * freqs[:, None] * np.cross(dirs, amps)
            checks.within("gamma_cross", np.max(np.abs(
                np.array([a.amplitude for a in res["cross"].atoms]) - gamma)) / (nu * a_max), 1e-12)
            checks.within("gamma_dot", np.max(np.abs(
                np.array([a.amplitude for a in res["dot"].atoms]))) / (nu * a_max), 1e-12)
            checks.within("rbs_apply", np.max(np.abs(
                np.array([a.amplitude for a in res["rbs"].atoms]) - amps / nu)) * nu / a_max, 1e-12)
            anti = res["antipodal"].atoms
            checks.expect("antipodal", all(
                np.array_equal(b.direction, -a.direction) and b.frequency == a.frequency
                and np.array_equal(b.amplitude, a.amplitude) for a, b in zip(prof.atoms, anti)))
            for atom, (s1, s2) in zip(res["probe_atoms"], res["probes"]):
                if case["kind"] == "ring":
                    psi = np.arctan2(atom.direction[1], atom.direction[0])
                    target = -np.sqrt(2.0) * np.sqrt(2.0 * np.pi) * case["f0"] * np.exp(-1j * psi)
                else:
                    target = case["amps"][int(np.argmin(np.linalg.norm(
                        case["dirs"] - atom.direction, axis=1)))]
                    checks.within("probe_s2", abs(s2) / abs(target), 1e-12)
                checks.within("probe_s1", abs(s1 - target) / abs(target), 1e-10)
            fdirs, q1, q2 = res["frames"]
            checks.within("frame_norm", max(np.max(np.abs(np.sum(np.abs(q1) ** 2, axis=1) - 1.0)),
                                            np.max(np.abs(np.sum(np.abs(q2) ** 2, axis=1) - 1.0))), 1e-12)
            checks.within("frame_transverse", max(np.max(np.abs(np.sum(fdirs * q1, axis=1))),
                                                  np.max(np.abs(np.sum(fdirs * q2, axis=1)))), 1e-12)
            if case["kind"] == "ring":
                ref = orc.lundquist_field(case["points"], case["f0"], nu)
            else:
                ref = tk.eval_mode_field(res["mf"], case["points"])
            checks.within("inverse", _rel(res["inverse"], ref), 1e-9)
            checks.within("hemisphere", _rel(res["hemi"], res["inverse"]), 1e-12)
            back = res["back"]
            checks.expect("json_roundtrip", (back.nu, back.mu, back.g) == (prof.nu, prof.mu, prof.g)
                          and all(np.array_equal(a.direction, b.direction)
                                  and a.frequency == b.frequency and a.weight == b.weight
                                  and np.array_equal(a.amplitude, b.amplitude)
                                  for a, b in zip(prof.atoms, back.atoms)))
            checks.digest(f"{i}/{c_idx}/profile.json", res["json"].encode())
            # Debye solution: Gamma x G = nu G atom by atom
            ck_amps = np.array([a.amplitude for a in res["ck"].atoms])
            ck_dirs = np.array([a.direction for a in res["ck"].atoms])
            ck_freqs = np.array([a.frequency for a in res["ck"].atoms])
            lhs = 1j * ck_freqs[:, None] * np.cross(ck_dirs, ck_amps)
            checks.within("ck_solution", np.max(np.abs(lhs - nu * ck_amps))
                          / (nu * np.max(np.abs(ck_amps))), 1e-12)
            # contour reconstruction against the direct atom sum
            half = case["n"] // 4
            d = case["om_dirs"]
            w = case["om_vecs"]
            dxw = np.cross(d, w)
            dxdxw = np.cross(d, dxw)
            sign = np.where(np.arange(d.shape[0]) < half, 1.0, -1.0)
            amp = 0.5 * (sign[:, None] * 1j * dxw - dxdxw)
            freq = sign * nu
            ref = orc.atom_sum_inverse(d, freq, amp, np.ones(d.shape[0]), case["points"],
                                       freq**2 / (8.0 * np.pi**2))
            checks.within("ck_reconstruct", _rel(res["ck_x"], ref), 1e-12)


# ---------------------------------------------------------------------------

class Volume(Workload):
    """Physical-space quadratures: Biot-Savart and Riesz integrals by both
    rules, Ampere fluxes, the finite-difference Debye field, and
    ``trk field-eval`` on 21^3 points."""

    name = "volume"
    item = "points"
    N_POINTS = 2
    N_CK = 50
    GRID = "-2:2:21,-2:2:21,-2:2:21"

    def inputs(self, i: int) -> dict:
        rng = self.rng(i)
        width = rng.uniform(0.8, 1.2)
        center = rng.uniform(-0.3, 0.3, size=3) * width
        pol = rng.normal(size=3) + 1j * rng.normal(size=3)
        radii = width * rng.uniform(0.5, 1.5, size=self.N_POINTS)
        points = center + radii[:, None] * _unit_vectors(rng, self.N_POINTS)
        f0, nu = rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0)
        discs = rng.uniform(0.5, 3.0, size=2) / nu
        ck_points = rng.uniform(-2.0, 2.0, size=(self.N_CK, 3))
        return {"width": width, "center": center, "pol": pol, "points": points,
                "f0": f0, "nu": nu, "discs": discs, "ck_points": ck_points}

    def run(self, i: int) -> dict:
        tk = self.tk
        inp = self.inputs(i)
        width, nu = inp["width"], inp["nu"]
        gauss = tk.gaussian_test_field(inp["center"], width, inp["pol"])
        ball = tk.ball_quadrature(9.0 * width)
        box = tk.box_quadrature(6.0 * width)
        res = {"inp": inp, "bs": [], "riesz": []}
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for x in inp["points"]:
                res["bs"].append((tk.bs_integral(gauss, x, ball), tk.bs_integral(gauss, x, box)))
                res["riesz"].append((tk.riesz_potential(gauss, x, ball),
                                     tk.riesz_potential(gauss, x, box)))
        lq = tk.lundquist(inp["f0"], nu)
        res["ampere"] = [tk.ampere_fluxes(lq, r, nu) for r in inp["discs"]]
        ck = tk.ck_field(tk.bessel_j0_scalar(nu), (0.0, 0.0, 1.0), nu)
        res["ck"] = ck(inp["ck_points"])
        out_dir = self.workdir / f"field_{i}"
        res["code"] = run_cli(tk.cli, ["field-eval", "--field", "lundquist",
                                       "--params", json.dumps({"f0": inp["f0"], "nu": nu}),
                                       "--grid", self.GRID, "--out", str(out_dir)])
        res["csv"] = (out_dir / "field.csv").read_text()
        res["meta"] = (out_dir / "field_meta.json").read_text()
        res["items"] = 4 * self.N_POINTS + len(inp["discs"]) + self.N_CK + 21**3
        return res

    def check(self, i: int, out: dict, checks: Checks) -> None:
        inp = out["inp"]
        c, w, pol = inp["center"], inp["width"], inp["pol"]
        for x, (b_ball, b_box), (r_ball, r_box) in zip(inp["points"], out["bs"], out["riesz"]):
            b_ref = orc.gaussian_biot_savart(x, c, w, pol)
            r_ref = orc.gaussian_riesz(x, c, w, pol)
            bn, rn = np.linalg.norm(b_ref), np.linalg.norm(r_ref)
            checks.within("bs_ball", np.linalg.norm(b_ball - b_ref) / bn, 1e-9)
            # O(eps^4) remainder at eps = w/2 is <= 0.09 of |B| with the
            # correction's sign as derived; the subtracted sign leaves >= 0.26
            checks.within("bs_box_sign", np.linalg.norm(b_box - b_ref) / bn, 0.15)
            checks.within("riesz_ball", np.linalg.norm(r_ball - r_ref) / rn, 1e-9)
            # Gauss-Legendre box rule with a kink at y = x: <= 6.5e-3 measured
            checks.within("riesz_box", np.linalg.norm(r_box - r_ref) / rn, 2e-2)
        f0, nu = inp["f0"], inp["nu"]
        for radius, (q, phi_s, phi_l) in zip(inp["discs"], out["ampere"]):
            q_ref = orc.lundquist_axial_flux(f0, nu, radius)
            scale = np.pi * radius**2 * f0
            checks.within("ampere_flux", abs(q - q_ref) / scale, 1e-10)
            checks.within("ampere_surface", abs(phi_s - nu * q_ref) / (nu * scale), 1e-8)
            checks.within("ampere_line", abs(phi_l - nu * q_ref) / (nu * scale), 1e-10)
        ck_ref = nu * orc.lundquist_field(inp["ck_points"], 1.0, nu)
        checks.within("ck_field_fd", np.max(np.abs(out["ck"] - ck_ref)) / nu, 1e-6)
        checks.expect("exit_code", out["code"] == 0)
        rows = np.loadtxt(io.StringIO(out["csv"]), delimiter=",", skiprows=1)
        checks.expect("field_eval_rows", rows.shape == (21**3, 9))
        vals = rows[:, 3::2] + 1j * rows[:, 4::2]
        checks.within("field_eval_csv",
                      np.max(np.abs(vals - orc.lundquist_field(rows[:, :3], f0, nu))) / f0, 1e-12)
        checks.digest(f"{i}/field.csv", out["csv"].encode())
        checks.digest(f"{i}/field_meta.json", out["meta"].encode())


# ---------------------------------------------------------------------------

class Verify(Workload):
    """``trk verify``: all records, fixed inputs (the seed is not used)."""

    name = "verify"
    item = "records"
    N_RECORDS = 43

    def inputs(self, i: int) -> dict:
        return {}

    def run(self, i: int) -> dict:
        path = self.workdir / f"verify_{i}.json"
        code = run_cli(self.tk.cli, ["verify", "--out", str(path)])
        text = path.read_text()
        return {"code": code, "report": text, "items": json.loads(text)["n_total"]}

    def check(self, i: int, out: dict, checks: Checks) -> None:
        report = json.loads(out["report"])
        checks.expect("exit_code", out["code"] == 0)
        checks.expect("records", report["n_total"] == self.N_RECORDS
                      and report["n_passed"] == self.N_RECORDS)
        checks.digest("report.json", out["report"].encode())


WORKLOADS = {w.name: w for w in (RadonGrid, Atoms, Volume, Verify)}
