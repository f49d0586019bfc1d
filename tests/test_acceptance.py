"""Acceptance suite: one test per release criterion, each at its stated
tolerance, printing a pass line with the measured residual."""

import json
import time
import warnings

import numpy as np
from click.testing import CliRunner

import trkalian as tk

RNG_SEED = 918273


def report(criterion: str, residual: float, tolerance: float) -> None:
    print(f"PASS {criterion}: residual {residual:.3e} within {tolerance:.1e}")


def random_directions(n, seed):
    rng = np.random.default_rng(seed)
    v = rng.normal(size=(n, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def random_mode_field(n, seed, nu=1.0, mu=1, g=1.0):
    rng = np.random.default_rng(seed)
    lam = mu if nu > 0 else -mu
    modes = []
    for _ in range(n):
        k = rng.normal(size=3)
        k /= np.linalg.norm(k)
        modes.append(tk.HelicityMode(lam=lam, nu=nu, kappa0=k,
                                     amplitude=complex(rng.normal(), rng.normal()),
                                     mu=mu, g=g))
    return tk.ModeField(modes=tuple(modes))


def test_criterion_01_frame_orthonormality_completeness():
    tol = 1e-12
    dirs = random_directions(10_000, RNG_SEED)
    qs = [tk.moses_frame(dirs, a) for a in (1, 2, 3)]
    worst = 0.0
    for ia in range(3):
        for ib in range(3):
            dot = np.einsum("nc,nc->n", np.conj(qs[ia]), qs[ib])
            target = 1.0 if ia == ib else 0.0
            worst = max(worst, float(np.max(np.abs(dot - target))))
    completeness = sum(q[..., :, None] * np.conj(q)[..., None, :] for q in qs)
    worst = max(worst, float(np.max(np.abs(completeness - np.eye(3)))))
    assert worst < tol
    report("criterion 1 (frame orthonormality and completeness)", worst, tol)


def test_criterion_02_eigenfunction_curl():
    tol = 1e-7
    rng = np.random.default_rng(RNG_SEED + 1)
    worst = 0.0
    for _ in range(100):
        x = rng.uniform(-2, 2, size=3)
        k = rng.normal(size=3)
        k *= rng.uniform(0.5, 2.0) / np.linalg.norm(k)
        a = rng.choice((1, 2))
        lam = 1 if a == 1 else -1
        fn = lambda y: tk.eigenfunction(y, k, a)
        curl = tk.fd_derivative_oracle(fn, x, "curl")
        val = fn(x)
        worst = max(worst, float(np.linalg.norm(curl - lam * np.linalg.norm(k) * val)
                                 / np.linalg.norm(val)))
    assert worst < tol
    report("criterion 2 (plane-wave curl eigenrelation)", worst, tol)


def test_criterion_03_trkalian_certification():
    tol = 1e-6
    catalog = [
        tk.lundquist(1.0, 1.0),
        tk.ck_circular(tk.CKCircularParams(m=0, k=0.0, nu=1.0)),
        tk.ck_circular(tk.CKCircularParams(m=1, k=0.5, nu=1.0)),
        tk.ck_circular(tk.CKCircularParams(m=2, k=-0.7, nu=1.3)),
        tk.abc_field(1.0, 0.6, 0.3, nu=1.0),
        tk.mode_sampled_field(random_mode_field(16, RNG_SEED + 2)),
        tk.mode_sampled_field(random_mode_field(16, RNG_SEED + 3, mu=-1)),
    ]
    worst = 0.0
    for f in catalog:
        worst = max(worst, tk.certify_trkalian(f, n_points=10, rtol=tol,
                                               seed=RNG_SEED + 4))
    assert worst < tol
    report("criterion 3 (catalog curl-eigenvalue certification)", worst, tol)


def test_criterion_04_ampere_law():
    tol = 1e-6
    f0, nu = 1.0, 1.0
    field = tk.lundquist(f0, nu)
    root = tk.bessel_j1_first_zero()
    assert abs(root - 3.8317059702) < 1e-9
    worst = 0.0
    for radius in (0.5, 1.0, root / nu):
        q, phi_s, phi_l = tk.ampere_fluxes(field, radius, nu)
        closed = 2 * np.pi * f0 * radius * tk.bessel_j(1, nu * radius)
        vals = [nu * q, phi_s, phi_l, closed]
        for i in range(4):
            for j in range(i + 1, 4):
                scale = max(1.0, abs(vals[i]), abs(vals[j]))
                worst = max(worst, abs(vals[i] - vals[j]) / scale)
    assert worst < tol
    q, phi_s, phi_l = tk.ampere_fluxes(field, root, nu)
    vanish = max(abs(q), abs(phi_s), abs(phi_l))
    assert vanish < 1e-9
    report("criterion 4 (flux triangle and vanishing at the Bessel zero)",
           max(worst, vanish), tol)


def test_criterion_05_radon_round_trip_and_hemisphere():
    tol = 1e-9
    rng = np.random.default_rng(RNG_SEED + 5)
    hemi = tk.canonical_hemisphere()
    worst = 0.0
    for n_modes, seed in ((1, 11), (3, 12), (16, 13)):
        mf = random_mode_field(n_modes, RNG_SEED + seed)
        profile = tk.radon_mode_analytic(mf)
        for _ in range(20):
            x = rng.uniform(-2, 2, size=3)
            rec = tk.inverse_radon(profile, x)
            ref = tk.eval_mode_field(mf, x)
            worst = max(worst, float(np.linalg.norm(rec - ref) / np.linalg.norm(ref)))
            on_h = tk.hemisphere_inverse(profile, hemi, x)
            on_hp = tk.hemisphere_inverse(profile, hemi.complement(), x)
            worst = max(worst, float(np.max(np.abs(on_h - on_hp)) / np.linalg.norm(ref)),
                        float(np.max(np.abs(on_h - rec)) / np.linalg.norm(ref)))
    assert worst < tol
    report("criterion 5 (round trip and hemisphere refinement)", worst, tol)


def test_criterion_06_transform_space_eigenrelation():
    atom_tol = 1e-12
    grid_tol = 1e-9
    worst_atoms = 0.0
    for mu in (1, -1):
        profile = tk.radon_mode_analytic(random_mode_field(4, RNG_SEED + 20, mu=mu))
        worst_atoms = max(worst_atoms, tk.gamma_cross_eigendefect(profile))
    worst_atoms = max(worst_atoms,
                      tk.gamma_cross_eigendefect(tk.lundquist_radon_profile(1.0, 1.0)))
    assert worst_atoms < atom_tol

    # commensurate grid realization with smooth direction density
    sphere = tk.sphere_quadrature(6, 8, antipodal=True)
    nu = 1.0
    n_p = 64
    p = 2 * np.pi * np.arange(n_p) / n_p
    rng = np.random.default_rng(RNG_SEED + 21)
    a = rng.normal(size=3)
    q_plus = tk.moses_frame(sphere.nodes, 1)
    q_minus = tk.moses_frame(-sphere.nodes, 1)
    samples = (np.exp(1j * nu * p)[:, None, None]
               * np.exp(sphere.nodes @ a)[None, :, None] * q_plus[None]
               + np.exp(-1j * nu * p)[:, None, None]
               * np.exp(-(sphere.nodes @ a))[None, :, None] * q_minus[None])
    grid = tk.GridProfile(p=p, sphere=sphere, samples=samples)
    out = tk.gamma_apply(grid, "cross")
    worst_grid = float(np.max(np.abs(out.samples - nu * grid.samples))
                       / np.max(np.abs(grid.samples)))
    assert worst_grid < grid_tol
    report("criterion 6 (transform-space curl eigenrelation)",
           max(worst_atoms, worst_grid), grid_tol)


def test_criterion_07_intertwining():
    tol = 1e-4
    start = time.time()
    plane = tk.PlaneQuadrature(half_width=8.0, n_per_axis=40)
    f = tk.gaussian_test_field((0.1, -0.2, 0.0), 1.0, (0.8, -0.3, 0.5))
    g = tk.gaussian_scalar((0.0, 0.2, 0.1), 1.0)
    rng = np.random.default_rng(RNG_SEED + 30)
    worst = 0.0
    kinds = ["curl", "curl", "curl", "curl", "div", "div", "div",
             "grad", "grad", "grad"]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for kind in kinds:
            k = rng.normal(size=3)
            k /= np.linalg.norm(k)
            p = rng.uniform(-1.0, 1.0)
            target = g if kind == "grad" else f
            worst = max(worst, tk.intertwining_check(target, k, p, kind, plane))
    elapsed = time.time() - start
    assert worst < tol
    assert elapsed < 300.0
    report("criterion 7 (derivative intertwining, "
           f"{elapsed:.1f}s)", worst, tol)


def test_criterion_08_composition_identities():
    atom_tol = 1e-10
    gauss_tol = 2e-2
    mf = random_mode_field(3, RNG_SEED + 40)
    profile = tk.radon_mode_analytic(mf)
    rng = np.random.default_rng(RNG_SEED + 41)
    worst_atoms = 0.0
    for _ in range(10):
        x = rng.uniform(-2, 2, size=3)
        lhs = tk.adjoint_radon(profile, x)
        rhs = 8 * np.pi**2 / mf.nu**2 * tk.eval_mode_field(mf, x)
        worst_atoms = max(worst_atoms,
                          float(np.linalg.norm(lhs - rhs) / np.linalg.norm(rhs)))
    assert worst_atoms < atom_tol

    f = tk.gaussian_test_field((0.0, 0.0, 0.0), 1.0, (1.0, 0.0, 0.5))
    sphere = tk.sphere_quadrature(8, 16, antipodal=True)
    plane = tk.PlaneQuadrature(half_width=8.0, n_per_axis=40)
    x = np.zeros(3)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        lhs = tk.adjoint_radon(
            lambda p, k: tk.radon_forward_numeric(f, p, k, plane), x, sphere)
        rhs = 8 * np.pi**2 * tk.riesz_potential(f, x, tk.ball_quadrature(9.0))
    worst_gauss = float(np.linalg.norm(lhs - rhs) / np.linalg.norm(rhs))
    assert worst_gauss < gauss_tol
    report("criterion 8 (double-transform composition identities)",
           max(worst_atoms, worst_gauss), gauss_tol)


def test_criterion_09_biot_savart():
    curl_tol = 1e-3
    eigen_tol = 1e-6

    def solenoidal(x):
        x = np.asarray(x, dtype=float)
        env = np.exp(-np.sum(x * x, axis=-1))
        out = np.empty(x.shape, dtype=complex)
        out[..., 0] = -2.0 * x[..., 1] * env
        out[..., 1] = 2.0 * x[..., 0] * env
        out[..., 2] = 0.0
        return out

    quad = tk.ball_quadrature(9.0, n_radial=32, n_polar=12, n_azimuth=24)

    def induced(pts):
        pts = np.asarray(pts, dtype=float)
        flat = pts.reshape(-1, 3)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            out = np.stack([tk.bs_integral(solenoidal, q, quad) for q in flat])
        return out.reshape(pts.shape[:-1] + (3,))

    x = np.array([0.4, 0.1, -0.3])
    curl = tk.fd_derivative_oracle(induced, x, "curl", h=2e-2)
    val = solenoidal(x)
    worst_curl = float(np.linalg.norm(curl - val) / np.linalg.norm(val))
    assert worst_curl < curl_tol

    f0, nu = 1.0, 1.0
    field = tk.lundquist(f0, nu)
    worst_eigen = 0.0
    for x_over in (0.5, 2.0, 5.0):
        radius = x_over / nu
        theta = 0.9
        got = tk.bs_lundquist_semianalytic(f0, nu, radius, theta)
        pos = np.array([radius * np.cos(theta), radius * np.sin(theta), 0.0])
        ref = field(pos).real / nu
        worst_eigen = max(worst_eigen,
                          float(np.linalg.norm(got - ref) / np.linalg.norm(ref)))
    assert worst_eigen < eigen_tol

    report("criterion 9 (induced-field inversion and cylindrical eigenrelation)",
           max(worst_curl, worst_eigen), curl_tol)


def test_criterion_10_rbs_operator():
    atom_tol = 1e-12
    grid_tol = 1e-9
    worst_atoms = tk.rbs_eigendefect(
        tk.radon_mode_analytic(random_mode_field(3, RNG_SEED + 50)))
    worst_atoms = max(worst_atoms,
                      tk.rbs_eigendefect(tk.lundquist_radon_profile(1.0, 1.0)))
    assert worst_atoms < atom_tol

    k0 = random_directions(1, RNG_SEED + 51)[0]
    gauge = tk.AnalyticProfile.from_atoms(
        (tk.gauge_atom(k0, 1.0, 1.5 - 0.5j), tk.gauge_atom(-k0, -1.0, 1.5 - 0.5j)),
        nu=1.0)
    kernel_defect = max(float(np.max(np.abs(a.amplitude)))
                        for a in tk.rbs_apply(gauge).atoms)
    assert kernel_defect < atom_tol

    sphere = tk.sphere_quadrature(4, 8, antipodal=True)
    rng = np.random.default_rng(RNG_SEED + 52)
    n_p = 64
    p = 2 * np.pi * np.arange(n_p) / n_p
    samples = np.zeros((n_p, sphere.n, 3), dtype=complex)
    for m in (1, 3):
        c = rng.normal(size=(sphere.n, 3)) + 1j * rng.normal(size=(sphere.n, 3))
        c -= np.einsum("jk,jk->j", sphere.nodes, c)[:, None] * sphere.nodes
        samples += np.exp(1j * m * p)[:, None, None] * c
    grid = tk.GridProfile(p=p, sphere=sphere, samples=samples)
    worst_grid = tk.rbs_left_inverse_check(grid)
    back = tk.gamma_apply(tk.rbs_apply(grid), "cross")
    worst_grid = max(worst_grid, float(np.max(np.abs(back.samples - grid.samples))))
    assert worst_grid < grid_tol
    report("criterion 10 (RBS eigenrelation, kernel, left inverse)",
           max(worst_atoms, worst_grid), grid_tol)


def test_criterion_11_ck_transform_space():
    tol = 1e-7
    # Debye choice 1: single-mode profile (exact)
    lam, nu = 1, 1.0
    k0 = random_directions(1, RNG_SEED + 60)[0]
    coeff = (2 * np.pi) ** 2 / nu**3
    choice = tk.DebyeChoice(
        tones=(tk.ScalarTone(k0, lam * nu, coeff), tk.ScalarTone(-k0, -lam * nu, coeff)),
        omega=tk.moses_frame(k0, 1),
        nu=nu)
    sol = tk.ck_transform_solution(choice, include_poloidal=False)
    target = tk.radon_mode_analytic(
        tk.ModeField(modes=(tk.HelicityMode(lam, nu, k0, (2 * np.pi) ** 1.5),)))
    worst = 0.0
    for a in sol.atoms:
        ref = [b for b in target.atoms
               if np.linalg.norm(b.direction - a.direction) < 1e-12
               and abs(b.frequency - a.frequency) < 1e-12][0]
        worst = max(worst, float(np.max(np.abs(a.amplitude - ref.amplitude))))

    # Debye choice 2: cylindrical ring profile (exact, tone pair per node)
    f0 = 1.0
    n_ring = 16
    ring_target = tk.lundquist_radon_profile(f0, nu, n_ring=n_ring)
    w = 2 * np.pi / n_ring
    ring_coeff = 2 * np.pi * 1j * f0 / nu**3
    for j in range(n_ring):
        psi = 2 * np.pi * j / n_ring
        k = np.array([np.cos(psi), np.sin(psi), 0.0])
        ell = np.array([np.sin(psi), -np.cos(psi), -1j])
        ellp = np.array([-np.sin(psi), np.cos(psi), -1j])
        for freq, omega in ((nu, ell), (-nu, ellp)):
            c2 = tk.DebyeChoice(tones=(tk.ScalarTone(k, freq, ring_coeff, weight=w),),
                                omega=omega, nu=nu)
            s2 = tk.ck_transform_solution(c2, include_poloidal=False)
            ref = [b for b in ring_target.atoms
                   if np.linalg.norm(b.direction - k) < 1e-12
                   and abs(b.frequency - freq) < 1e-12][0]
            worst = max(worst, float(np.max(np.abs(s2.atoms[0].amplitude - ref.amplitude))))

    # Debye choice 3: abc reconstruction with certified eigenvalue
    omega1, omega2 = tk.abc_omega_atoms(1.0, 1.0, 1.0, lam, nu)
    ref_field = tk.abc_field(1.0, 1.0, 1.0, nu=nu)
    evaluator = lambda y: tk.reconstruct_physical(omega1, omega2, lam, nu, y)
    rng = np.random.default_rng(RNG_SEED + 61)
    for _ in range(5):
        x = rng.uniform(-2, 2, size=3)
        rec = evaluator(x)
        worst = max(worst, float(np.max(np.abs(rec.real - ref_field(x).real))))
        curl = tk.fd_derivative_oracle(evaluator, x, "curl")
        worst = max(worst, float(np.linalg.norm(curl - lam * nu * rec)
                                 / np.linalg.norm(rec)))
    assert worst < tol
    report("criterion 11 (transform-space Debye constructions)", worst, tol)


def test_criterion_12_duality():
    atom_tol = 1e-12
    point_tol = 1e-9
    profile = tk.radon_mode_analytic(random_mode_field(3, RNG_SEED + 70))
    mapped = tk.antipodal_profile(profile)
    worst = 0.0
    for a, b in zip(profile.atoms, mapped.atoms):
        worst = max(worst, float(np.max(np.abs(b.direction + a.direction))),
                    float(np.max(np.abs(b.amplitude - a.amplitude))))
    curl = tk.gamma_apply(mapped, "cross")
    for a, b in zip(mapped.atoms, curl.atoms):
        worst = max(worst, float(np.max(np.abs(b.amplitude + profile.nu * a.amplitude))))
    assert worst < atom_tol

    g = 1.0
    nu = 2.0
    f0 = nu**2 / g
    field = tk.lundquist(f0, nu)
    a_pot, residual = tk.lundquist_potential(f0, nu)
    assert np.allclose(residual, [0, 0, f0])
    shift = np.array([0.0, 0.0, nu / g], dtype=complex)
    rng = np.random.default_rng(RNG_SEED + 71)
    worst_fix = 0.0
    for _ in range(10):
        x = rng.uniform(-2, 2, size=3)
        worst_fix = max(worst_fix,
                        float(np.linalg.norm(field(x) - nu * (a_pot(x) + shift))
                              / np.linalg.norm(field(x))))
    assert worst_fix < point_tol

    ell = 2 * np.pi / g**2
    worst_period = 0.0
    for n in (1, 2, 7):
        nu_n = n * g**2
        z = 0.37
        worst_period = max(worst_period,
                           abs(np.exp(1j * nu_n * (z + ell)) - np.exp(1j * nu_n * z)))
    assert worst_period < 1e-12
    report("criterion 12 (duality maps and mass quantization)",
           max(worst, worst_fix, worst_period), point_tol)


def test_criterion_13_verify_determinism(tmp_path):
    runner = CliRunner()
    blobs = []
    for name in ("r1.json", "r2.json"):
        path = tmp_path / name
        result = runner.invoke(main_cli(), ["verify", "--out", str(path)])
        assert result.exit_code == 0, result.output
        blobs.append(path.read_bytes())
    assert blobs[0] == blobs[1]
    report("criterion 13 (byte-identical verification reports)", 0.0, 1.0)


def main_cli():
    from trkalian.cli import main
    return main
