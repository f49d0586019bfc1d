"""Built-in identity suite: one record per operator identity the toolkit
implements, each reporting a measured residual against its tolerance.

The suite is deterministic (fixed seeds, fixed summation order) so repeated
runs produce byte-identical reports.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import biotsavart as bs
from . import cktransform as ckt
from . import fields, moses, radon
from . import rbs as rbs_mod
from .core import (PlaneQuadrature, bessel_j, bessel_j1_first_zero,
                   fd_derivative_oracle, sphere_quadrature)

SEED = 20260810


@dataclass(frozen=True)
class CheckRecord:
    name: str
    description: str
    residual: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.residual <= self.tolerance


_CHECKS: list[tuple[str, str, float, object]] = []


def _register(name: str, description: str, tol: float):
    def deco(fn):
        _CHECKS.append((name, description, tol, fn))
        return fn
    return deco


def _random_directions(n: int, seed: int = SEED) -> np.ndarray:
    rng = np.random.default_rng(seed)
    v = rng.normal(size=(n, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def _mode_field(n_modes: int = 3, seed: int = SEED, nu: float = 1.0,
                mu: int = 1, g: float = 1.0) -> fields.ModeField:
    rng = np.random.default_rng(seed)
    lam = mu if nu > 0 else -mu
    modes = []
    for _ in range(n_modes):
        k = rng.normal(size=3)
        k /= np.linalg.norm(k)
        amp = complex(rng.normal(), rng.normal())
        modes.append(fields.HelicityMode(lam=lam, nu=nu, kappa0=k, amplitude=amp, mu=mu, g=g))
    return fields.ModeField(modes=tuple(modes))


def _smooth_grid_profile(n_p: int = 64, nu: float = 1.0, seed: int = SEED) -> radon.GridProfile:
    """Transform of a smooth helicity superposition, sampled per direction."""
    sphere = sphere_quadrature(6, 8, antipodal=True)
    rng = np.random.default_rng(seed)
    a = rng.normal(size=3)
    period = 2.0 * np.pi / abs(nu)
    p = period * np.arange(n_p) / n_p
    nodes = sphere.nodes
    q = moses.moses_frame(nodes, 1)
    q_anti = moses.moses_frame(-nodes, 1)
    s_plus = np.exp(nodes @ a)
    s_minus = np.exp(-(nodes @ a))
    tone_p = np.exp(1j * nu * p)[:, None, None]
    tone_m = np.exp(-1j * nu * p)[:, None, None]
    samples = tone_p * (s_plus[None, :, None] * q[None, :, :]) \
        + tone_m * (s_minus[None, :, None] * q_anti[None, :, :])
    return radon.GridProfile(p=p, sphere=sphere, samples=samples)


# ---------------------------------------------------------------------------
# frame identities
# ---------------------------------------------------------------------------

@_register("frame_orthonormality", "Hermitian orthonormality of the helicity triad", 1e-12)
def _check_orthonormality() -> float:
    dirs = _random_directions(2000)
    q = np.stack([moses.moses_frame(dirs, a) for a in (1, 2, 3)])
    gram = np.einsum("anc,bnc->abn", np.conj(q), q)
    return float(np.max(np.abs(gram - np.eye(3)[:, :, None])))


@_register("frame_completeness", "Triad completeness sum equals the identity", 1e-12)
def _check_completeness() -> float:
    dirs = _random_directions(2000, seed=SEED + 1)
    total = moses.frame_completeness(dirs)
    return float(np.max(np.abs(total - np.eye(3))))


@_register("frame_metric", "Pairing-matrix contraction reproduces the metric", 1e-12)
def _check_metric() -> float:
    dirs = _random_directions(500, seed=SEED + 2)
    total = moses.frame_metric(dirs)
    return float(np.max(np.abs(total - np.eye(3))))


@_register("frame_cross", "kappa x Q = -i lambda Q for transverse members", 1e-12)
def _check_cross() -> float:
    dirs = _random_directions(500, seed=SEED + 3)
    worst = 0.0
    for a, lam in ((1, 1), (2, -1)):
        q = moses.moses_frame(dirs, a)
        worst = max(worst, float(np.max(np.abs(np.cross(dirs, q) + 1j * lam * q))))
    return worst


@_register("frame_antipodal", "Antipodal phase relation across the frame", 1e-12)
def _check_antipodal() -> float:
    dirs = _random_directions(500, seed=SEED + 4)
    worst = 0.0
    for a, lam in ((1, 1), (2, -1)):
        phase = moses.frame_antipodal_phase(dirs, lam)
        lhs = moses.moses_frame(-dirs, a)
        rhs = phase[:, None] * np.conj(moses.moses_frame(dirs, a))
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    return worst


@_register("eigenfunction_curl", "Plane-wave eigenfunctions diagonalize the curl", 1e-7)
def _check_eigenfunction() -> float:
    rng = np.random.default_rng(SEED + 5)
    worst = 0.0
    for _ in range(20):
        x = rng.uniform(-1, 1, size=3)
        k = rng.normal(size=3)
        k *= rng.uniform(0.5, 2.0) / np.linalg.norm(k)
        for a, lam in ((1, 1), (2, -1)):
            fn = lambda y: moses.eigenfunction(y, k, a)
            curl = fd_derivative_oracle(fn, x, "curl")
            val = fn(x)
            worst = max(worst, float(np.linalg.norm(curl - lam * np.linalg.norm(k) * val)
                                     / np.linalg.norm(val)))
    return worst


# ---------------------------------------------------------------------------
# quadrature and special functions
# ---------------------------------------------------------------------------

@_register("sphere_weight_sum", "Sphere weights sum to the full solid angle", 1e-10)
def _check_weight_sum() -> float:
    quad = sphere_quadrature(8, 16, antipodal=True)
    return float(abs(np.sum(quad.weights) - 4.0 * np.pi))


@_register("sphere_second_moment", "Second moment of kappa_z over the sphere", 1e-12)
def _check_second_moment() -> float:
    quad = sphere_quadrature(8, 16)
    val = np.sum(quad.weights * quad.nodes[:, 2] ** 2)
    return float(abs(val - 4.0 * np.pi / 3.0))


@_register("bessel_recurrence", "Three-term recurrence of the Bessel functions", 1e-10)
def _check_bessel() -> float:
    x = np.linspace(0.5, 20.0, 79)
    worst = 0.0
    for m in range(1, 6):
        res = bessel_j(m - 1, x) + bessel_j(m + 1, x) - (2.0 * m / x) * bessel_j(m, x)
        worst = max(worst, float(np.max(np.abs(res))))
    return worst


# ---------------------------------------------------------------------------
# catalog fields
# ---------------------------------------------------------------------------

@_register("catalog_curl_eigen", "Catalog fields satisfy curl F = mu nu F", 1e-6)
def _check_catalog() -> float:
    catalog = [
        fields.lundquist(1.0, 1.0),
        fields.ck_circular(fields.CKCircularParams(m=0, k=0.0, nu=1.0)),
        fields.ck_circular(fields.CKCircularParams(m=1, k=0.5, nu=1.0)),
        fields.ck_circular(fields.CKCircularParams(m=2, k=-0.7, nu=1.3)),
        fields.abc_field(1.0, 0.7, 0.4, nu=1.0),
        fields.mode_sampled_field(_mode_field(16, seed=SEED + 6)),
        fields.mode_sampled_field(_mode_field(4, seed=SEED + 7, nu=1.0, mu=-1)),
    ]
    worst = 0.0
    for f in catalog:
        worst = max(worst, fields.certify_trkalian(f, n_points=6, rtol=1e-6, seed=SEED + 8))
    return worst


@_register("ampere_lundquist", "Flux triangle of the cylindrical field", 1e-6)
def _check_ampere() -> float:
    f = fields.lundquist(1.0, 1.0)
    worst = 0.0
    for radius in (0.5, 1.0):
        q, phi_s, phi_l = bs.ampere_fluxes(f, radius, 1.0)
        closed = 2.0 * np.pi * radius * bessel_j(1, radius)
        vals = np.array([phi_s.real, phi_l.real, (1.0 * q).real, closed])
        scale = np.maximum(1.0, np.abs(vals))
        worst = max(worst, np.max(np.abs(vals[:, None] - vals) / np.maximum(scale[:, None], scale)))
    return float(worst)


@_register("ampere_zero_radius", "Fluxes vanish at the first Bessel zero", 1e-9)
def _check_ampere_zero() -> float:
    f = fields.lundquist(1.0, 1.0)
    q, phi_s, phi_l = bs.ampere_fluxes(f, bessel_j1_first_zero(), 1.0)
    return float(max(abs(q), abs(phi_s), abs(phi_l)))


# ---------------------------------------------------------------------------
# Radon transforms
# ---------------------------------------------------------------------------

_PLANE = PlaneQuadrature(half_width=8.0, n_per_axis=40)


@_register("radon_gaussian", "Plane integral of the unit Gaussian", 1e-8)
def _check_radon_gaussian() -> float:
    g = fields.gaussian_scalar()
    p = 0.3
    val = radon.radon_forward_numeric(g, p, np.array([0.0, 0.0, 1.0]), _PLANE)
    target = np.pi * np.exp(-p * p)
    return float(abs(val - target) / target)


@_register("radon_parity", "Numeric transform parity in (p, kappa)", 1e-10)
def _check_radon_parity() -> float:
    f = fields.gaussian_test_field((0.2, -0.1, 0.3), 1.0, (1.0, 0.5j, -0.25))
    k = _random_directions(1, seed=SEED + 9)[0]
    a, b = radon.radon_forward_numeric(f, np.array([0.4, -0.4]), np.stack([k, -k]), _PLANE)
    return float(np.max(np.abs(a - b)))


@_register("mode_roundtrip", "Inverse transform of the analytic mode profile", 1e-9)
def _check_roundtrip() -> float:
    mf = _mode_field(3, seed=SEED + 10)
    profile = radon.radon_mode_analytic(mf)
    x = np.random.default_rng(SEED + 11).uniform(-2, 2, size=(5, 3))
    return _worst_relative(radon.inverse_radon(profile, x), fields.eval_mode_field(mf, x))


def _worst_relative(values, reference) -> float:
    """Max over points (rows) of |values - reference| / |reference|."""
    return float(np.max(np.linalg.norm(values - reference, axis=-1)
                        / np.linalg.norm(reference, axis=-1)))


@_register("hemisphere_refinement", "Hemisphere reconstructions agree on H and H'", 1e-12)
def _check_hemisphere() -> float:
    mf = _mode_field(3, seed=SEED + 12)
    profile = radon.radon_mode_analytic(mf)
    hemi = radon.canonical_hemisphere()
    x = np.random.default_rng(SEED + 13).uniform(-2, 2, size=(5, 3))
    on_h = radon.hemisphere_inverse(profile, hemi, x)
    on_hp = radon.hemisphere_inverse(profile, hemi.complement(), x)
    return float(max(np.max(np.abs(on_h - on_hp)),
                     np.max(np.abs(on_h - radon.inverse_radon(profile, x)))))


@_register("gamma_eigen_atoms", "Transform-space curl eigenrelation, atom-wise", 1e-12)
def _check_gamma_eigen_atoms() -> float:
    worst = radon.gamma_cross_eigendefect(radon.radon_mode_analytic(_mode_field(3, seed=SEED + 14)))
    worst = max(worst, radon.gamma_cross_eigendefect(radon.lundquist_radon_profile(1.0, 1.0)))
    asd = radon.radon_mode_analytic(_mode_field(2, seed=SEED + 15, mu=-1))
    return max(worst, radon.gamma_cross_eigendefect(asd))


@_register("gamma_eigen_grid", "Transform-space eigenrelation on a commensurate grid", 1e-9)
def _check_gamma_grid() -> float:
    grid = _smooth_grid_profile()
    out = radon.gamma_apply(grid, "cross")
    return float(np.max(np.abs(out.samples - grid.samples)) / np.max(np.abs(grid.samples)))


@_register("profile_transversality", "kappa . F^R = 0 for constant-curl profiles", 1e-12)
def _check_transversality() -> float:
    worst = radon.radon_mode_analytic(_mode_field(3, seed=SEED + 16)).transverse_defect()
    return max(worst, radon.lundquist_radon_profile(1.0, 1.0).transverse_defect())


@_register("gauge_normality", "Transform of a gradient field is normal to the sphere", 1e-10)
def _check_gauge_normality() -> float:
    u_profile = radon.scalar_wave_profile(_random_directions(1, seed=SEED + 17)[0], 1.3, 0.8 + 0.2j)
    grad_profile = radon.gamma_apply(u_profile, "grad")
    d, amps = grad_profile.directions, grad_profile.amplitudes
    tangential = amps - np.einsum("nk,nk->n", d, amps)[:, None] * d
    return float(np.max(np.abs(tangential)))


@_register("adjoint_eigen", "Double transform scales constant-curl fields by 8 pi^2 / nu^2", 1e-10)
def _check_adjoint_eigen() -> float:
    mf = _mode_field(3, seed=SEED + 18)
    profile = radon.radon_mode_analytic(mf)
    x = np.random.default_rng(SEED + 19).uniform(-2, 2, size=(5, 3))
    return _worst_relative(radon.adjoint_radon(profile, x),
                           8.0 * np.pi**2 / mf.nu**2 * fields.eval_mode_field(mf, x))


@_register("adjoint_riesz", "Double transform equals 8 pi^2 times the Riesz potential", 2e-2)
def _check_adjoint_riesz() -> float:
    f = fields.gaussian_test_field((0.0, 0.0, 0.0), 1.0, (1.0, 0.0, 0.5))
    sphere = sphere_quadrature(8, 16, antipodal=True)
    x = np.array([0.0, 0.0, 0.0])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        lhs = radon.adjoint_radon(
            lambda p, k: radon.radon_forward_numeric(f, p, k, _PLANE), x, sphere)
        rhs = 8.0 * np.pi**2 * bs.riesz_potential(f, x, bs.ball_quadrature(9.0))
    return float(np.linalg.norm(lhs - rhs) / np.linalg.norm(rhs))


@_register("spherical_curl_probe", "Helicity probe recovers mode amplitudes", 1e-12)
def _check_probe() -> float:
    amp = 1.3 - 0.4j
    k0 = _random_directions(1, seed=SEED + 20)[0]
    mf = fields.ModeField(modes=(fields.HelicityMode(1, 1.0, k0, amp),))
    profile = radon.radon_mode_analytic(mf)
    s1a, s2a = radon.spherical_curl_transform(profile, k0, p=0.0)
    s1b, s2b = radon.spherical_curl_transform(profile, k0, p=0.7)
    return float(max(abs(s1a - amp), abs(s1a - s1b), abs(s2a), abs(s2b)))


@_register("ring_probe", "Equatorial ring probe density of the cylindrical field", 1e-10)
def _check_ring_probe() -> float:
    f0, g = 1.0, 1.0
    profile = radon.lundquist_radon_profile(f0, 1.0, n_ring=16)
    worst = 0.0
    for j in range(16):
        psi = 2.0 * np.pi * j / 16
        k = np.array([np.cos(psi), np.sin(psi), 0.0])
        s1, s2 = radon.spherical_curl_transform(profile, k)
        target = -np.sqrt(2.0) * np.sqrt(2.0 * np.pi) * g * f0 * np.exp(-1j * psi)
        worst = max(worst, abs(s1 - target))
    return float(worst)


# ---------------------------------------------------------------------------
# Riesz / Biot-Savart
# ---------------------------------------------------------------------------

@_register("riesz_gaussian", "Riesz potential of the Gaussian against the radial oracle", 1e-4)
def _check_riesz() -> float:
    g = fields.gaussian_scalar()
    val = bs.riesz_potential(g, np.zeros(3), bs.ball_quadrature(9.0))
    r, w = np.polynomial.legendre.leggauss(128)
    r = 4.5 * (r + 1.0)
    w = 4.5 * w
    oracle = float(np.sum(w * np.exp(-r * r) * r))
    return float(abs(val - oracle) / abs(oracle))


@_register("riesz_left_inverse", "Negative Laplacian inverts the Riesz potential", 1e-3)
def _check_riesz_inverse() -> float:
    f = fields.gaussian_test_field((0.0, 0.0, 0.0), 1.0, (1.0, 0.0, 0.0))
    quad = bs.ball_quadrature(9.0, n_radial=32, n_polar=12, n_azimuth=24)
    x = np.array([0.3, -0.2, 0.1])
    lap = fd_derivative_oracle(lambda y: _volume_batch(bs.riesz_potential, f, y, quad), x,
                               "laplacian", h=2e-2)
    val = f(x)
    return float(np.linalg.norm(-lap - val) / np.linalg.norm(val))


def _volume_batch(integral, f, pts, quad):
    """``integral(f, x, quad)`` at each point of a batch, boundary warnings off."""
    pts = np.asarray(pts, dtype=float)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        out = np.stack([integral(f, p, quad) for p in pts.reshape(-1, 3)])
    return out.reshape(pts.shape[:-1] + (3,))


def _curl_of_gaussian_potential() -> fields.SampledField:
    """Divergence-free decaying probe: curl of a Gaussian vector potential."""

    def evaluator(x):
        x = np.asarray(x, dtype=float)
        env = np.exp(-np.sum(x * x, axis=-1))
        out = np.empty(x.shape, dtype=complex)
        out[..., 0] = -2.0 * x[..., 1] * env
        out[..., 1] = 2.0 * x[..., 0] * env
        out[..., 2] = 0.0
        return out

    return fields.SampledField(name="solenoidal_gaussian", evaluator=evaluator)


@_register("bs_curl_left_inverse", "Curl inverts the induced-field integral", 1e-3)
def _check_bs_inverse() -> float:
    f = _curl_of_gaussian_potential()
    quad = bs.ball_quadrature(9.0, n_radial=32, n_polar=12, n_azimuth=24)
    x = np.array([0.4, 0.1, -0.3])
    curl = fd_derivative_oracle(lambda y: _volume_batch(bs.bs_integral, f, y, quad), x,
                                "curl", h=2e-2)
    val = f(x)
    return float(np.linalg.norm(curl - val) / np.linalg.norm(val))


@_register("bs_divergence_free", "The induced-field integral is divergence-free", 1e-5)
def _check_bs_divergence() -> float:
    f = _curl_of_gaussian_potential()
    quad = bs.ball_quadrature(9.0, n_radial=32, n_polar=12, n_azimuth=24)
    x = np.array([0.2, -0.4, 0.3])
    div = fd_derivative_oracle(lambda y: _volume_batch(bs.bs_integral, f, y, quad), x,
                               "divergence", h=2e-2)
    return float(abs(div) / np.linalg.norm(f(x)))


@_register("bs_lundquist_eigen", "Semi-analytic induced field of the cylindrical solution", 1e-6)
def _check_bs_lundquist() -> float:
    f0, nu = 1.0, 1.0
    field = fields.lundquist(f0, nu)
    worst = 0.0
    for radius in (0.5, 2.0, 5.0):
        for theta in (0.0, np.pi / 3):
            val = bs.bs_lundquist_semianalytic(f0, nu, radius, theta)
            x = np.array([radius * np.cos(theta), radius * np.sin(theta), 0.0])
            ref = field(x).real / nu
            worst = max(worst, float(np.linalg.norm(val - ref) / np.linalg.norm(ref)))
    return worst


@_register("poisson_region_match", "Angular moments match across the region split", 1e-5)
def _check_poisson() -> float:
    return bs.poisson_region_match(1.7, 0.6)


# ---------------------------------------------------------------------------
# RBS operator
# ---------------------------------------------------------------------------

@_register("rbs_eigen_atoms", "RBS eigenrelation with reciprocal eigenvalue", 1e-12)
def _check_rbs_atoms() -> float:
    worst = rbs_mod.rbs_eigendefect(radon.radon_mode_analytic(_mode_field(3, seed=SEED + 21)))
    return max(worst, rbs_mod.rbs_eigendefect(radon.lundquist_radon_profile(1.0, 1.0)))


@_register("rbs_gauge_kernel", "Gauge profiles lie in the RBS kernel", 1e-12)
def _check_rbs_kernel() -> float:
    k0 = _random_directions(1, seed=SEED + 22)[0]
    gauge = radon.AnalyticProfile.from_atoms(
        (rbs_mod.gauge_atom(k0, 1.0, 2.0 - 1j), rbs_mod.gauge_atom(-k0, -1.0, 2.0 - 1j)),
        nu=1.0)
    return float(np.max(np.abs(rbs_mod.rbs_apply(gauge).amplitudes)))


@_register("rbs_left_inverse_grid", "RBS is a left inverse of Gamma x on transverse grids", 1e-9)
def _check_rbs_grid() -> float:
    return rbs_mod.rbs_left_inverse_check(_smooth_grid_profile(seed=SEED + 23))


@_register("fourier_slice", "Slice theorem for the Gaussian probe", 1e-4)
def _check_slice() -> float:
    f = fields.gaussian_test_field((0.0, 0.0, 0.0), 1.0, (1.0, 0.0, 0.0))
    k = _random_directions(1, seed=SEED + 24)[0]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return rbs_mod.fourier_slice_check(f, k, 1.0, _PLANE, n_p=96, n_box=40)


@_register("intertwining", "Numeric transform intertwines the vector derivatives", 1e-4)
def _check_intertwining() -> float:
    f = fields.gaussian_test_field((0.1, 0.0, -0.2), 1.0, (0.8, -0.3, 0.5))
    g = fields.gaussian_scalar((0.0, 0.2, 0.1), 1.0)
    k = _random_directions(2, seed=SEED + 25)
    worst = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        worst = max(worst, radon.intertwining_check(f, k[0], 0.3, "curl", _PLANE))
        worst = max(worst, radon.intertwining_check(f, k[1], -0.2, "div", _PLANE))
        worst = max(worst, radon.intertwining_check(g, k[1], 0.1, "grad", _PLANE))
    return worst


# ---------------------------------------------------------------------------
# transform-space Debye constructions
# ---------------------------------------------------------------------------

@_register("ck_transform_mode", "Debye tones reproduce the single-mode profile", 1e-12)
def _check_ck_mode() -> float:
    lam, nu = 1, 1.0
    k0 = _random_directions(1, seed=SEED + 26)[0]
    coeff = (2.0 * np.pi) ** 2 / nu**3
    choice = ckt.DebyeChoice(
        tones=(ckt.ScalarTone(k0, lam * nu, coeff), ckt.ScalarTone(-k0, -lam * nu, coeff)),
        omega=moses.moses_frame(k0, 1),
        nu=nu)
    sol = ckt.ck_transform_solution(choice, include_poloidal=False)
    mf = fields.ModeField(modes=(fields.HelicityMode(lam, nu, k0, (2.0 * np.pi) ** 1.5),))
    target = radon.radon_mode_analytic(mf)
    worst = _partner_distance(sol, target)
    curl_res, rbs_res = ckt.ck_transform_potential_check(choice)
    return max(worst, curl_res, rbs_res)


def _partner_distance(profile, target) -> float:
    """Max amplitude distance from each atom to its ``target`` atom (inf if missing)."""
    partner = target.index_of(profile.directions, profile.frequencies, tol=1e-12)
    if np.any(partner < 0):
        return np.inf
    return float(np.max(np.abs(profile.amplitudes - target.amplitudes[partner]), initial=0.0))


@_register("ck_transform_ring", "Debye tones reproduce the cylindrical ring profile", 1e-12)
def _check_ck_ring() -> float:
    f0, nu = 1.0, 1.0
    n_ring = 16
    target = radon.lundquist_radon_profile(f0, nu, n_ring=n_ring)
    w = 2.0 * np.pi / n_ring
    coeff = 2.0 * np.pi * 1j * f0 / nu**3
    psi = 2.0 * np.pi * np.arange(n_ring) / n_ring
    ring = np.stack([np.cos(psi), np.sin(psi), np.zeros(n_ring)], axis=1)
    worst = 0.0
    # the +nu tones carry L = (sin, -cos, -i), the -nu tones L' = (-sin, cos, -i)
    for sign in (1, -1):
        choice = ckt.DebyeChoice(
            tones=tuple(ckt.ScalarTone(k, sign * nu, coeff, weight=w) for k in ring),
            omega=lambda k, s=sign: np.array([s * k[1], -s * k[0], -1j]), nu=nu)
        sol = ckt.ck_transform_solution(choice, include_poloidal=False)
        worst = max(worst, _partner_distance(sol, target))
    return worst


@_register("ck_abc_reconstruction", "Integral representation reconstructs the abc field", 1e-7)
def _check_ck_abc() -> float:
    lam, nu = 1, 1.0
    omega1, omega2 = ckt.abc_omega_atoms(1.0, 1.0, 1.0, lam, nu)
    ref = fields.abc_field(1.0, 1.0, 1.0, nu=nu)
    rng = np.random.default_rng(SEED + 27)
    worst = 0.0
    evaluator = lambda y: ckt.reconstruct_physical(omega1, omega2, lam, nu, y)
    for _ in range(4):
        x = rng.uniform(-2, 2, size=3)
        rec = ckt.reconstruct_physical(omega1, omega2, lam, nu, x)
        worst = max(worst, float(np.max(np.abs(rec.real - ref(x).real))))
        curl = fd_derivative_oracle(evaluator, x, "curl")
        worst = max(worst, float(np.linalg.norm(curl - lam * nu * rec)
                                 / np.linalg.norm(rec)))
    return worst


@_register("oscillator_contour", "Loop quadrature agrees with the residue", 1e-12)
def _check_contour() -> float:
    worst = 0.0
    for p in (-5.0, 0.3, 5.0):
        for nu in (0.5, 1.0, 3.0):
            for branch in ("plus", "minus"):
                a = ckt.oscillator_residue(p, 1, nu, branch)
                b = ckt.oscillator_contour_numeric(p, 1, nu, branch)
                worst = max(worst, abs(a - b) / abs(a))
    return float(worst)


# ---------------------------------------------------------------------------
# duality
# ---------------------------------------------------------------------------

@_register("duality_antipodal", "Coordinate inversion acts as the antipodal map", 1e-15)
def _check_duality() -> float:
    profile = radon.radon_mode_analytic(_mode_field(3, seed=SEED + 28))
    mapped = radon.antipodal_profile(profile)
    return float(max(np.max(np.abs(mapped.directions + profile.directions)),
                     np.max(np.abs(mapped.amplitudes - profile.amplitudes)),
                     np.max(np.abs(mapped.frequencies - profile.frequencies))))


@_register("duality_eigen_flip", "Antipodal map flips the transform-space eigenvalue", 1e-12)
def _check_eigen_flip() -> float:
    profile = radon.radon_mode_analytic(_mode_field(3, seed=SEED + 29))
    mapped = radon.antipodal_profile(profile)
    return radon.gamma_apply(mapped, "cross").amplitude_distance(mapped, -profile.nu)


@_register("lundquist_gauge_fix", "Gauge-shifted potential restores self-duality", 1e-9)
def _check_gauge_fix() -> float:
    g = 1.0
    nu = 2.0
    f0 = nu**2 / g
    field = fields.lundquist(f0, nu)
    a_pot, _ = fields.lundquist_potential(f0, nu)
    shift = np.array([0.0, 0.0, nu / g], dtype=complex)
    x = np.random.default_rng(SEED + 30).uniform(-2, 2, size=(5, 3))
    return _worst_relative(nu * (a_pot(x) + shift), field(x))


@_register("mass_quantization", "Single-valued gauge function on the fundamental period", 1e-12)
def _check_quantization() -> float:
    g = 1.0
    ell = 2.0 * np.pi / g**2
    worst = 0.0
    for n in (1, 2, 5):
        nu = n * g**2
        z = 0.37
        u0 = np.exp(1j * nu * z)
        u1 = np.exp(1j * nu * (z + ell))
        worst = max(worst, abs(u1 - u0))
    return float(worst)


# ---------------------------------------------------------------------------
# runner
# ---------------------------------------------------------------------------

def available_checks() -> list[str]:
    return [name for name, _, _, _ in _CHECKS]


def select_checks(only: str | None = None, tolerances: dict | None = None) -> list:
    """The (name, description, tolerance, check) entries whose name contains
    ``only``, with the tolerance overrides applied.

    Raises ValueError, before any check runs, when nothing is selected, when
    an override names no selected record or when its value is not a number.
    """
    tolerances = tolerances or {}
    selected = [c for c in _CHECKS if only is None or only in c[0]]
    if not selected:
        raise ValueError(f"no verify record name contains {only!r}")
    unknown = sorted(set(tolerances) - {c[0] for c in selected})
    if unknown:
        raise ValueError(f"tolerance override names no selected record: {', '.join(unknown)}")
    return [(name, description, float(tolerances.get(name, tol)), fn)
            for name, description, tol, fn in selected]


def run_verify(only: str | None = None, tolerances: dict | None = None) -> dict:
    """Run the identity suite; returns the report dictionary."""
    records = [CheckRecord(name=name, description=description, residual=float(fn()),
                           tolerance=tol)
               for name, description, tol, fn in select_checks(only, tolerances)]
    return {
        "records": [
            {
                "name": r.name,
                "description": r.description,
                "residual": r.residual,
                "tolerance": r.tolerance,
                "passed": r.passed,
            }
            for r in records
        ],
        "n_total": len(records),
        "n_passed": int(sum(r.passed for r in records)),
        "all_passed": bool(all(r.passed for r in records)),
    }
