"""Catalog of analytic Trkalian and probe fields in physical space.

All evaluators take Cartesian positions of shape (..., 3) and return complex
values of shape (..., 3) (or (...,) for scalars).  Cylindrical formulas are
converted to Cartesian inside the evaluators so that every public surface
speaks one coordinate convention.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import InitVar, dataclass, field

import numpy as np

from .core import as_direction, bessel_j, fd_field, plane_wave_sum
from .moses import frame_index_of, moses_frame

_INV_TWO_PI_32 = (2.0 * np.pi) ** -1.5


def _check_finite(**params) -> None:
    """ValueError naming the first parameter with a NaN or infinite entry."""
    for name, value in params.items():
        # cmath on a scalar is some ten times quicker than a numpy reduction
        if not (cmath.isfinite(value) if np.isscalar(value) else np.all(np.isfinite(value))):
            raise ValueError(f"{name} must be finite, got {value!r}")


@dataclass(frozen=True)
class SampledField:
    """A complex 3-vector field evaluated on demand.

    ``eigenvalue`` is the curl eigenvalue mu*nu when the field is Trkalian
    (certified by the finite-difference oracle in the test suite), else None.
    """

    name: str
    evaluator: object
    eigenvalue: float | None = None
    mu: int | None = None
    helicity: int | None = None

    def __call__(self, x) -> np.ndarray:
        return self.evaluator(np.asarray(x, dtype=float))


@dataclass(frozen=True)
class ScalarField:
    """A complex scalar field, optionally with analytic first/second derivatives."""

    name: str
    evaluator: object
    gradient: object = None
    hessian: object = None

    def __call__(self, x) -> np.ndarray:
        return self.evaluator(np.asarray(x, dtype=float))


# ---------------------------------------------------------------------------
# helicity modes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HelicityMode:
    """One atomic spherical curl-transform contribution: a plain row, checked
    by the :class:`ModeField` built from it.

    The duality sign mu selects the self-dual (+1) or anti-self-dual (-1)
    sector; admissible modes satisfy mu*lam*nu > 0, so the carrier wave is
    always exp(i |nu| kappa0 . x).
    """

    lam: int
    nu: float
    kappa0: np.ndarray
    amplitude: complex
    mu: int = 1
    g: float = 1.0


@dataclass(frozen=True, eq=False)
class ModeField:
    """Finite sum of helicity modes sharing (lam, nu, mu, g), built from
    :class:`HelicityMode` rows and checked once: mode j is row j of
    ``kappa0`` (n, 3) and ``amplitudes`` (n,), both read-only."""

    modes: InitVar[tuple]
    kappa0: np.ndarray = field(init=False)
    amplitudes: np.ndarray = field(init=False)
    lam: int = field(init=False)
    nu: float = field(init=False)
    mu: int = field(init=False)
    g: float = field(init=False)

    def __post_init__(self, modes):
        modes = tuple(modes)
        if not modes:
            raise ValueError("need at least one mode")
        m0 = modes[0]
        shared = (m0.lam, m0.nu, m0.mu, m0.g)
        if {(m.lam, m.nu, m.mu, m.g) for m in modes} != {shared}:
            raise ValueError("all modes must share (lam, nu, mu, g)")
        lam, nu, mu, g = shared
        _check_finite(nu=nu, g=g)
        if lam not in (1, -1):
            raise ValueError("helicity lam must be +1 or -1")
        if mu not in (1, -1):
            raise ValueError("duality sign mu must be +1 or -1")
        if nu == 0.0:
            raise ValueError("eigenvalue nu must be nonzero")
        if g <= 0.0:
            raise ValueError("coupling g must be positive")
        if mu * lam * nu <= 0.0:
            raise ValueError("support condition mu*lam*nu > 0 violated")
        amplitudes = np.array([m.amplitude for m in modes], dtype=complex)
        _check_finite(amplitude=amplitudes)
        kappa0 = as_direction(np.array([m.kappa0 for m in modes], dtype=float))
        if kappa0.shape != (len(modes), 3) or amplitudes.shape != (len(modes),):
            raise ValueError("each mode needs one 3-vector kappa0 and one scalar amplitude")
        kappa0.flags.writeable = amplitudes.flags.writeable = False
        for name, value in zip(("kappa0", "amplitudes", "lam", "nu", "mu", "g"),
                               (kappa0, amplitudes) + shared):
            object.__setattr__(self, name, value)


def eval_mode_field(f: ModeField, x) -> np.ndarray:
    """Evaluate the mode sum (2 pi)^{-3/2} (1/g) sum_j s_j e^{i mu lam nu k_j . x} Q_lam(k_j)."""
    waves = f.amplitudes[:, None] * moses_frame(f.kappa0, frame_index_of(f.lam))
    tones = np.full(len(f.amplitudes), f.mu * f.lam * f.nu)
    return _INV_TWO_PI_32 / f.g * plane_wave_sum(x, f.kappa0, tones, waves)


def mode_sampled_field(f: ModeField) -> SampledField:
    """Wrap a ModeField as a SampledField named "modes" with its curl
    eigenvalue recorded."""
    return SampledField(
        name="modes",
        evaluator=lambda x: eval_mode_field(f, x),
        eigenvalue=f.mu * f.nu,
        mu=f.mu,
    )


# ---------------------------------------------------------------------------
# Lundquist field and potential
# ---------------------------------------------------------------------------

def _jm_over_x(m: int, x) -> np.ndarray:
    """J_m(|x|)/|x| for m >= 1 (even in x, as J_m(x)/x is for odd m), stable
    at x = 0: below |x| = 1e-8 it is the leading series term
    |x|^(m-1) / (2^m m!), whose next term lies below rounding."""
    x = np.abs(np.asarray(x, dtype=float))
    small = x < 1e-8
    safe = np.where(small, 1.0, x)
    return np.where(small, x ** (m - 1) / (2.0**m * math.factorial(m)),
                    bessel_j(m, safe) / safe)


def lundquist(f0: float, nu: float) -> SampledField:
    """Axisymmetric cylindrical field F0 [J_1(nu r) e_theta + J_0(nu r) e_z].

    Curl eigenvalue nu (helicity +1); the on-axis value is F0 e_z.
    """
    _check_finite(f0=f0, nu=nu)
    if nu == 0.0:
        raise ValueError("nu must be nonzero")

    def evaluator(x):
        x = np.asarray(x, dtype=float)
        px, py = x[..., 0], x[..., 1]
        r = np.hypot(px, py)
        # J_1(nu r) e_theta = nu * J_1(nu r)/(nu r) * (-y, x, 0)
        ratio = _jm_over_x(1, nu * r)
        out = np.empty(x.shape, dtype=complex)
        out[..., 0] = -f0 * nu * ratio * py
        out[..., 1] = f0 * nu * ratio * px
        out[..., 2] = f0 * bessel_j(0, np.abs(nu) * r)
        return out

    return SampledField(
        name="lundquist",
        evaluator=evaluator,
        eigenvalue=nu,
        mu=1,
        helicity=1,
    )


def lundquist_potential(f0: float, nu: float) -> tuple[SampledField, np.ndarray]:
    """Vector potential A = (1/nu) F_L - (1/nu) F0 e_z and its curl defect.

    A satisfies curl A - nu A = F0 e_z; the constant defect F0 e_z is the
    second return value.  The gauge shift by (nu/g) e_z (from U = e^{i nu z},
    F0 = nu^2/g) removes it, restoring F = nu A'.
    """
    base = lundquist(f0, nu)
    shift = np.array([0.0, 0.0, f0 / nu], dtype=complex)

    def evaluator(x):
        return base(x) / nu - shift

    a = SampledField(
        name="lundquist_potential",
        evaluator=evaluator,
    )
    return a, np.array([0.0, 0.0, f0], dtype=complex)


# ---------------------------------------------------------------------------
# abc field
# ---------------------------------------------------------------------------

def abc_field(a: float, b: float, c: float, nu: float = 1.0) -> SampledField:
    """Three-mode axis-aligned Trkalian field (ABC type), curl eigenvalue nu."""
    _check_finite(a=a, b=b, c=c, nu=nu)
    if nu == 0.0:
        raise ValueError("nu must be nonzero")

    def evaluator(x):
        x = np.asarray(x, dtype=float)
        sx, cx = np.sin(nu * x[..., 0]), np.cos(nu * x[..., 0])
        sy, cy = np.sin(nu * x[..., 1]), np.cos(nu * x[..., 1])
        sz, cz = np.sin(nu * x[..., 2]), np.cos(nu * x[..., 2])
        out = np.empty(x.shape, dtype=complex)
        out[..., 0] = a * sz + c * cy
        out[..., 1] = b * sx + a * cz
        out[..., 2] = c * sy + b * cx
        return out

    return SampledField(
        name="abc",
        evaluator=evaluator,
        eigenvalue=nu,
        mu=1,
    )


# ---------------------------------------------------------------------------
# Chandrasekhar-Kendall constructions
# ---------------------------------------------------------------------------

def _scalar_gradient(psi: ScalarField, x: np.ndarray) -> np.ndarray:
    if psi.gradient is not None:
        return np.asarray(psi.gradient(x))
    return fd_field(psi.evaluator, "gradient")(x)


def ck_field(psi: ScalarField, omega, nu: float) -> SampledField:
    """Debye construction F = curl(psi w) + (1/nu) curl curl(psi w).

    ``psi`` must solve the scalar Helmholtz equation with constant nu^2
    (checked at sample points by the finite-difference Laplacian oracle);
    ``omega`` is a fixed 3-vector.  The result satisfies curl F = nu F.
    Analytic derivatives of psi are used when provided, otherwise the
    finite-difference oracle.
    """
    if nu == 0.0:
        raise ValueError("nu must be nonzero")
    w = np.asarray(omega, dtype=float)

    pts = np.random.default_rng(1742).uniform(-1.0, 1.0, size=(6, 3))
    lap = fd_field(psi.evaluator, "laplacian")(pts)
    val = psi(pts)
    if np.any(np.abs(lap + nu**2 * val) > 1e-6 * np.maximum(1.0, np.abs(val))):
        raise ValueError("psi does not satisfy the Helmholtz equation with this nu")

    use_analytic = psi.gradient is not None and psi.hessian is not None
    toroidal = ck_toroidal(psi, w).evaluator

    def evaluator(x):
        x = np.asarray(x, dtype=float)
        if use_analytic:
            hess = np.asarray(psi.hessian(x))
            poloidal = (hess @ w + nu**2 * psi(x)[..., None] * w) / nu
        else:
            poloidal = fd_field(toroidal, "curl")(x) / nu
        return toroidal(x) + poloidal

    return SampledField(
        name="ck",
        evaluator=evaluator,
        eigenvalue=nu,
        mu=1,
    )


def ck_toroidal(psi: ScalarField, omega) -> SampledField:
    """Toroidal part curl(psi w) alone; divergence-free by construction."""
    w = np.asarray(omega, dtype=float)

    def evaluator(x):
        x = np.asarray(x, dtype=float)
        return np.cross(_scalar_gradient(psi, x), w)

    return SampledField(name="ck_toroidal", evaluator=evaluator)


@dataclass(frozen=True)
class CKCircularParams:
    """Parameters of the circular cylindrical Debye solution.

    The Debye scalar is amplitude * J_m(nu r) e^{i(m theta - k z)}; the field
    eigenvalue is sigma = sqrt(nu^2 + k^2).
    """

    m: int
    k: float
    nu: float
    amplitude: float = 1.0

    def __post_init__(self):
        _check_finite(k=self.k, nu=self.nu, amplitude=self.amplitude)
        if self.m < 0 or int(self.m) != self.m:
            raise ValueError("m must be a non-negative integer")
        if self.nu <= 0.0:
            raise ValueError("radial wavenumber nu must be positive (sigma^2 - k^2 > 0)")

    @property
    def sigma(self) -> float:
        return float(np.hypot(self.nu, self.k))


def ck_circular(params: CKCircularParams) -> SampledField:
    """Circular cylindrical Debye field with curl eigenvalue sigma.

    Built from F = -[sigma curl(psi e_z) + curl curl(psi e_z)] with
    psi = J_m(nu r) e^{i(m theta - k z)}; derivatives taken analytically via
    Bessel recurrences.  For m = 0, k = 0 this is the F0 = -nu^2 Lundquist
    field.
    """
    m, k, nu, amp, sigma = params.m, params.k, params.nu, params.amplitude, params.sigma
    if sigma == 0.0:
        raise ValueError("sigma must be nonzero")

    def evaluator(x):
        x = np.asarray(x, dtype=float)
        px, py = x[..., 0], x[..., 1]
        r = np.hypot(px, py)
        theta = np.arctan2(py, px)
        z = x[..., 2]
        xr = nu * r
        jm = bessel_j(m, xr)
        if m == 0:
            dj = -bessel_j(1, xr)
        else:
            dj = 0.5 * (bessel_j(m - 1, xr) - bessel_j(m + 1, xr))
        psi = amp * jm
        dpsi = amp * nu * dj
        # psi(r) m/r, finite at the axis
        m_over_r = m * amp * nu * _jm_over_x(m, xr) if m > 0 else 0.0
        # cylindrical components, common factor e^{i(m theta - k z)}
        f_r = 1j * (k * dpsi - sigma * m_over_r)
        f_th = sigma * dpsi - k * m_over_r
        f_z = -nu**2 * psi
        phase = np.exp(1j * (m * theta - k * z))
        ct, st = np.cos(theta), np.sin(theta)
        out = np.empty(x.shape, dtype=complex)
        out[..., 0] = (f_r * ct - f_th * st) * phase
        out[..., 1] = (f_r * st + f_th * ct) * phase
        out[..., 2] = f_z * phase
        return out

    return SampledField(
        name="ck_circular",
        evaluator=evaluator,
        eigenvalue=sigma,
        mu=1,
    )


# ---------------------------------------------------------------------------
# gauge gradients and probe fields
# ---------------------------------------------------------------------------

def gauge_gradient_field(u: ScalarField) -> SampledField:
    """Curl-free field grad U (analytic when U carries a gradient, else fd)."""

    def evaluator(x):
        return _scalar_gradient(u, np.asarray(x, dtype=float)).astype(complex)

    return SampledField(name=f"grad_{u.name}", evaluator=evaluator)


def _gaussian_envelope(x, c: np.ndarray, width: float) -> np.ndarray:
    """exp(-|x - c|^2 / width^2) at points x (..., 3); the written-out square
    sum rounds like np.sum(d * d, axis=-1) without a length-3 reduction."""
    d = np.asarray(x, dtype=float) - c
    d0, d1, d2 = d[..., 0], d[..., 1], d[..., 2]
    return np.exp(-(d0 * d0 + d1 * d1 + d2 * d2) / width**2)


def gaussian_test_field(center, width: float, polarization) -> SampledField:
    """Schwartz-class probe P exp(-|x - c|^2 / width^2)."""
    c = np.asarray(center, dtype=float)
    pol = np.asarray(polarization, dtype=complex)
    if c.shape != (3,) or pol.shape != (3,):
        raise ValueError(f"center and polarization must be 3-vectors, not {c.shape}, {pol.shape}")
    _check_finite(center=c, width=width, polarization=pol)
    if width <= 0:
        raise ValueError("width must be positive")

    def evaluator(x):
        return _gaussian_envelope(x, c, width)[..., None] * pol

    return SampledField(
        name="gaussian",
        evaluator=evaluator,
    )


def gaussian_scalar(center=(0.0, 0.0, 0.0), width: float = 1.0) -> ScalarField:
    """Scalar Gaussian exp(-|x - c|^2 / width^2) with analytic derivatives."""
    if width <= 0:
        raise ValueError("width must be positive")
    c = np.asarray(center, dtype=float)

    def evaluator(x):
        return _gaussian_envelope(x, c, width)

    def gradient(x):
        d = np.asarray(x, dtype=float) - c
        return (-2.0 / width**2) * d * evaluator(x)[..., None]

    return ScalarField(
        name="gaussian_scalar",
        evaluator=evaluator,
        gradient=gradient,
    )


def plane_wave_scalar(wavevector) -> ScalarField:
    """Scalar e^{i q . x} with analytic gradient and Hessian."""
    q = np.asarray(wavevector, dtype=float)

    def evaluator(x):
        return np.exp(1j * (np.asarray(x, float) @ q))

    def gradient(x):
        return 1j * q * evaluator(x)[..., None]

    def hessian(x):
        return -np.multiply.outer(evaluator(x), np.outer(q, q))

    return ScalarField(
        name="plane_wave",
        evaluator=evaluator,
        gradient=gradient,
        hessian=hessian,
    )


def bessel_j0_scalar(nu: float, amplitude: complex = 1.0) -> ScalarField:
    """Scalar amplitude * J_0(nu r), a Helmholtz solution with constant nu^2."""

    def evaluator(x):
        x = np.asarray(x, dtype=float)
        r = np.hypot(x[..., 0], x[..., 1])
        return amplitude * bessel_j(0, np.abs(nu) * r)

    def gradient(x):
        x = np.asarray(x, dtype=float)
        r = np.hypot(x[..., 0], x[..., 1])
        # psi'(r)/r = -nu^2 J_1(nu r)/(nu r)
        coeff = -amplitude * nu**2 * _jm_over_x(1, nu * r)
        out = np.zeros(x.shape, dtype=complex)
        out[..., 0] = coeff * x[..., 0]
        out[..., 1] = coeff * x[..., 1]
        return out

    return ScalarField(
        name="bessel_j0",
        evaluator=evaluator,
        gradient=gradient,
    )


def certify_trkalian(f: SampledField, n_points: int = 10, rtol: float = 1e-6,
                     seed: int = 20260810) -> float:
    """Max relative curl-eigenvalue defect of a catalog field at random
    points of the cube [-1.5, 1.5]^3."""
    if f.eigenvalue is None:
        raise ValueError("field carries no eigenvalue to certify")
    x = np.random.default_rng(seed).uniform(-1.5, 1.5, size=(n_points, 3))
    curl = fd_field(f.evaluator, "curl")(x)
    val = f(x)
    defect = (np.linalg.norm(curl - f.eigenvalue * val, axis=-1)
              / np.maximum(np.linalg.norm(val, axis=-1), 1e-300))
    worst = float(np.max(defect, initial=0.0))
    if worst > rtol:
        raise AssertionError(f"Trkalian certification failed: defect {worst:.3e} > {rtol:.1e}")
    return worst
