"""Catalog of analytic Trkalian and probe fields in physical space.

All evaluators take Cartesian positions of shape (..., 3) and return complex
values of shape (..., 3) (or (...,) for scalars).  Cylindrical formulas are
converted to Cartesian inside the evaluators so that every public surface
speaks one coordinate convention.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, field

import numpy as np

from .core import (_check_3vector, _check_finite, _finite_points, as_direction, bessel_j,
                   cross, fd_field, plane_wave_sum)
from .moses import _INV_TWO_PI_32, frame_index_of, moses_frame


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
    """A complex scalar field, optionally with its analytic gradient."""

    name: str
    evaluator: object
    gradient: object = None

    def __call__(self, x) -> np.ndarray:
        return self.evaluator(np.asarray(x, dtype=float))


# ---------------------------------------------------------------------------
# helicity modes
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
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
        _check_finite("nonzero", nu=nu)
        _check_finite("positive", g=g)
        if lam not in (1, -1):
            raise ValueError("helicity lam must be +1 or -1")
        if mu not in (1, -1):
            raise ValueError("duality sign mu must be +1 or -1")
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

def _jm_over_x(m: int, x, jm=None) -> np.ndarray:
    """J_m(|x|)/|x| for m >= 1 (even in x, as J_m(x)/x is for odd m), stable
    at x = 0: below |x| = 1e-8 it is the leading series term
    |x|^(m-1) / (2^m m!), whose next term lies below rounding.  ``jm``, when
    given, holds J_m(|x|) already evaluated."""
    x = np.abs(np.asarray(x, dtype=float))
    small = x < 1e-8
    safe = np.where(small, 1.0, x)
    return np.where(small, x ** (m - 1) / (2.0**m * math.factorial(m)),
                    (bessel_j(m, safe) if jm is None else jm) / safe)


def lundquist(f0: float, nu: float) -> SampledField:
    """Axisymmetric cylindrical field F0 [J_1(nu r) e_theta + J_0(nu r) e_z].

    Curl eigenvalue nu (helicity +1); the on-axis value is F0 e_z.
    """
    _check_finite(f0=f0)
    _check_finite("nonzero", nu=nu)

    def evaluator(x):
        x = _finite_points(x)
        px, py = x[..., 0], x[..., 1]
        r = np.hypot(px, py)
        # J_1(nu r) e_theta = nu * J_1(nu r)/(nu r) * (-y, x, 0)
        ratio = _jm_over_x(1, nu * r)
        out = np.zeros(r.shape + (6,))  # the reals: no complex strided assignment
        np.multiply(np.multiply(-f0 * nu, ratio), py, out=out[..., 0])
        np.multiply(np.multiply(f0 * nu, ratio, out=ratio), px, out=out[..., 2])
        np.multiply(f0, bessel_j(0, np.abs(nu) * r), out=out[..., 4])
        return out.view(complex)

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
    _check_finite(a=a, b=b, c=c)
    _check_finite("nonzero", nu=nu)

    def evaluator(x):
        x = _finite_points(x)
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

def ck_field(psi: ScalarField, omega, nu: float) -> SampledField:
    """Debye construction F = curl(psi w) + (1/nu) curl curl(psi w).

    ``psi`` must solve the scalar Helmholtz equation with constant nu^2
    (checked at sample points by the finite-difference Laplacian oracle);
    ``omega`` is a fixed 3-vector.  The result satisfies curl F = nu F.
    The gradient of psi is analytic when psi carries one, otherwise from
    finite differences; the poloidal curl is always the finite-difference
    curl.  Raises ValueError, before psi is evaluated, unless nu is finite
    and nonzero and omega a finite 3-vector.
    """
    _check_finite("nonzero", nu=nu)
    w = _check_3vector("omega", omega)
    toroidal = ck_toroidal(psi, w).evaluator

    pts = np.random.default_rng(1742).uniform(-1.0, 1.0, size=(6, 3))
    lap = fd_field(psi.evaluator, "laplacian")(pts)
    val = psi(pts)
    if np.any(np.abs(lap + nu**2 * val) > 1e-6 * np.maximum(1.0, np.abs(val))):
        raise ValueError("psi does not satisfy the Helmholtz equation with this nu")

    def evaluator(x):
        x = np.asarray(x, dtype=float)
        poloidal = fd_field(toroidal, "curl")(x) / nu  # first: fd_field names bad points
        return toroidal(x) + poloidal

    return SampledField(
        name="ck",
        evaluator=evaluator,
        eigenvalue=nu,
        mu=1,
    )


def ck_toroidal(psi: ScalarField, omega) -> SampledField:
    """Toroidal part curl(psi w) alone; divergence-free by construction.
    ValueError unless omega is a finite 3-vector."""
    w = _check_3vector("omega", omega)
    gradient = psi.gradient or fd_field(psi.evaluator, "gradient")

    def evaluator(x):
        return cross(np.asarray(gradient(np.asarray(x, dtype=float))), w)

    return SampledField(name="ck_toroidal", evaluator=evaluator)


def ck_circular(m: int, k: float, nu: float, amplitude: float = 1.0) -> SampledField:
    """Circular cylindrical Debye field with curl eigenvalue sigma = sqrt(nu^2 + k^2).

    Built from F = -[sigma curl(psi e_z) + curl curl(psi e_z)] with
    psi = amplitude J_m(nu r) e^{i(m theta - k z)}; derivatives taken
    analytically via Bessel recurrences.  For m = 0, k = 0 this is the
    F0 = -nu^2 Lundquist field.  ValueError unless m is a non-negative
    integer, k and the amplitude are finite and nu is finite and positive.
    """
    _check_finite(k=k, amplitude=amplitude)
    _check_finite("positive", nu=nu)  # the radial wavenumber: sigma^2 - k^2 > 0
    if m < 0 or int(m) != m:
        raise ValueError("m must be a non-negative integer")
    sigma = float(np.hypot(nu, k))

    def evaluator(x):
        x = _finite_points(x)
        px, py = x[..., 0], x[..., 1]
        r = np.hypot(px, py)
        theta = np.arctan2(py, px)
        z = x[..., 2]
        xr = nu * r
        jm = bessel_j(m, xr)
        if m == 0:
            dj, m_over_r = -bessel_j(1, xr), 0.0
        else:
            # J_m' = J_{m-1} - m J_m/x, and psi(r) m/r, both finite at the axis
            jm_x = _jm_over_x(m, xr, jm)
            dj = bessel_j(m - 1, xr) - m * jm_x
            m_over_r = m * amplitude * nu * jm_x
        psi = amplitude * jm
        dpsi = amplitude * nu * dj
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
# probe fields
# ---------------------------------------------------------------------------

def _gaussian_envelope(x, c: np.ndarray, width: float) -> np.ndarray:
    """exp(-|x - c|^2 / width^2) at points x (..., 3), only read; the square sum
    is written out (it rounds like np.sum(d * d, axis=-1)) and runs in place."""
    x = np.asarray(x, dtype=float)
    s, t = np.empty(x.shape[:-1]), np.empty(x.shape[:-1])
    np.square(np.subtract(x[..., 0], c[0], out=s), out=s)
    for i in (1, 2):
        s += np.square(np.subtract(x[..., i], c[i], out=t), out=t)
    s /= -(width**2)  # IEEE division is sign-symmetric: bitwise -(s / width^2)
    return np.exp(s, out=s)[()]  # [()]: one point gives a scalar


def gaussian_test_field(center, width: float, polarization) -> SampledField:
    """Schwartz-class probe P exp(-|x - c|^2 / width^2): the
    :func:`gaussian_scalar` envelope, whose checks it shares, times P."""
    envelope = gaussian_scalar(center, width)
    pol = _check_3vector("polarization", polarization, complex)
    # the reals g p in one product: the bits of the slow (g + 0i) P wherever no g p is zero
    parts, zero = pol.view(float), pol.view(float) == 0
    smallest = 0.0 if np.signbit(parts[zero]).any() else np.abs(parts[~zero]).min(initial=1.0)

    def evaluator(x):
        g = envelope.evaluator(x)
        if np.min(g, initial=1.0) * smallest > 0:
            return np.einsum("...,j->...j", g, parts, order="C").view(complex)
        return g[..., None] * pol

    return SampledField(
        name="gaussian",
        evaluator=evaluator,
    )


def gaussian_scalar(center=(0.0, 0.0, 0.0), width: float = 1.0) -> ScalarField:
    """Scalar Gaussian exp(-|x - c|^2 / width^2); ValueError unless the
    centre is a finite 3-vector and the width finite and positive, with a
    square that neither underflows to 0 nor overflows."""
    c = _check_3vector("center", center)
    _check_finite("positive", width=width)
    # a square of 0 makes the envelope 0 / 0 at the centre, and width**2 of a
    # Python float raises OverflowError where width * width gives inf
    if not 0 < width * width < np.inf:
        raise ValueError(f"width must square to a positive finite float, got {width!r}")

    def evaluator(x):
        return _gaussian_envelope(x, c, width)

    return ScalarField(
        name="gaussian_scalar",
        evaluator=evaluator,
    )


def bessel_j0_scalar(nu: float) -> ScalarField:
    """Scalar J_0(nu r), a Helmholtz solution with constant nu^2; ValueError
    unless nu is finite."""
    _check_finite(nu=nu)

    def evaluator(x):
        x = _finite_points(x)
        r = np.hypot(x[..., 0], x[..., 1])
        return bessel_j(0, np.abs(nu) * r)

    def gradient(x):
        x = _finite_points(x)
        r = np.hypot(x[..., 0], x[..., 1])
        # psi'(r)/r = -nu^2 J_1(nu r)/(nu r)
        coeff = -nu**2 * _jm_over_x(1, nu * r)
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
    points of the cube [-1.5, 1.5]^3, n_points >= 1 of them."""
    if f.eigenvalue is None:
        raise ValueError("field carries no eigenvalue to certify")
    if not (isinstance(n_points, (int, np.integer)) and n_points >= 1):
        raise ValueError(f"n_points must be an integer >= 1, got {n_points!r}")
    x = np.random.default_rng(seed).uniform(-1.5, 1.5, size=(n_points, 3))
    curl = fd_field(f.evaluator, "curl")(x)
    val = f(x)
    defect = (np.linalg.norm(curl - f.eigenvalue * val, axis=-1)
              / np.maximum(np.linalg.norm(val, axis=-1), 1e-300))
    worst = float(np.max(defect, initial=0.0))
    if worst > rtol:
        raise AssertionError(f"Trkalian certification failed: defect {worst:.3e} > {rtol:.1e}")
    return worst
