"""Radon transforms of vector fields and the transform-space Gamma calculus.

Two profile representations coexist.  Analytic profiles hold distributional
transforms of constant-curl fields as finite lists of atoms: a direction on
the sphere carrying a pure tone exp(i omega p) with a complex 3-vector
amplitude and a quadrature weight (1 for a point delta on the sphere,
2 pi / n for nodes discretizing a line delta such as the equatorial ring).
Grid profiles hold samples over a periodic p-grid times a sphere quadrature
and are used for Schwartz-class numerics; p-derivatives are spectral there.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .core import (PlaneQuadrature, SphereQuadrature, as_direction, fd_field,
                   plane_basis)
from .fields import ModeField
from .moses import frame_index_of, helicity_of, moses_frame

TRUNCATION_THRESHOLD = 1e-10


class TruncationWarning(UserWarning):
    """Field not negligible at the truncated plane boundary."""


# ---------------------------------------------------------------------------
# profile types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RadonAtom:
    """One tone exp(i frequency p) attached to a direction.

    ``weight`` is the solid-angle measure the atom carries when integrated
    over the sphere: 1 for a point delta, the node spacing for a discretized
    line delta.  Amplitude may be a complex 3-vector or a scalar (for
    transforms of scalar functions).
    """

    direction: np.ndarray
    frequency: float
    amplitude: np.ndarray
    weight: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "direction", as_direction(self.direction))
        object.__setattr__(self, "amplitude", np.asarray(self.amplitude, dtype=complex))
        if self.weight <= 0:
            raise ValueError("atom weight must be positive")

    @property
    def is_vector(self) -> bool:
        return self.amplitude.shape == (3,)


@dataclass(frozen=True)
class AnalyticProfile:
    """Finite atom sum representing a transform-space field exactly."""

    atoms: tuple
    nu: float
    mu: int = 1
    g: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "atoms", tuple(self.atoms))

    def transverse_defect(self) -> float:
        """Max |kappa . amplitude| over vector atoms (0 for Trkalian profiles)."""
        worst = 0.0
        for a in self.atoms:
            if a.is_vector:
                worst = max(worst, abs(np.dot(a.direction, a.amplitude)))
        return worst

    def parity_defect(self) -> float:
        """Max amplitude mismatch between an atom and its (-p, -kappa) partner."""
        worst = 0.0
        for a in self.atoms:
            partner = _find_atom(self.atoms, -a.direction, -a.frequency)
            if partner is None:
                return np.inf
            worst = max(worst, float(np.max(np.abs(a.amplitude - partner.amplitude))))
        return worst

    def atoms_at(self, kappa, tol: float = 1e-9) -> list:
        k = as_direction(kappa)
        return [a for a in self.atoms if np.linalg.norm(a.direction - k) < tol]

    def arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Stacked atom directions (n, 3), frequencies (n,) and amplitudes
        (n, 3) or (n,); a profile without atoms counts as a vector profile."""
        directions = np.array([a.direction for a in self.atoms]).reshape(-1, 3)
        frequencies = np.array([a.frequency for a in self.atoms], dtype=float)
        amplitudes = (np.array([a.amplitude for a in self.atoms]) if self.atoms
                      else np.zeros((0, 3), dtype=complex))
        return directions, frequencies, amplitudes

    def with_amplitudes(self, amplitudes) -> "AnalyticProfile":
        """The same atoms carrying new amplitudes, one row per atom."""
        return replace(self, atoms=tuple(replace(a, amplitude=amp)
                                         for a, amp in zip(self.atoms, amplitudes)))

    def amplitude_distance(self, other: "AnalyticProfile", scale: complex = 1.0) -> float:
        """Max atom-wise |amplitude - scale * other amplitude| over paired atoms."""
        if len(self.atoms) != len(other.atoms):
            raise ValueError("profiles pair atoms one to one")
        diff = self.arrays()[2] - scale * other.arrays()[2]
        return float(np.max(np.abs(diff), initial=0.0))


def _find_atom(atoms, direction, frequency, tol: float = 1e-9):
    for a in atoms:
        if (abs(a.frequency - frequency) < tol
                and np.linalg.norm(a.direction - direction) < tol):
            return a
    return None


@dataclass(frozen=True)
class GridProfile:
    """Samples over a uniform periodic p-grid times a sphere quadrature.

    ``samples`` has shape (n_p, n_dir, 3) for vector data or (n_p, n_dir)
    for scalar data.  n_p must be a power of two; the grid covers one period
    [p0, p0 + period).
    """

    p: np.ndarray
    sphere: SphereQuadrature
    samples: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.p, dtype=float)
        n = p.size
        if n < 2 or (n & (n - 1)) != 0:
            raise ValueError("p-grid size must be a power of two")
        dp = np.diff(p)
        if not np.allclose(dp, dp[0], rtol=0, atol=1e-12 * abs(dp[0])):
            raise ValueError("p-grid must be uniform")
        samples = np.asarray(self.samples, dtype=complex)
        if samples.shape[0] != n or samples.shape[1] != self.sphere.n:
            raise ValueError("samples must be shaped (n_p, n_dir[, 3])")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "samples", samples)

    @property
    def n_p(self) -> int:
        return self.p.size

    @property
    def dp(self) -> float:
        return float(self.p[1] - self.p[0])

    @property
    def period(self) -> float:
        return self.dp * self.n_p

    @property
    def is_vector(self) -> bool:
        return self.samples.ndim == 3

    def frequencies(self) -> np.ndarray:
        return 2.0 * np.pi * np.fft.fftfreq(self.n_p, d=self.dp)


# ---------------------------------------------------------------------------
# hemispheres
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Hemisphere:
    """Measurable half of the sphere holding one of each antipodal pair."""

    indicator: object
    name: str = "hemisphere"

    def contains(self, kappa) -> bool:
        return bool(self.indicator(as_direction(kappa)))

    def complement(self) -> "Hemisphere":
        ind = self.indicator
        return Hemisphere(indicator=lambda k: not ind(k), name=self.name + "'")

    def validate_on(self, quad: SphereQuadrature) -> None:
        """Check the one-of-each-pair property on an antipodal quadrature."""
        if not quad.antipodal or quad.antipode_index is None:
            raise ValueError("hemisphere validation needs an antipodal quadrature")
        for i, j in enumerate(quad.antipode_index):
            a = self.contains(quad.nodes[i])
            b = self.contains(quad.nodes[j])
            if a == b:
                raise ValueError(
                    f"indicator keeps {'both' if a else 'neither'} of an antipodal pair"
                )


def canonical_hemisphere() -> Hemisphere:
    """Lexicographic canonical hemisphere: first nonzero of (kz, kx, ky) positive."""

    def indicator(k):
        for c in (k[2], k[0], k[1]):
            if c > 0.0:
                return True
            if c < 0.0:
                return False
        return False

    return Hemisphere(indicator=indicator, name="lexicographic")


def cap_swapped_hemisphere(axis, cos_cap: float = 0.9) -> Hemisphere:
    """Disconnected canonical hemisphere: lexicographic with a swapped polar cap.

    Membership is flipped inside the antipodally symmetric double cap
    |kappa . axis| > cos_cap, which preserves the one-of-each-pair property.
    """
    base = canonical_hemisphere()
    ax = as_direction(axis)

    def indicator(k):
        inside = base.indicator(k)
        if abs(np.dot(k, ax)) > cos_cap:
            return not inside
        return inside

    return Hemisphere(indicator=indicator, name="cap-swapped")


# ---------------------------------------------------------------------------
# numeric forward transform
# ---------------------------------------------------------------------------

def radon_forward_numeric(fn, p: float, kappa, quad: PlaneQuadrature):
    """Plane integral of a rapidly decreasing field over the plane p = kappa . x.

    Warns (TruncationWarning) when the integrand at the truncation boundary
    exceeds 1e-10 of its maximum over the plane.  Scalar-valued callables
    yield scalars, vector-valued callables 3-vectors.
    """
    k = as_direction(kappa)
    e1, e2 = plane_basis(k)
    x1, w1 = quad.nodes_1d()
    pts = (p * k)[None, None, :] + x1[:, None, None] * e1 + x1[None, :, None] * e2
    vals = np.asarray(fn(pts.reshape(-1, 3)))
    n = quad.n_per_axis
    vals = vals.reshape((n, n) + vals.shape[1:])

    mag = np.abs(vals)
    if mag.ndim == 3:
        mag = mag.max(axis=-1)
    peak = mag.max()
    if peak > 0:
        edge = max(mag[0, :].max(), mag[-1, :].max(), mag[:, 0].max(), mag[:, -1].max())
        if edge > TRUNCATION_THRESHOLD * peak:
            warnings.warn(
                f"plane truncation boundary magnitude {edge:.2e} exceeds "
                f"{TRUNCATION_THRESHOLD:.0e} of the plane maximum {peak:.2e}",
                TruncationWarning,
                stacklevel=2,
            )

    w2d = w1[:, None] * w1[None, :]
    if vals.ndim == 3:
        return np.sum(w2d[..., None] * vals, axis=(0, 1))
    return np.sum(w2d * vals)


def radon_forward_grid(fn, p_grid, sphere: SphereQuadrature, quad: PlaneQuadrature) -> GridProfile:
    """Numeric transform sampled on a p-grid times a direction set."""
    p_grid = np.asarray(p_grid, dtype=float)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        samples = np.array([[radon_forward_numeric(fn, float(pv), k, quad) for k in sphere.nodes]
                            for pv in p_grid])  # (n_p, n_dir[, 3])
    return GridProfile(p=p_grid, sphere=sphere, samples=samples)


# ---------------------------------------------------------------------------
# analytic transforms of catalog fields
# ---------------------------------------------------------------------------

def radon_mode_analytic(f: ModeField) -> AnalyticProfile:
    """Exact transform of a mode field: one antipodal atom pair per mode.

    Each mode contributes atoms at mu*kappa0 (tone +lam*nu) and -mu*kappa0
    (tone -lam*nu) with the common amplitude
    (2 pi)^{1/2} / (g nu^2) * s * Q_lam(kappa0).
    """
    atoms = []
    for m in f.modes:
        q = moses_frame(m.kappa0, frame_index_of(m.lam))
        amp = np.sqrt(2.0 * np.pi) / (m.g * m.nu**2) * m.amplitude * q
        atoms.append(RadonAtom(m.mu * m.kappa0, m.lam * m.nu, amp))
        atoms.append(RadonAtom(-m.mu * m.kappa0, -m.lam * m.nu, amp))
    profile = AnalyticProfile(atoms=tuple(atoms), nu=f.nu, mu=f.mu, g=f.g)
    defect = profile.transverse_defect()
    if defect > 1e-12:
        raise AssertionError(f"mode profile not transverse: {defect:.3e}")
    return profile


def lundquist_radon_profile(f0: float, nu: float, n_ring: int = 64) -> AnalyticProfile:
    """Equatorial-ring transform of the Lundquist field.

    The kappa_z line delta is discretized on n_ring equally spaced azimuths,
    each node carrying ring weight 2 pi / n_ring and the two tone amplitudes
    2 pi i F0 / nu^2 * L(psi), L'(psi) with L = (sin, -cos, -i),
    L' = (-sin, cos, -i).
    """
    if nu == 0.0:
        raise ValueError("nu must be nonzero")
    if n_ring < 4 or n_ring % 2 != 0:
        raise ValueError("n_ring must be even and at least 4")
    coeff = 2.0 * np.pi * 1j * f0 / nu**2
    w = 2.0 * np.pi / n_ring
    atoms = []
    for j in range(n_ring):
        psi = 2.0 * np.pi * j / n_ring
        k = np.array([np.cos(psi), np.sin(psi), 0.0])
        ell = np.array([np.sin(psi), -np.cos(psi), -1j])
        ellp = np.array([-np.sin(psi), np.cos(psi), -1j])
        atoms.append(RadonAtom(k, nu, coeff * ell, weight=w))
        atoms.append(RadonAtom(k, -nu, coeff * ellp, weight=w))
    return AnalyticProfile(atoms=tuple(atoms), nu=nu, mu=1, g=1.0)


def scalar_wave_profile(kappa0, omega: float, coefficient: complex = 1.0) -> AnalyticProfile:
    """Transform of the scalar plane wave c e^{i omega kappa0 . x} (atom pair)."""
    k0 = as_direction(kappa0)
    amp = (2.0 * np.pi) ** 2 / omega**2 * complex(coefficient)
    atoms = (
        RadonAtom(k0, omega, np.asarray(amp)),
        RadonAtom(-k0, -omega, np.asarray(amp)),
    )
    return AnalyticProfile(atoms=atoms, nu=abs(omega), mu=1, g=1.0)


# ---------------------------------------------------------------------------
# Gamma operator
# ---------------------------------------------------------------------------

def kappa_product(kappa, values, kind: str) -> np.ndarray:
    """The kappa product of Gamma: kappa x v ("cross"), kappa . v ("dot") or
    v kappa ("grad").

    ``kappa`` (..., 3) broadcasts against ``values``, which are 3-vectors
    when they have as many axes as ``kappa`` and scalars otherwise.
    """
    if kind not in ("cross", "dot", "grad"):
        raise ValueError(f"unknown gamma kind {kind!r}")
    values = np.asarray(values)
    if (values.ndim == np.ndim(kappa)) != (kind != "grad"):
        need = "scalar" if kind == "grad" else "vector"
        raise ValueError(f"{kind} needs {need} amplitudes")
    if kind == "cross":
        return np.cross(kappa, values)
    if kind == "dot":
        return np.einsum("...k,...k->...", kappa, values)
    return values[..., None] * kappa


def _spectral_p_derivative(grid: GridProfile) -> np.ndarray:
    coeffs = np.fft.fft(grid.samples, axis=0)
    k = grid.frequencies()
    shape = (grid.n_p,) + (1,) * (grid.samples.ndim - 1)
    return np.fft.ifft(1j * k.reshape(shape) * coeffs, axis=0)


def gamma_apply(profile, kind: str):
    """Apply Gamma = kappa d/dp composed with the requested kappa product.

    Exact frequency multiplication on atoms; spectral differentiation on
    periodic grids.  ``kind`` is "cross", "dot" or "grad".
    """
    if isinstance(profile, AnalyticProfile):
        directions, frequencies, amplitudes = profile.arrays()
        out = kappa_product(directions, amplitudes, kind)
        scale = (1j * frequencies).reshape((-1,) + (1,) * (out.ndim - 1))
        return profile.with_amplitudes(scale * out)
    if isinstance(profile, GridProfile):
        out = kappa_product(profile.sphere.nodes[None], _spectral_p_derivative(profile), kind)
        return replace(profile, samples=out)
    raise TypeError(f"unsupported profile type {type(profile)!r}")


def gamma_cross_eigendefect(profile: AnalyticProfile) -> float:
    """Max atom-wise residual of Gamma x F = mu nu F."""
    return gamma_apply(profile, "cross").amplitude_distance(profile, profile.mu * profile.nu)


# ---------------------------------------------------------------------------
# intertwining with physical-space derivatives
# ---------------------------------------------------------------------------


def intertwining_check(fn, kappa, p: float, kind: str, quad: PlaneQuadrature,
                       h: float = 1e-3, dp: float = 1e-2) -> float:
    """Residual of R[D F] = Gamma_D R[F] at one (p, kappa).

    The left side runs the numeric transform over the finite-difference
    derivative field; the right side differentiates the numeric transform in
    p by 4th-order central differences and applies the kappa product.
    """
    k = as_direction(kappa)
    kinds = {"curl": ("curl", "cross"), "div": ("divergence", "dot"), "grad": ("gradient", "grad")}
    if kind not in kinds:
        raise ValueError(f"unknown kind {kind!r}")
    fd_kind, product = kinds[kind]
    lhs = radon_forward_numeric(fd_field(fn, fd_kind, h), p, k, quad)

    # the stencil runs along the first coordinate, which carries p; the
    # partials along the other two axes are discarded
    def transform_in_p(y):
        return np.stack([np.asarray(radon_forward_numeric(fn, float(pv), k, quad))
                         for pv in y[:, 0]])

    dproj = fd_field(transform_in_p, "gradient", dp)(np.array([p, 0.0, 0.0]))[0]
    rhs = kappa_product(k, dproj, product)
    return float(np.max(np.abs(np.asarray(lhs) - rhs)))


# ---------------------------------------------------------------------------
# adjoint, inverse and hemisphere-refined inverse
# ---------------------------------------------------------------------------

def _atom_wave(atom: RadonAtom, x: np.ndarray, scale: complex) -> np.ndarray:
    """scale * amplitude * exp(i omega kappa . x), broadcasting over x batches."""
    phase = np.exp(1j * atom.frequency * (x @ atom.direction))
    if atom.is_vector:
        return scale * phase[..., None] * atom.amplitude
    return scale * phase * atom.amplitude


def adjoint_radon(profile, x, quad: SphereQuadrature | None = None):
    """Integral of G(kappa . x, kappa) over the sphere.

    Atom profiles integrate exactly; callables G(p, kappa) are summed against
    the supplied sphere quadrature.
    """
    x = np.asarray(x, dtype=float)
    if isinstance(profile, AnalyticProfile):
        out = 0.0
        for a in profile.atoms:
            out = out + _atom_wave(a, x, a.weight)
        return out
    if quad is None:
        raise ValueError("sphere quadrature required for callable profiles")
    values = np.stack([np.asarray(profile(float(node @ x), node)) for node in quad.nodes])
    return quad.integrate(values)


def inverse_radon(profile, x, quad: SphereQuadrature | None = None):
    """Reconstruction -(1/8 pi^2) integral of d^2/dp^2 F^R(kappa . x, kappa).

    Exact on atoms; grid profiles use spectral second derivatives evaluated
    by trigonometric interpolation at p = kappa . x against the grid's own
    direction quadrature.
    """
    x = np.asarray(x, dtype=float)
    if isinstance(profile, AnalyticProfile):
        out = 0.0
        for a in profile.atoms:
            out = out + _atom_wave(a, x, a.weight * a.frequency**2 / (8.0 * np.pi**2))
        return out
    if isinstance(profile, GridProfile):
        coeffs = np.fft.fft(profile.samples, axis=0) / profile.n_p
        k = profile.frequencies()
        pstar = profile.sphere.nodes @ x  # (n_dir,)
        phases = np.exp(1j * np.outer(k, pstar))  # (n_p, n_dir)
        shape = (profile.n_p, profile.sphere.n) + (1,) * (profile.samples.ndim - 2)
        second = np.sum((-k**2).reshape(-1, *([1] * (profile.samples.ndim - 1)))
                        * coeffs * phases.reshape(shape), axis=0)
        return -profile.sphere.integrate(second) / (8.0 * np.pi**2)
    raise TypeError(f"unsupported profile type {type(profile)!r}")


def hemisphere_inverse(profile: AnalyticProfile, hemisphere: Hemisphere, x):
    """Refined reconstruction -(1/4 pi^2) over a canonical hemisphere only."""
    x = np.asarray(x, dtype=float)
    out = 0.0
    for a in profile.atoms:
        if hemisphere.contains(a.direction):
            out = out + _atom_wave(a, x, a.weight * a.frequency**2 / (4.0 * np.pi**2))
    return out


def radon_of_hemisphere_inverse(profile: AnalyticProfile,
                                hemisphere: Hemisphere) -> AnalyticProfile:
    """Transform of the hemisphere reconstruction, atom-wise.

    Each atom retained by the hemisphere reconstructs a plane wave whose
    transform is the antipodal atom pair; for profiles that are genuine
    transforms this reproduces the input, otherwise the complementary
    directions receive the parity image F(-p, -kappa).
    """
    atoms = []
    for a in profile.atoms:
        if hemisphere.contains(a.direction):
            atoms.append(a)
            atoms.append(RadonAtom(-a.direction, -a.frequency, a.amplitude, a.weight))
    return replace(profile, atoms=tuple(atoms))


# ---------------------------------------------------------------------------
# linear coordinate transforms and duality
# ---------------------------------------------------------------------------

def transform_radon_linear(profile: AnalyticProfile, t: np.ndarray) -> AnalyticProfile:
    """Profile of x -> F(T^{-1} x) for orthogonal T: directions map to T kappa."""
    t = np.asarray(t, dtype=float)
    if t.shape != (3, 3) or np.max(np.abs(t.T @ t - np.eye(3))) > 1e-12:
        raise ValueError("T must be an orthogonal 3x3 matrix")
    atoms = tuple(replace(a, direction=t @ a.direction) for a in profile.atoms)
    return replace(profile, atoms=atoms)


def antipodal_profile(profile: AnalyticProfile) -> AnalyticProfile:
    """The kappa -> -kappa image, i.e. the transform of x -> F(-x)."""
    return transform_radon_linear(profile, -np.eye(3))


# ---------------------------------------------------------------------------
# spherical curl transform (Radon probe with the helicity frame)
# ---------------------------------------------------------------------------

def spherical_curl_transform(profile: AnalyticProfile, kappa, p: float = 0.0,
                             tol: float = 1e-9) -> tuple[complex, complex]:
    """Helicity amplitudes (s_1, s_2) probed from the profile at kappa.

    s_a = (2 pi)^{-1/2} g nu^2 e^{-i mu lam_a nu p} < Q_a(kappa), F^R(p, kappa) >
    with the Hermitian product conjugating the probe.  The phase prefactor
    cancels the matched tone, so the result is p-independent; for profiles
    supported on a line delta the returned value is the line density.
    """
    k = as_direction(kappa)
    atoms = profile.atoms_at(k, tol=tol)
    pref = profile.g * profile.nu**2 / np.sqrt(2.0 * np.pi)
    out = []
    for a_idx in (1, 2):
        lam = helicity_of(a_idx)
        q = moses_frame(k, a_idx)
        total = 0.0 + 0.0j
        for atom in atoms:
            if not atom.is_vector:
                raise ValueError("probe requires vector amplitudes")
            total += np.exp(1j * atom.frequency * p) * np.vdot(q, atom.amplitude)
        phase = np.exp(-1j * profile.mu * lam * profile.nu * p)
        out.append(pref * phase * total)
    return out[0], out[1]


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def profile_to_json(profile: AnalyticProfile) -> str:
    """Serialize an analytic profile as a JSON atom list."""
    payload = {
        "nu": profile.nu,
        "mu": profile.mu,
        "g": profile.g,
        "atoms": [
            {
                "direction": [float(c) for c in a.direction],
                "frequency": float(a.frequency),
                "weight": float(a.weight),
                "amplitude_re": [float(c) for c in np.atleast_1d(a.amplitude.real)],
                "amplitude_im": [float(c) for c in np.atleast_1d(a.amplitude.imag)],
            }
            for a in profile.atoms
        ],
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def profile_from_json(text: str) -> AnalyticProfile:
    payload = json.loads(text)
    atoms = []
    for rec in payload["atoms"]:
        amp = np.asarray(rec["amplitude_re"], dtype=float) + 1j * np.asarray(rec["amplitude_im"], dtype=float)
        if amp.size == 1:
            amp = amp.reshape(())
        atoms.append(RadonAtom(np.asarray(rec["direction"]), rec["frequency"], amp, rec["weight"]))
    return AnalyticProfile(atoms=tuple(atoms), nu=payload["nu"], mu=payload["mu"], g=payload["g"])


GRID_CSV_HEADER = "p,kx,ky,kz,re_fx,im_fx,re_fy,im_fy,re_fz,im_fz"


def grid_to_csv(grid: GridProfile) -> str:
    """Serialize a vector grid profile as CSV with 17-significant-digit floats."""
    if not grid.is_vector:
        raise ValueError("CSV serialization expects vector samples")
    fmt = "%.17g"
    lines = [GRID_CSV_HEADER]
    for i, pv in enumerate(grid.p):
        for j in range(grid.sphere.n):
            k = grid.sphere.nodes[j]
            s = grid.samples[i, j]
            cells = [pv, k[0], k[1], k[2],
                     s[0].real, s[0].imag, s[1].real, s[1].imag, s[2].real, s[2].imag]
            lines.append(",".join(fmt % c for c in cells))
    return "\n".join(lines) + "\n"


def grid_from_csv(text: str, sphere: SphereQuadrature) -> GridProfile:
    """Rebuild a grid profile from CSV rows ordered as written by grid_to_csv."""
    rows = [line.split(",") for line in text.strip().splitlines()[1:]]
    data = np.asarray(rows, dtype=float)
    n_dir = sphere.n
    n_p = data.shape[0] // n_dir
    p = data[::n_dir, 0]
    re = data[:, 4::2].reshape(n_p, n_dir, 3)
    im = data[:, 5::2].reshape(n_p, n_dir, 3)
    return GridProfile(p=p, sphere=sphere, samples=re + 1j * im)
