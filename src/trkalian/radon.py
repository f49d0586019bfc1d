"""Radon transforms of vector fields and the transform-space Gamma calculus.

Two profile representations coexist.  Analytic profiles hold distributional
transforms of constant-curl fields exactly, as atoms: a direction on the
sphere carrying a pure tone exp(i omega p) with a complex 3-vector (or
scalar) amplitude and a quadrature weight (1 for a point delta on the
sphere, 2 pi / n for nodes discretizing a line delta such as the equatorial
ring).  The atoms are stored as four arrays, one row per atom, so every atom
identity is an array expression; ``AnalyticProfile.atoms`` is a tuple of
row views.  Grid profiles hold samples over a periodic p-grid times a sphere
quadrature and are used for Schwartz-class numerics; p-derivatives are
spectral there.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .core import (DIRECTION_TOL, PlaneQuadrature, SphereQuadrature, as_direction,
                   fd_field, plane_basis)
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
    """One row of an :class:`AnalyticProfile`: a tone exp(i frequency p) at a
    direction with a complex 3-vector or scalar amplitude and the solid-angle
    weight it carries (1 for a point delta, the node spacing on a line delta).
    """

    direction: np.ndarray
    frequency: float
    amplitude: np.ndarray
    weight: float = 1.0


# Fixed generic projection of (direction, frequency) that orders atoms for
# matching; atoms within tol of each other project within sqrt(2) tol.
_MATCH_AXIS = np.sqrt([2.0, 3.0, 5.0, 7.0]) / np.sqrt(17.0)


@dataclass(frozen=True, eq=False)
class AnalyticProfile:
    """Finite atom sum representing a transform-space field exactly; atom j
    is row j of the arrays, amplitudes being (n, 3) or, for scalars, (n,)."""

    directions: np.ndarray
    frequencies: np.ndarray
    amplitudes: np.ndarray
    weights: np.ndarray
    nu: float
    mu: int = 1
    g: float = 1.0

    def __post_init__(self):
        # private read-only copies, so the validated rows cannot change later
        for name, dtype in (("directions", float), ("frequencies", float),
                            ("amplitudes", complex), ("weights", float)):
            value = np.array(getattr(self, name), dtype=dtype)
            value.flags.writeable = False
            object.__setattr__(self, name, value)
        n = self.frequencies.size
        if (self.directions.shape != (n, 3) or self.frequencies.shape != (n,)
                or self.weights.shape != (n,) or self.amplitudes.shape not in ((n,), (n, 3))):
            raise ValueError("profile arrays must be shaped directions (n, 3), frequencies"
                             " (n,), amplitudes (n, 3) or (n,) and weights (n,)")
        as_direction(self.directions)
        if not (np.all(np.isfinite(self.frequencies)) and np.all(np.isfinite(self.amplitudes))):
            raise ValueError("atom frequencies and amplitudes must be finite")
        if not np.all(self.weights > 0.0):
            raise ValueError("atom weights must be positive")

    @classmethod
    def from_atoms(cls, atoms, nu: float, mu: int = 1, g: float = 1.0) -> "AnalyticProfile":
        """Profile stacked from rows with direction, frequency, amplitude and weight."""
        atoms = tuple(atoms)
        return cls(np.reshape([a.direction for a in atoms], (-1, 3)),
                   [a.frequency for a in atoms], [a.amplitude for a in atoms],
                   [a.weight for a in atoms], nu=nu, mu=mu, g=g)

    @cached_property
    def atoms(self) -> tuple:
        """The rows as :class:`RadonAtom` views into the arrays."""
        return tuple(map(RadonAtom, self.directions, self.frequencies.tolist(),
                         self.amplitudes, self.weights.tolist()))

    @property
    def is_vector(self) -> bool:
        return self.amplitudes.ndim == 2

    def transverse_defect(self) -> float:
        """Max |kappa . amplitude| over the atoms (0 for Trkalian and scalar profiles)."""
        dots = kappa_product(self.directions, self.amplitudes, "dot") if self.is_vector else 0.0
        return float(np.max(np.abs(dots), initial=0.0))

    def index_of(self, directions, frequencies, tol: float = 1e-9) -> np.ndarray:
        """Lowest row j with |frequencies[j] - f| < tol and |directions[j] - d| < tol
        for each query (d, f), or -1; after one O(n log n) sort of the atom
        projections, a binary search finds each query's candidates."""
        query_d = np.reshape(directions, (-1, 3))
        query_f = np.reshape(frequencies, -1)
        keys = self.directions @ _MATCH_AXIS[:3] + self.frequencies * _MATCH_AXIS[3]
        query = query_d @ _MATCH_AXIS[:3] + query_f * _MATCH_AXIS[3]
        order = np.argsort(keys, kind="stable")
        sorted_keys = keys[order]
        # the window covers sqrt(2) tol plus the rounding of the projections
        span = np.max(np.abs(keys), initial=1.0) + np.max(np.abs(query), initial=1.0)
        half = 2.0 * tol + 8.0 * np.finfo(float).eps * span
        lo = np.searchsorted(sorted_keys, query - half, side="left")
        hi = np.searchsorted(sorted_keys, query + half, side="right")
        found = np.full(query.shape, -1)
        for step in range(int(np.max(hi - lo, initial=0))):
            cand = order[np.minimum(lo + step, order.size - 1)]
            hit = ((lo + step < hi)
                   & (np.abs(self.frequencies[cand] - query_f) < tol)
                   & (np.linalg.norm(self.directions[cand] - query_d, axis=-1) < tol))
            found = np.where(hit & ((found < 0) | (cand < found)), cand, found)
        return found

    def parity_defect(self) -> float:
        """Max amplitude mismatch between an atom and its (-p, -kappa) partner
        (inf when some atom has no partner)."""
        partner = self.index_of(-self.directions, -self.frequencies)
        if np.any(partner < 0):
            return np.inf
        diff = self.amplitudes - self.amplitudes[partner]
        return float(np.max(np.abs(diff), initial=0.0))

    def amplitude_distance(self, other: "AnalyticProfile", scale: complex = 1.0) -> float:
        """Max atom-wise |amplitude - scale * other amplitude| over paired atoms."""
        if self.frequencies.shape != other.frequencies.shape:
            raise ValueError("profiles pair atoms one to one")
        diff = self.amplitudes - scale * other.amplitudes
        return float(np.max(np.abs(diff), initial=0.0))


def validate_p_grid(p) -> np.ndarray:
    """The p-grid as floats; ValueError unless uniform, increasing and of
    power-of-two size."""
    p = np.asarray(p, dtype=float)
    if p.ndim != 1 or p.size < 2 or (p.size & (p.size - 1)) != 0:
        raise ValueError("p-grid size must be a power of two")
    dp = np.diff(p)
    if not (dp[0] > 0.0 and np.allclose(dp, dp[0], rtol=0, atol=1e-12 * dp[0])):
        raise ValueError("p-grid must be uniform and increasing")
    return p


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
        p = validate_p_grid(self.p)
        samples = np.asarray(self.samples, dtype=complex)
        if samples.shape[0] != p.size or samples.shape[1] != self.sphere.n:
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
    """Measurable half of the sphere holding one of each antipodal pair.

    ``indicator`` maps directions (n, 3) to membership flags (n,).
    """

    indicator: object
    name: str = "hemisphere"

    def members(self, kappa) -> np.ndarray:
        k = as_direction(kappa)
        inside = np.asarray(self.indicator(k), dtype=bool)
        if inside.shape != k.shape[:-1]:
            raise ValueError("hemisphere indicator must map directions (n, 3) to flags (n,)")
        return inside

    def contains(self, kappa) -> bool:
        return bool(self.members(np.reshape(kappa, (1, 3)))[0])

    def complement(self) -> "Hemisphere":
        ind = self.indicator
        return Hemisphere(indicator=lambda k: ~np.asarray(ind(k), dtype=bool),
                          name=self.name + "'")

    def validate_on(self, quad: SphereQuadrature) -> None:
        """Check the one-of-each-pair property on an antipodal quadrature."""
        if not quad.antipodal or quad.antipode_index is None:
            raise ValueError("hemisphere validation needs an antipodal quadrature")
        inside = self.members(quad.nodes)
        same = np.flatnonzero(inside == inside[quad.antipode_index])
        if same.size:
            raise ValueError(f"indicator keeps {'both' if inside[same[0]] else 'neither'}"
                             " of an antipodal pair")


def canonical_hemisphere() -> Hemisphere:
    """Lexicographic canonical hemisphere: first nonzero of (kz, kx, ky) positive."""

    def indicator(k):
        ordered = k[..., [2, 0, 1]]
        first = np.argmax(ordered != 0.0, axis=-1)
        return np.take_along_axis(ordered, first[..., None], axis=-1)[..., 0] > 0.0

    return Hemisphere(indicator=indicator, name="lexicographic")


def cap_swapped_hemisphere(axis, cos_cap: float = 0.9) -> Hemisphere:
    """Disconnected canonical hemisphere: lexicographic with a swapped polar cap.

    Membership is flipped inside the antipodally symmetric double cap
    |kappa . axis| > cos_cap, which preserves the one-of-each-pair property.
    """
    base = canonical_hemisphere()
    ax = as_direction(axis)

    def indicator(k):
        return base.indicator(k) ^ (np.abs(k @ ax) > cos_cap)

    return Hemisphere(indicator=indicator, name="cap-swapped")


# ---------------------------------------------------------------------------
# numeric forward transform
# ---------------------------------------------------------------------------

# Cap on the points passed to the field in one call (a few MB of points and
# values); planes are never split, so a larger plane is one call.
_CHUNK_POINTS = 2**14


def radon_forward_numeric(fn, p, kappa, quad: PlaneQuadrature):
    """Plane integrals of a rapidly decreasing field over the planes p = kappa . x.

    ``p (...)`` and ``kappa (..., 3)`` broadcast to a batch of planes; the
    result has the batch shape followed by the value shape of ``fn``, so one
    plane of a scalar (vector) field gives a scalar (3-vector).  The field
    is called on whole planes in chunks, and each plane's value depends on
    that plane only.  Raises ValueError when the field is not finite on a
    plane.  Warns once (TruncationWarning) when on some plane the integrand
    at the truncation boundary exceeds 1e-10 of its maximum over the plane.
    """
    k = as_direction(kappa)
    shape = np.broadcast_shapes(np.shape(p), k.shape[:-1])
    p = np.broadcast_to(np.asarray(p, dtype=float), shape).reshape(-1)
    k = np.broadcast_to(k, shape + (3,)).reshape(-1, 3)
    e1, e2 = plane_basis(k)
    x1, w1 = quad.nodes_1d()
    n = quad.n_per_axis
    w2d = w1[:, None] * w1[None, :]
    step = max(1, _CHUNK_POINTS // n**2)
    sums, peaks, edges = [], [], []
    for c in (slice(s, s + step) for s in range(0, p.size, step)):
        pts = ((p[c, None] * k[c])[:, None, None, :] + x1[:, None, None] * e1[c, None, None, :]
               + x1[None, :, None] * e2[c, None, None, :])
        vals = np.asarray(fn(pts.reshape(-1, 3)))
        vals = vals.reshape((-1, n, n) + vals.shape[1:])
        mag = np.abs(vals).reshape(vals.shape[:3] + (-1,)).max(axis=-1)  # (planes, n, n)
        peaks.append(mag.max(axis=(1, 2)))
        if not np.all(np.isfinite(peaks[-1])):
            raise ValueError("field is not finite on the plane")
        edges.append(np.maximum(mag[:, [0, -1]].max(axis=(1, 2)),
                                mag[:, :, [0, -1]].max(axis=(1, 2))))
        sums.append(np.sum(w2d.reshape(w2d.shape + (1,) * (vals.ndim - 3)) * vals, axis=(1, 2)))

    peak, edge = np.concatenate(peaks), np.concatenate(edges)
    truncated = (peak > 0) & (edge > TRUNCATION_THRESHOLD * peak)
    if np.any(truncated):
        warnings.warn(f"plane truncation boundary magnitude exceeds {TRUNCATION_THRESHOLD:.0e}"
                      f" of the plane maximum on {np.count_nonzero(truncated)} of {peak.size}"
                      f" planes (worst ratio {np.max(edge[truncated] / peak[truncated]):.2e})",
                      TruncationWarning, stacklevel=2)
    out = np.concatenate(sums)
    return out.reshape(shape + out.shape[1:])[()]


def radon_forward_grid(fn, p_grid, sphere: SphereQuadrature, quad: PlaneQuadrature) -> GridProfile:
    """Numeric transform sampled on a p-grid times a direction set."""
    p_grid = np.asarray(p_grid, dtype=float)
    samples = radon_forward_numeric(fn, p_grid[:, None], sphere.nodes, quad)  # (n_p, n_dir[, 3])
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
    # the modes share (nu, mu) and mu lam nu > 0, hence one helicity
    lam = f.modes[0].lam
    kappa0 = np.array([m.kappa0 for m in f.modes])
    coeff = np.sqrt(2.0 * np.pi) / (f.g * f.nu**2) * np.array([m.amplitude for m in f.modes])
    amp = coeff[:, None] * moses_frame(kappa0, frame_index_of(lam))
    profile = AnalyticProfile(
        directions=np.stack([f.mu * kappa0, -f.mu * kappa0], axis=1).reshape(-1, 3),
        frequencies=np.tile([lam * f.nu, -lam * f.nu], len(f.modes)),
        amplitudes=np.repeat(amp, 2, axis=0), weights=np.ones(2 * len(f.modes)),
        nu=f.nu, mu=f.mu, g=f.g)
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
    psi = 2.0 * np.pi * np.arange(n_ring) / n_ring
    cos, sin = np.cos(psi), np.sin(psi)
    minus_i = np.full(n_ring, -1j)  # complex(-0.0, -1.0), as the literal -1j
    ell = np.stack([sin, -cos, minus_i], axis=1)
    ellp = np.stack([-sin, cos, minus_i], axis=1)
    return AnalyticProfile(
        directions=np.repeat(np.stack([cos, sin, np.zeros(n_ring)], axis=1), 2, axis=0),
        frequencies=np.tile([nu, -nu], n_ring),
        amplitudes=(coeff * np.stack([ell, ellp], axis=1)).reshape(-1, 3),
        weights=np.full(2 * n_ring, 2.0 * np.pi / n_ring), nu=nu, mu=1, g=1.0)


def scalar_wave_profile(kappa0, omega: float, coefficient: complex = 1.0) -> AnalyticProfile:
    """Transform of the scalar plane wave c e^{i omega kappa0 . x} (atom pair)."""
    k0 = as_direction(kappa0)
    amp = (2.0 * np.pi) ** 2 / omega**2 * complex(coefficient)
    return AnalyticProfile(directions=np.stack([k0, -k0]), frequencies=[omega, -omega],
                           amplitudes=[amp, amp], weights=np.ones(2),
                           nu=abs(omega), mu=1, g=1.0)


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
        out = kappa_product(profile.directions, profile.amplitudes, kind)
        scale = (1j * profile.frequencies).reshape((-1,) + (1,) * (out.ndim - 1))
        return replace(profile, amplitudes=scale * out)
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
    d_transform = fd_field(lambda y: radon_forward_numeric(fn, y[:, 0], k, quad),
                           "gradient", dp)
    dproj = d_transform(np.array([p, 0.0, 0.0]))[0]
    rhs = kappa_product(k, dproj, product)
    return float(np.max(np.abs(np.asarray(lhs) - rhs)))


# ---------------------------------------------------------------------------
# adjoint, inverse and hemisphere-refined inverse
# ---------------------------------------------------------------------------

def _atom_sum(profile: AnalyticProfile, x, scale: np.ndarray):
    """Sum over atoms j of scale_j amplitude_j exp(i omega_j kappa_j . x) at
    x (..., 3), row by row so memory stays O(points); zero scales are skipped."""
    x = np.asarray(x, dtype=float)
    out = 0.0
    for j in np.flatnonzero(scale):
        phase = np.exp(1j * profile.frequencies[j] * (x @ profile.directions[j]))
        if profile.is_vector:
            phase = phase[..., None]
        out = out + scale[j] * phase * profile.amplitudes[j]
    return out


def adjoint_radon(profile, x, quad: SphereQuadrature | None = None):
    """Integral of G(kappa . x, kappa) over the sphere.

    Atom profiles integrate exactly; a callable G is called once, on all
    nodes of the supplied sphere quadrature as p (n,) and kappa (n, 3), and
    its values (n, ...) are summed against the quadrature weights.
    """
    if isinstance(profile, AnalyticProfile):
        return _atom_sum(profile, x, profile.weights)
    x = np.asarray(x, dtype=float)
    if quad is None:
        raise ValueError("sphere quadrature required for callable profiles")
    return quad.integrate(profile(quad.nodes @ x, quad.nodes))


def inverse_radon(profile, x, quad: SphereQuadrature | None = None):
    """Reconstruction -(1/8 pi^2) integral of d^2/dp^2 F^R(kappa . x, kappa).

    Exact on atoms; grid profiles use spectral second derivatives evaluated
    by trigonometric interpolation at p = kappa . x against the grid's own
    direction quadrature.
    """
    if isinstance(profile, AnalyticProfile):
        return _atom_sum(profile, x, profile.weights * profile.frequencies**2 / (8.0 * np.pi**2))
    if isinstance(profile, GridProfile):
        x = np.asarray(x, dtype=float)
        coeffs = np.fft.fft(profile.samples, axis=0) / profile.n_p
        k = profile.frequencies()
        pstar = profile.sphere.nodes @ x - profile.p[0]  # (n_dir,), from the grid start
        phases = np.exp(1j * np.outer(k, pstar))  # (n_p, n_dir)
        shape = (profile.n_p, profile.sphere.n) + (1,) * (profile.samples.ndim - 2)
        second = np.sum((-k**2).reshape(-1, *([1] * (profile.samples.ndim - 1)))
                        * coeffs * phases.reshape(shape), axis=0)
        return -profile.sphere.integrate(second) / (8.0 * np.pi**2)
    raise TypeError(f"unsupported profile type {type(profile)!r}")


def hemisphere_inverse(profile: AnalyticProfile, hemisphere: Hemisphere, x):
    """Refined reconstruction -(1/4 pi^2) over a canonical hemisphere only."""
    scale = profile.weights * profile.frequencies**2 / (4.0 * np.pi**2)
    return _atom_sum(profile, x, np.where(hemisphere.members(profile.directions), scale, 0.0))


def radon_of_hemisphere_inverse(profile: AnalyticProfile,
                                hemisphere: Hemisphere) -> AnalyticProfile:
    """Transform of the hemisphere reconstruction, atom-wise.

    Each atom retained by the hemisphere reconstructs a plane wave whose
    transform is the antipodal atom pair; for profiles that are genuine
    transforms this reproduces the input, otherwise the complementary
    directions receive the parity image F(-p, -kappa).
    """
    keep = hemisphere.members(profile.directions)
    directions, frequencies = profile.directions[keep], profile.frequencies[keep]
    return replace(profile,
                   directions=np.stack([directions, -directions], axis=1).reshape(-1, 3),
                   frequencies=np.stack([frequencies, -frequencies], axis=1).reshape(-1),
                   amplitudes=np.repeat(profile.amplitudes[keep], 2, axis=0),
                   weights=np.repeat(profile.weights[keep], 2))


# ---------------------------------------------------------------------------
# linear coordinate transforms and duality
# ---------------------------------------------------------------------------

def transform_radon_linear(profile: AnalyticProfile, t: np.ndarray) -> AnalyticProfile:
    """Profile of x -> F(T^{-1} x) for orthogonal T: directions map to T kappa."""
    t = np.asarray(t, dtype=float)
    if t.shape != (3, 3) or np.max(np.abs(t.T @ t - np.eye(3))) > 1e-12:
        raise ValueError("T must be an orthogonal 3x3 matrix")
    return replace(profile, directions=profile.directions @ t.T)


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
    if not profile.is_vector:
        raise ValueError("probe requires vector amplitudes")
    at_k = np.linalg.norm(profile.directions - k, axis=-1) < tol
    tones = np.exp(1j * profile.frequencies[at_k] * p)
    pref = profile.g * profile.nu**2 / np.sqrt(2.0 * np.pi)
    out = []
    for a_idx in (1, 2):
        total = np.sum(tones * (profile.amplitudes[at_k] @ np.conj(moses_frame(k, a_idx))))
        phase = np.exp(-1j * profile.mu * helicity_of(a_idx) * profile.nu * p)
        out.append(complex(pref * phase * total))
    return out[0], out[1]


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def profile_to_json(profile: AnalyticProfile) -> str:
    """Serialize an analytic profile as a JSON atom list."""
    amplitudes = profile.amplitudes if profile.is_vector else profile.amplitudes[:, None]
    rows = zip(profile.directions.tolist(), profile.frequencies.tolist(),
               profile.weights.tolist(), amplitudes.real.tolist(), amplitudes.imag.tolist())
    payload = {
        "nu": profile.nu,
        "mu": profile.mu,
        "g": profile.g,
        "atoms": [{"direction": d, "frequency": f, "weight": w,
                   "amplitude_re": re, "amplitude_im": im}
                  for d, f, w, re, im in rows],
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def profile_from_json(text: str) -> AnalyticProfile:
    """Rebuild an analytic profile from :func:`profile_to_json` output; a
    one-component amplitude marks a scalar profile."""
    payload = json.loads(text)
    records = payload["atoms"]
    width = len(records[0]["amplitude_re"]) if records else 3
    amplitudes = np.array([r["amplitude_re"] for r in records], dtype=complex).reshape(-1, width)
    amplitudes.imag = np.reshape([r["amplitude_im"] for r in records], (-1, width))
    return AnalyticProfile(
        directions=np.reshape([r["direction"] for r in records], (-1, 3)),
        frequencies=[r["frequency"] for r in records],
        amplitudes=amplitudes[:, 0] if width == 1 else amplitudes,
        weights=[r["weight"] for r in records],
        nu=payload["nu"], mu=payload["mu"], g=payload["g"])


GRID_CSV_HEADER = "p,kx,ky,kz,re_fx,im_fx,re_fy,im_fy,re_fz,im_fz"
FLOAT_FMT = "%.17g"


def format_csv(header: str, columns, values=None) -> str:
    """CSV text of a header line and rows of real columns (n, m), followed by
    complex values (n, k) as re, im column pairs; floats get 17 significant
    digits."""
    table = np.asarray(columns, dtype=float)
    if values is not None:
        values = np.asarray(values)
        table = np.column_stack([table, np.stack([values.real, values.imag], axis=-1)
                                 .reshape(table.shape[0], -1)])
    row = ",".join([FLOAT_FMT] * table.shape[1])
    return "\n".join([header] + [row % tuple(r) for r in table.tolist()]) + "\n"


def grid_to_csv(grid: GridProfile) -> str:
    """Serialize a vector grid profile as CSV with 17-significant-digit floats."""
    if not grid.is_vector:
        raise ValueError("CSV serialization expects vector samples")
    directions = np.column_stack([np.repeat(grid.p, grid.sphere.n),
                                  np.tile(grid.sphere.nodes, (grid.n_p, 1))])
    return format_csv(GRID_CSV_HEADER, directions, grid.samples.reshape(-1, 3))


def grid_from_csv(text: str, sphere: SphereQuadrature) -> GridProfile:
    """Rebuild a grid profile from CSV rows ordered as written by grid_to_csv."""
    rows = [line.split(",") for line in text.strip().splitlines()[1:]]
    data = np.asarray(rows, dtype=float)
    n_dir = sphere.n
    n_p = len(rows) // n_dir
    if n_p == 0 or data.shape != (n_p * n_dir, 10):
        raise ValueError(f"CSV must hold n_p x {n_dir} rows of 10 columns")
    nodes = np.tile(sphere.nodes, (n_p, 1))
    if not np.all(np.linalg.norm(data[:, 1:4] - nodes, axis=1) <= DIRECTION_TOL):
        raise ValueError("CSV directions differ from the sphere quadrature nodes")
    samples = (data[:, 4::2] + 1j * data[:, 5::2]).reshape(n_p, n_dir, 3)
    return GridProfile(p=data[::n_dir, 0], sphere=sphere, samples=samples)
