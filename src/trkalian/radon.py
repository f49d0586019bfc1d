"""Radon transforms of vector fields and the transform-space Gamma calculus.

Two profile representations coexist.  Analytic profiles hold distributional
transforms of constant-curl fields exactly, as atoms: a direction on the
sphere carrying a pure tone exp(i omega p) with a complex 3-vector (or
scalar) amplitude and a quadrature weight (1 for a point delta on the
sphere, 2 pi / n for nodes discretizing a line delta such as the equatorial
ring).  The atoms are stored as four arrays, one row per atom, so every atom
identity is an array expression; ``AnalyticProfile.atoms`` is a tuple of
row views.  Grid profiles hold samples over a periodic p-grid times a sphere
quadrature and are used for Schwartz-class numerics; Gamma and the inverse
(at points x (..., 3)) act on them through the atoms of their trigonometric
interpolant (:func:`grid_atoms`), whose Nyquist bin is at -pi/dp only.
"""

from __future__ import annotations

import io
import json
import warnings
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .core import (DIRECTION_TOL, PlaneQuadrature, SphereQuadrature, _tensor_boundary,
                   as_direction, fd_field, field_reals, from_reals, plane_basis, plane_wave_sum)
from .fields import ModeField
from .moses import frame_index_of, helicity_of, moses_frame

TRUNCATION_THRESHOLD = 1e-10


class TruncationWarning(UserWarning):
    """Field not negligible at the truncated plane boundary.

    A warning from a transform counts over the whole requested batch or
    grid: ``n_truncated`` of its ``n_planes`` planes exceed the threshold,
    the largest edge/peak ratio among them being ``worst_ratio``.
    """

    n_truncated: int | None = None
    n_planes: int | None = None
    worst_ratio: float | None = None


# ---------------------------------------------------------------------------
# profile types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RadonAtom:
    """One row of an :class:`AnalyticProfile`: a tone exp(i frequency p) at a
    direction with a complex 3-vector or scalar amplitude and the solid-angle
    weight it carries (1 for a point delta, the node spacing on a line delta).
    With a scalar amplitude it is also a Debye tone (``cktransform.ScalarTone``).
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
        if not np.all((self.weights > 0.0) & np.isfinite(self.weights)):
            raise ValueError("atom weights must be positive and finite")

    @classmethod
    def from_atoms(cls, atoms, nu: float) -> "AnalyticProfile":
        """Profile stacked from rows with direction, frequency, amplitude and
        weight, with mu = 1 and g = 1."""
        atoms = tuple(atoms)
        return cls(np.reshape([a.direction for a in atoms], (-1, 3)),
                   [a.frequency for a in atoms], [a.amplitude for a in atoms],
                   [a.weight for a in atoms], nu=nu)

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

    def dc_content(self) -> float:
        """Max |amplitude| over the zero-frequency atoms (0 when there are none)."""
        return float(np.max(np.abs(self.amplitudes[self.frequencies == 0.0]), initial=0.0))

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
    [p0, p0 + n_p dp).
    """

    p: np.ndarray
    sphere: SphereQuadrature
    samples: np.ndarray

    def __post_init__(self):
        p = validate_p_grid(self.p)
        samples = np.asarray(self.samples, dtype=complex)
        if samples.shape[0] != p.size or samples.shape[1] != self.sphere.n:
            raise ValueError("samples must be shaped (n_p, n_dir[, 3])")
        if not np.all(np.isfinite(samples)):
            raise ValueError("grid samples must be finite")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "samples", samples)

    @property
    def is_vector(self) -> bool:
        return self.samples.ndim == 3


def grid_atoms(grid: GridProfile) -> AnalyticProfile:
    """The grid's trigonometric interpolant as atoms, by one FFT along p: row
    i n_dir + j is frequency i of ``np.fft.fftfreq`` at node j, with that
    node's weight and amplitude c_ij e^{-i omega_i p[0]} / n_p (nu = 1 is
    unread).  The Nyquist bin is at -pi/dp only, so the view is not closed
    under (p, kappa) -> (-p, -kappa): its ``parity_defect()`` is inf."""
    n_p, nodes = grid.p.size, grid.sphere.nodes
    omega = 2.0 * np.pi * np.fft.fftfreq(n_p, d=grid.p[1] - grid.p[0])
    coeffs = (np.exp(-1j * omega * grid.p[0]) / n_p * np.fft.fft(grid.samples, axis=0).T).T
    return AnalyticProfile(np.tile(nodes, (n_p, 1)), np.repeat(omega, len(nodes)),
                           coeffs.reshape((-1,) + coeffs.shape[2:]),
                           np.tile(grid.sphere.weights, n_p), nu=1.0)


def _sample_atoms(grid: GridProfile, atoms: AnalyticProfile) -> GridProfile:
    """``grid`` resampled from ``atoms`` laid out as by :func:`grid_atoms`
    (one inverse FFT along p)."""
    coeffs = atoms.amplitudes.reshape(grid.samples.shape[:2] + atoms.amplitudes.shape[1:])
    shift = np.exp(1j * atoms.frequencies[::grid.sphere.n] * grid.p[0]) * grid.p.size
    return replace(grid, samples=np.fft.ifft((shift * coeffs.T).T, axis=0))


# ---------------------------------------------------------------------------
# hemispheres
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Hemisphere:
    """Measurable half of the sphere holding one of each antipodal pair.

    ``indicator`` maps directions (n, 3) to membership flags (n,).
    """

    indicator: object

    def members(self, kappa) -> np.ndarray:
        k = as_direction(kappa)
        inside = np.asarray(self.indicator(k), dtype=bool)
        if inside.shape != k.shape[:-1]:
            raise ValueError("hemisphere indicator must map directions (n, 3) to flags (n,)")
        return inside

    def complement(self) -> "Hemisphere":
        ind = self.indicator
        return Hemisphere(indicator=lambda k: ~np.asarray(ind(k), dtype=bool))


def canonical_hemisphere() -> Hemisphere:
    """Lexicographic canonical hemisphere: first nonzero of (kz, kx, ky) positive."""

    def indicator(k):
        ordered = k[..., [2, 0, 1]]
        first = np.argmax(ordered != 0.0, axis=-1)
        return np.take_along_axis(ordered, first[..., None], axis=-1)[..., 0] > 0.0

    return Hemisphere(indicator=indicator)


def cap_swapped_hemisphere(axis, cos_cap: float = 0.9) -> Hemisphere:
    """Disconnected canonical hemisphere: lexicographic with a swapped polar cap.

    Membership is flipped inside the antipodally symmetric double cap
    |kappa . axis| > cos_cap, which preserves the one-of-each-pair property.
    """
    base = canonical_hemisphere()
    ax = as_direction(axis)

    def indicator(k):
        return base.indicator(k) ^ (np.abs(k @ ax) > cos_cap)

    return Hemisphere(indicator=indicator)


# ---------------------------------------------------------------------------
# numeric forward transform
# ---------------------------------------------------------------------------

# Cap on the points passed to the field in one call (a few MB of points and
# values); planes are never split, so a larger plane is one call.
_CHUNK_POINTS = 2**14


def _plane_sums(fn, p, k, quad: PlaneQuadrature):
    """Weighted sums of ``fn`` over the planes p (m,) = k (m, 3) . x, with
    each plane's peak and edge magnitude (m,); the sums are (m,) followed by
    the value shape of ``fn``.  Each plane's sum depends on that plane only."""
    e1, e2 = plane_basis(k)
    x1, w1 = quad.nodes_1d()
    n = quad.n_per_axis
    w = (w1[:, None] * w1[None, :]).reshape(-1)
    ring = _tensor_boundary(n, 2)
    step = max(1, _CHUNK_POINTS // n**2)
    sums, peaks, edges = [], [], []
    for c in (slice(s, s + step) for s in range(0, p.size, step)):
        # components first, so the broadcast sums run along plane rows
        pts = ((p[c] * k[c].T)[..., None, None] + x1[:, None] * e1[c].T[..., None, None]
               + x1 * e2[c].T[..., None, None])  # (3, planes, n, n)
        # real view (planes, n^2, reals per node): max/min give the magnitude
        vf, value_shape, cplx = field_reals(fn, pts.reshape(3, -1).T)
        vf = vf.reshape(pts.shape[1], n * n, -1)
        peaks.append(np.maximum(vf.max(axis=(1, 2)), -vf.min(axis=(1, 2))))
        if not np.all(np.isfinite(peaks[-1])):
            raise ValueError("field is not finite on the plane")
        edges.append(np.abs(np.take(vf, ring, axis=1)).max(axis=(1, 2)))
        sums.append(w @ vf)  # (planes, reals per node)

    out = from_reals(np.concatenate(sums), value_shape, cplx)
    return out, np.concatenate(peaks), np.concatenate(edges)


def _warn_truncated(peak, edge) -> None:
    """One TruncationWarning, to the caller of the public transform, when some
    plane's edge exceeds TRUNCATION_THRESHOLD of its peak."""
    truncated = (peak > 0) & (edge > TRUNCATION_THRESHOLD * peak)
    if not np.any(truncated):
        return
    n_truncated = int(np.count_nonzero(truncated))
    worst = float(np.max(edge[truncated] / peak[truncated]))
    warning = TruncationWarning(
        f"plane truncation boundary magnitude exceeds {TRUNCATION_THRESHOLD:.0e} of the"
        f" plane maximum on {n_truncated} of {peak.size} planes (worst ratio {worst:.2e})")
    warning.n_truncated, warning.n_planes, warning.worst_ratio = n_truncated, peak.size, worst
    warnings.warn(warning, stacklevel=3)


def radon_forward_numeric(fn, p, kappa, quad: PlaneQuadrature):
    """Plane integrals of a rapidly decreasing field over the planes p = kappa . x.

    ``p (...)`` and ``kappa (..., 3)`` broadcast to a non-empty batch of
    planes; the result has the batch shape followed by the value shape of
    ``fn``, so one plane of a scalar (vector) field gives a scalar
    (3-vector).  The field is called on whole planes in chunks, and each
    plane's value depends on that plane only.  Raises ValueError on an
    empty batch or a non-finite field.  Warns once (TruncationWarning) when
    on some plane the magnitude at the boundary exceeds 1e-10 of that over
    the plane; a magnitude is the largest |Re| or |Im| of any component.
    """
    k = as_direction(kappa)
    shape = np.broadcast_shapes(np.shape(p), k.shape[:-1])
    if 0 in shape:
        raise ValueError(f"empty plane batch: p and kappa broadcast to shape {shape}")
    p = np.broadcast_to(np.asarray(p, dtype=float), shape).reshape(-1)
    k = np.broadcast_to(k, shape + (3,)).reshape(-1, 3)
    out, peak, edge = _plane_sums(fn, p, k, quad)
    _warn_truncated(peak, edge)
    return out.reshape(shape + out.shape[1:])[()]


def radon_forward_grid(fn, p_grid, sphere: SphereQuadrature, quad: PlaneQuadrature) -> GridProfile:
    """Numeric transform sampled on a p-grid times a direction set.

    The p-grid is validated before the field is evaluated.  Each geometric
    plane is integrated once: when the sphere pairs its nodes by exact
    negation (``antipode_index``), the later node of each pair takes, at
    every p whose exact negation is on the grid, the plane of its partner,
    R(p, -kappa) = R(-p, kappa).  Both name the same plane with the same
    nodes and weights, so a shared value differs from a separate integral
    only in summation order.  A parity scan of the grid therefore checks
    only the wrap of the periodic p-range; the parity of the plane
    quadrature itself needs two separate :func:`radon_forward_numeric`
    planes (verify record ``radon_parity``).  Warns once
    (TruncationWarning), counting over all n_p x n_dir planes.
    """
    p = validate_p_grid(p_grid)
    n, anti = sphere.n, sphere.antipode_index
    plane = np.arange(p.size * n).reshape(p.size, n)  # plane (p_i, kappa_j) is i n + j
    if anti is not None:
        neg = np.minimum(np.searchsorted(p, -p), p.size - 1)
        rows = np.flatnonzero(p[neg] == -p)  # p[neg[i]] is the exact negation of p[i]
        later = np.flatnonzero(anti < np.arange(n))
        plane[np.ix_(rows, later)] = plane[np.ix_(neg[rows], anti[later])]
    unique, inverse = np.unique(plane.reshape(-1), return_inverse=True)
    out, peak, edge = _plane_sums(fn, p[unique // n], sphere.nodes[unique % n], quad)
    _warn_truncated(peak[inverse], edge[inverse])
    return GridProfile(p=p, sphere=sphere,
                       samples=out[inverse].reshape((p.size, n) + out.shape[1:]))


# ---------------------------------------------------------------------------
# analytic transforms of catalog fields
# ---------------------------------------------------------------------------

def radon_mode_analytic(f: ModeField) -> AnalyticProfile:
    """Exact transform of a mode field: one antipodal atom pair per mode.

    Each mode contributes atoms at mu*kappa0 (tone +lam*nu) and -mu*kappa0
    (tone -lam*nu) with the common amplitude
    (2 pi)^{1/2} / (g nu^2) * s * Q_lam(kappa0).
    """
    lam, kappa0, n = f.lam, f.kappa0, len(f.amplitudes)
    coeff = np.sqrt(2.0 * np.pi) / (f.g * f.nu**2) * f.amplitudes
    amp = coeff[:, None] * moses_frame(kappa0, frame_index_of(lam))
    profile = AnalyticProfile(
        directions=np.stack([f.mu * kappa0, -f.mu * kappa0], axis=1).reshape(-1, 3),
        frequencies=np.tile([lam * f.nu, -lam * f.nu], n),
        amplitudes=np.repeat(amp, 2, axis=0), weights=np.ones(2 * n),
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


def gamma_apply(profile, kind: str):
    """Apply Gamma = kappa d/dp composed with the requested kappa product.

    Exact frequency multiplication on atoms; a periodic grid is resampled
    from its :func:`grid_atoms`.  ``kind`` is "cross", "dot" or "grad".
    """
    if isinstance(profile, AnalyticProfile):
        out = kappa_product(profile.directions, profile.amplitudes, kind)
        scale = (1j * profile.frequencies).reshape((-1,) + (1,) * (out.ndim - 1))
        return replace(profile, amplitudes=scale * out)
    if isinstance(profile, GridProfile):
        return _sample_atoms(profile, gamma_apply(grid_atoms(profile), kind))
    raise TypeError(f"unsupported profile type {type(profile)!r}")


def gamma_cross_eigendefect(profile: AnalyticProfile) -> float:
    """Max atom-wise residual of Gamma x F = mu nu F."""
    return gamma_apply(profile, "cross").amplitude_distance(profile, profile.mu * profile.nu)


# ---------------------------------------------------------------------------
# intertwining with physical-space derivatives
# ---------------------------------------------------------------------------


def intertwining_check(fn, kappa, p: float, kind: str, quad: PlaneQuadrature) -> float:
    """Residual of R[D F] = Gamma_D R[F] at one (p, kappa).

    The left side runs the numeric transform over the finite-difference
    derivative field (step FD_DEFAULT_STEP); the right side differentiates
    the numeric transform in p by 4th-order central differences (step 1e-2)
    and applies the kappa product.
    """
    k = as_direction(kappa)
    kinds = {"curl": ("curl", "cross"), "div": ("divergence", "dot"), "grad": ("gradient", "grad")}
    if kind not in kinds:
        raise ValueError(f"unknown kind {kind!r}")
    fd_kind, product = kinds[kind]
    lhs = radon_forward_numeric(fd_field(fn, fd_kind), p, k, quad)

    # the stencil runs along the first coordinate, which carries p; the
    # partials along the other two axes are discarded
    d_transform = fd_field(lambda y: radon_forward_numeric(fn, y[:, 0], k, quad),
                           "gradient", 1e-2)
    dproj = d_transform(np.array([p, 0.0, 0.0]))[0]
    rhs = kappa_product(k, dproj, product)
    return float(np.max(np.abs(np.asarray(lhs) - rhs)))


# ---------------------------------------------------------------------------
# adjoint, inverse and hemisphere-refined inverse
# ---------------------------------------------------------------------------

def _atom_sum(profile: AnalyticProfile, x, scale: np.ndarray):
    """Sum over atoms j of scale_j amplitude_j exp(i omega_j kappa_j . x) at
    x (..., 3), as one plane-wave sum over the rows with nonzero scale."""
    rows = np.flatnonzero(scale)
    scaled = (scale[rows] * profile.amplitudes[rows].T).T
    return plane_wave_sum(x, profile.directions[rows], profile.frequencies[rows], scaled)


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


def inverse_radon(profile, x):
    """Reconstruction -(1/8 pi^2) integral of d^2/dp^2 F^R(kappa . x, kappa).

    Exact on atoms, at points x (..., 3); a grid profile reconstructs as its
    :func:`grid_atoms`, the trigonometric interpolant on the grid's sphere.
    """
    if isinstance(profile, AnalyticProfile):
        return _atom_sum(profile, x, profile.weights * profile.frequencies**2 / (8.0 * np.pi**2))
    if isinstance(profile, GridProfile):
        return inverse_radon(grid_atoms(profile), x)
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

def spherical_curl_transform(profile: AnalyticProfile, kappa,
                             p: float = 0.0) -> tuple[complex, complex]:
    """Helicity amplitudes (s_1, s_2) probed from the profile at kappa.

    s_a = (2 pi)^{-1/2} g nu^2 e^{-i mu lam_a nu p} < Q_a(kappa), F^R(p, kappa) >
    with the Hermitian product conjugating the probe.  The phase prefactor
    cancels the matched tone, so the result is p-independent; for profiles
    supported on a line delta the returned value is the line density.
    The probe reads the atoms within 1e-9 of kappa.
    """
    k = as_direction(kappa)
    if not profile.is_vector:
        raise ValueError("probe requires vector amplitudes")
    at_k = np.linalg.norm(profile.directions - k, axis=-1) < 1e-9
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

def _float_texts(table, fmt: str) -> tuple:
    """``fmt % v`` for each cell of a float table in row-major order, each distinct
    value formatted once; told apart by bits, so -0.0 and 0.0 keep their own text."""
    bits = np.ascontiguousarray(table, dtype=float).view(np.int64).ravel()
    bits, index = np.unique(bits, return_inverse=True)
    texts = np.array([fmt % v for v in bits.view(float).tolist()], dtype=object)
    return tuple(texts[index].tolist())


def profile_to_json(profile: AnalyticProfile) -> str:
    """Serialize an analytic profile as a JSON atom list: the text of
    json.dumps(indent=2, sort_keys=True), with the atoms filled into one
    template, as json writes a finite float as its repr and a profile holds
    finite values only.  Each distinct float is formatted once."""
    amplitudes = profile.amplitudes if profile.is_vector else profile.amplitudes[:, None]
    width = amplitudes.shape[1]
    lists = [f'      "{key}": [\n' + ",\n".join(["        %s"] * n) + "\n      ]"
             for key, n in (("amplitude_im", width), ("amplitude_re", width), ("direction", 3))]
    atom = ("    {\n" + ",\n".join(lists + ['      "frequency": %s', '      "weight": %s'])
            + "\n    }")
    values = np.column_stack([amplitudes.imag, amplitudes.real, profile.directions,
                              profile.frequencies, profile.weights])
    atoms = "[\n" + ",\n".join([atom] * len(values)) + "\n  ]" if len(values) else "[]"
    return (f'{{\n  "atoms": {atoms % _float_texts(values, "%r")},\n'
            f'  "g": {json.dumps(profile.g)},\n  "mu": {json.dumps(profile.mu)},\n'
            f'  "nu": {json.dumps(profile.nu)}\n}}')


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
    complex values (n, k) as re, im column pairs: the per-value FLOAT_FMT text,
    with each distinct float formatted once and filled into one row template."""
    table = np.asarray(columns, dtype=float)
    if values is not None:
        values = np.asarray(values)
        table = np.column_stack([table, np.stack([values.real, values.imag], axis=-1)
                                 .reshape(table.shape[0], -1)])
    row = ",".join(["%s"] * table.shape[1]) + "\n"
    return header + "\n" + (row * table.shape[0]) % _float_texts(table, FLOAT_FMT)


def grid_to_csv(grid: GridProfile) -> str:
    """Serialize a vector grid profile as CSV with 17-significant-digit floats."""
    if not grid.is_vector:
        raise ValueError("CSV serialization expects vector samples")
    directions = np.column_stack([np.repeat(grid.p, grid.sphere.n),
                                  np.tile(grid.sphere.nodes, (grid.p.size, 1))])
    return format_csv(GRID_CSV_HEADER, directions, grid.samples.reshape(-1, 3))


def grid_from_csv(text: str, sphere: SphereQuadrature) -> GridProfile:
    """Rebuild a grid profile from CSV rows ordered as written by grid_to_csv."""
    with warnings.catch_warnings():
        # a header-only text is the "rows" error below, not numpy's empty-input warning
        warnings.simplefilter("ignore", UserWarning)
        data = np.loadtxt(io.StringIO(text), delimiter=",", skiprows=1, ndmin=2)
    n_dir = sphere.n
    n_p = data.shape[0] // n_dir
    if n_p == 0 or data.shape != (n_p * n_dir, 10):
        raise ValueError(f"CSV must hold n_p x {n_dir} rows of 10 columns")
    nodes = np.tile(sphere.nodes, (n_p, 1))
    if not np.all(np.linalg.norm(data[:, 1:4] - nodes, axis=1) <= DIRECTION_TOL):
        raise ValueError("CSV directions differ from the sphere quadrature nodes")
    samples = (data[:, 4::2] + 1j * data[:, 5::2]).reshape(n_p, n_dir, 3)
    return GridProfile(p=data[::n_dir, 0], sphere=sphere, samples=samples)
