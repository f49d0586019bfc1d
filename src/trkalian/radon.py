"""Radon transforms of vector fields and the transform-space Gamma calculus.

Two profile representations coexist.  Analytic profiles hold distributional
transforms of constant-curl fields exactly, as atoms: a direction on the
sphere carrying a pure tone exp(i omega p) with a complex 3-vector (or
scalar) amplitude and a quadrature weight (1 for a point delta on the
sphere, 2 pi / n for nodes discretizing a line delta such as the equatorial
ring).  The atoms are stored as four arrays, one row per atom, so every atom
identity is an array expression; ``AnalyticProfile.atoms`` is a tuple of
row views.  Grid profiles hold samples over a periodic p-grid times a sphere
quadrature, and their operators act on the coefficient table of their
trigonometric interpolant (:attr:`GridProfile.table`), one row per frequency
and one column per sphere node, whose Nyquist bin is split between -pi/dp
and +pi/dp, so that the table is closed under parity: Gamma and the 1/k^2
kernel multiply its rows and sample back by one inverse FFT, and the
reconstructions sum it per direction as a polynomial in e^{i dw kappa . x}.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .core import (DIRECTION_TOL, PlaneQuadrature, SphereQuadrature, _check_finite, _chunks,
                   _finite_points, _tensor_boundary, as_direction, circle_rule, cross, fd_field,
                   field_reals, from_reals, plane_basis, plane_wave_sum)
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

@dataclass(frozen=True, slots=True)
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
_ATOM_ARRAYS = {"directions": float, "frequencies": float, "amplitudes": complex, "weights": float}


@dataclass(frozen=True, eq=False)
class AnalyticProfile:
    """Finite atom sum representing a transform-space field exactly; atom j
    is row j of the arrays, amplitudes being (n, 3) or, for scalars, (n,).
    The arrays are private read-only copies.  An operator derives its result
    from a validated profile (:meth:`_derive`), checking only the arrays it
    computes and sharing the others; nu, mu and g are checked by their readers."""

    directions: np.ndarray
    frequencies: np.ndarray
    amplitudes: np.ndarray
    weights: np.ndarray
    nu: float
    mu: int = 1
    g: float = 1.0

    def __post_init__(self):
        self._check(_ATOM_ARRAYS)

    def _check(self, names) -> None:
        """Store the named atom arrays as private read-only copies, so the
        validated rows cannot change later, and check them: the shapes of all
        four, and of the named ones unit directions, finite frequencies and
        amplitudes, and positive finite weights."""
        for name in names:
            value = np.array(getattr(self, name), dtype=_ATOM_ARRAYS[name])
            value.flags.writeable = False
            object.__setattr__(self, name, value)
        n = self.frequencies.size
        if (self.directions.shape != (n, 3) or self.frequencies.shape != (n,)
                or self.weights.shape != (n,) or self.amplitudes.shape not in ((n,), (n, 3))):
            raise ValueError("profile arrays must be shaped directions (n, 3), frequencies"
                             " (n,), amplitudes (n, 3) or (n,) and weights (n,)")
        if "directions" in names:
            as_direction(self.directions)
        if not all(np.isfinite(getattr(self, name)).all() for name in ("frequencies", "amplitudes")
                   if name in names):
            raise ValueError("atom frequencies and amplitudes must be finite")
        if "weights" in names and not ((self.weights > 0.0) & np.isfinite(self.weights)).all():
            raise ValueError("atom weights must be positive and finite")

    def _derive(self, **arrays) -> "AnalyticProfile":
        """This profile with the given atom arrays, which alone are checked; the
        arrays it keeps are this profile's own, being read-only."""
        derived = object.__new__(AnalyticProfile)
        for name in (*_ATOM_ARRAYS, "nu", "mu", "g"):
            object.__setattr__(derived, name, arrays.get(name, getattr(self, name)))
        derived._check(arrays)
        return derived

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
        for each query (d, f), or -1 (:func:`_match`)."""
        return _match(self.directions, self.frequencies, np.reshape(directions, (-1, 3)),
                      np.reshape(frequencies, -1), tol)

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


def _match(directions, frequencies, query_d, query_f, tol: float) -> np.ndarray:
    """Lowest row j of directions (n, 3) and frequencies (n,) with
    |frequencies[j] - f| < tol and |directions[j] - d| < tol for each query
    (d, f) of query_d (m, 3) and query_f (m,), or -1; after one O(n log n) sort
    of the rows' projections, a binary search finds each query's candidates."""
    keys = directions @ _MATCH_AXIS[:3] + frequencies * _MATCH_AXIS[3]
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
               & (np.abs(frequencies[cand] - query_f) < tol)
               & (np.linalg.norm(directions[cand] - query_d, axis=-1) < tol))
        found = np.where(hit & ((found < 0) | (cand < found)), cand, found)
    return found


def _check_scalars(nu, mu, g) -> None:
    """ValueError naming nu, mu or g unless nu is finite and nonzero, mu is +1
    or -1 and g is finite and positive: a profile's scalars, which its
    constructor leaves to the functions that read them."""
    _check_finite("nonzero", nu=nu)
    if mu not in (1, -1):
        raise ValueError(f"mu must be +1 or -1, got {mu!r}")
    _check_finite("positive", g=g)


def validate_p_grid(p) -> np.ndarray:
    """The p-grid as floats; ValueError unless finite, uniform, increasing
    and of power-of-two size."""
    p = np.asarray(p, dtype=float)
    if p.ndim != 1 or p.size < 2 or (p.size & (p.size - 1)) != 0:
        raise ValueError("p-grid size must be a power of two")
    _check_finite(p=p)
    dp = np.diff(p)
    if not (dp[0] > 0.0 and np.allclose(dp, dp[0], rtol=0, atol=1e-12 * dp[0])):
        raise ValueError("p-grid must be uniform and increasing")
    return p


@dataclass(frozen=True)
class GridProfile:
    """Samples over a uniform periodic p-grid times a sphere quadrature.

    ``samples`` has shape (n_p, n_dir, 3) for vector data or (n_p, n_dir)
    for scalar data.  n_p must be a power of two; the grid covers one period
    [p0, p0 + n_p dp).  ``p`` and ``samples`` are private read-only copies,
    so the cached :attr:`table` cannot go stale.
    """

    p: np.ndarray
    sphere: SphereQuadrature
    samples: np.ndarray

    def __post_init__(self):
        p = np.array(validate_p_grid(self.p))
        samples = np.array(self.samples, dtype=complex)
        if samples.shape[:2] != (p.size, self.sphere.n) or samples.shape[2:] not in ((), (3,)):
            raise ValueError("samples must be shaped (n_p, n_dir[, 3])")
        if not np.all(np.isfinite(samples)):
            raise ValueError("grid samples must be finite")
        for name, value in (("p", p), ("samples", samples)):
            value.flags.writeable = False
            object.__setattr__(self, name, value)

    @property
    def is_vector(self) -> bool:
        return self.samples.ndim == 3

    @cached_property
    def table(self) -> tuple[np.ndarray, np.ndarray]:
        """The trigonometric interpolant sum_i coeffs[i, j] e^{i omega_i p} at
        node j, by one FFT along p, built on first use: read-only frequencies
        omega (n_p + 1,) and coefficients (n_p + 1, n_dir[, 3]), c_ij
        e^{-i omega_i p[0]} / n_p.  omega[:n_p] is 2 pi ``np.fft.fftfreq``; the
        Nyquist term is halved between -pi/dp (i = n_p / 2) and +pi/dp
        (i = n_p), so row i and row (n_p - i) mod n_p (n_p / 2 and n_p) hold
        exactly negated frequencies.  ValueError if the table is not finite."""
        n_p = self.p.size
        omega = 2.0 * np.pi * np.fft.fftfreq(n_p, d=self.p[1] - self.p[0])
        omega = np.append(omega, -omega[n_p // 2])
        scale = np.exp(-1j * omega * self.p[0]) / np.where(np.abs(omega) == omega[-1], 2 * n_p, n_p)
        coeffs = (scale * np.fft.fft(self.samples, axis=0)[np.r_[:n_p, n_p // 2]].T).T
        if not (np.isfinite(omega).all() and np.isfinite(coeffs).all()):
            raise ValueError("the grid's interpolant is not finite: its frequencies or FFT overflow")
        omega.flags.writeable = coeffs.flags.writeable = False
        return omega, coeffs

    def dc_content(self) -> float:
        """Max |coefficient| in the omega = 0 row of :attr:`table`."""
        omega, coeffs = self.table
        return float(np.max(np.abs(coeffs[omega == 0.0]), initial=0.0))

    def parity_defect(self) -> float:
        """Max |coeffs[i, j] - coeffs[i', j']| over :attr:`table`, where row i'
        holds -omega_i and node j' is -kappa_j: the sphere's ``antipode_index``,
        else the lowest node within 1e-9 of it (inf when some node has none).
        This is the parity defect of the interpolant, F(-p, -kappa) = F(p, kappa)."""
        n_p, nodes = self.p.size, self.sphere.nodes
        omega, coeffs = self.table
        anti = self.sphere.antipode_index
        if anti is None:
            zero = np.zeros(len(nodes))
            anti = _match(nodes, zero, -nodes, zero, 1e-9)
            if np.any(anti < 0):
                return np.inf
        half = n_p // 2
        neg = np.r_[0, n_p - 1:half:-1, n_p, half - 1:0:-1, half]
        return float(np.max(np.abs(coeffs - coeffs[neg][:, anti]), initial=0.0))


def _resample(grid: GridProfile, coeffs: np.ndarray) -> GridProfile:
    """``grid`` sampled from ``coeffs`` (n_p + 1, n_dir[, 3]) over the
    frequencies of its :attr:`~GridProfile.table`: the p[0] shift undone, the
    Nyquist halves folded back, then one inverse FFT along p."""
    n_p = grid.p.size
    coeffs = (np.exp(1j * grid.table[0] * grid.p[0]) * n_p * coeffs.T).T
    coeffs[n_p // 2] += coeffs[n_p]
    return replace(grid, samples=np.fft.ifft(coeffs[:n_p], axis=0))


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


# ---------------------------------------------------------------------------
# numeric forward transform
# ---------------------------------------------------------------------------

# Points per field call, the size of a transform's one point buffer (384 KiB
# at 32^2 nodes); a plane is never split.  The default grid transform times
# alike at 2^14 and 2^15, about 10 % slower at 2^13 and 2^16 (2 cores, 8
# interleaved runs each); 2^14 has the smaller buffer.
_CHUNK_POINTS = 2**14


def _plane_sums(fn, p, k, quad: PlaneQuadrature):
    """Weighted sums of ``fn`` over the planes p (m,) = k (m, 3) . x, with
    each plane's peak and edge magnitude (m,); the sums are (m,) followed by
    the value shape of ``fn``.  Each plane's sum depends on that plane only.
    The chunks share one point buffer: ``fn`` must not keep its argument."""
    e1, e2 = plane_basis(k)
    x1, w1 = quad.nodes_1d()
    n = quad.n_per_axis
    w = (w1[:, None] * w1[None, :]).reshape(-1)
    ring = _tensor_boundary(n)
    step = max(1, _CHUNK_POINTS // n**2)
    buf = np.empty((3, min(step, p.size), n, n))
    # A plane's points are the outer sum row[a] + col[b] (row = p k + x_a e1,
    # col = x_b e2), built as the product [row, 1] @ [1, col]: by exact ones, the
    # same rounded sum, FMA or not, but -0.0 + -0.0 may give +0.0 (only if
    # p = +-0.0; see README)
    rows, cols = np.ones(buf.shape[:3] + (2,)), np.ones(buf.shape[:2] + (2, n))
    sums, peaks, edges = [], [], []
    for c in (slice(s, s + step) for s in range(0, p.size, step)):
        q = p[c].size
        np.add((p[c] * k[c].T)[..., None], x1 * e1[c].T[..., None], out=rows[:, :q, :, 0])
        np.multiply(x1, e2[c].T[..., None], out=cols[:, :q, 1])
        pts = np.matmul(rows[:, :q], cols[:, :q], out=buf[:, :q])  # (3, planes, n, n)
        # real view (planes, n^2, reals per node), reduced before the next chunk
        vf, value_shape, cplx = field_reals(fn, pts.reshape(3, -1).T)
        vf = vf.reshape(pts.shape[1], n * n, -1)
        peaks.append(np.abs(vf).max(axis=(1, 2)))
        edges.append(np.abs(np.take(vf, ring, axis=1)).max(axis=(1, 2)))
        sums.append(w @ vf)  # (planes, reals per node)

    peak = np.concatenate(peaks)
    if not np.all(np.isfinite(peak)):
        raise ValueError("field is not finite on the plane")
    out = from_reals(np.concatenate(sums), value_shape, cplx)
    return out, peak, np.concatenate(edges)


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
    plane's value depends on that plane only.  The chunks' points share one
    buffer, so ``fn`` must not keep a reference to its argument after it
    returns.  Raises ValueError on a NaN or Inf p or an empty batch before the
    field is called, and on a non-finite field.  Warns once (TruncationWarning)
    when on some plane the magnitude at the boundary exceeds 1e-10 of that
    over the plane; a magnitude is the largest |Re| or |Im| of any component.
    """
    _check_finite(p=p)
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
    only in summation order, so :meth:`GridProfile.parity_defect` tests the
    interpolant and the wrap of the p-range, not the plane quadrature; that
    needs two :func:`radon_forward_numeric` planes (verify record ``radon_parity``).
    Warns once (TruncationWarning), counting over all n_p x n_dir planes.
    As there, ``fn`` must not keep a reference to its argument.
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
    _check_finite(f0=f0)
    _check_finite("nonzero", nu=nu)
    if not (isinstance(n_ring, (int, np.integer)) and n_ring >= 4 and n_ring % 2 == 0):
        raise ValueError(f"n_ring must be an even integer >= 4, got {n_ring!r}")
    coeff = 2.0 * np.pi * 1j * f0 / nu**2
    psi, w = circle_rule(n_ring)
    cos, sin = np.cos(psi), np.sin(psi)
    minus_i = np.full(n_ring, -1j)  # complex(-0.0, -1.0), as the literal -1j
    ell = np.stack([sin, -cos, minus_i], axis=1)
    ellp = np.stack([-sin, cos, minus_i], axis=1)
    return AnalyticProfile(
        directions=np.repeat(np.stack([cos, sin, np.zeros(n_ring)], axis=1), 2, axis=0),
        frequencies=np.tile([nu, -nu], n_ring),
        amplitudes=(coeff * np.stack([ell, ellp], axis=1)).reshape(-1, 3),
        weights=np.full(2 * n_ring, w), nu=nu, mu=1, g=1.0)


def scalar_wave_profile(kappa0, omega: float, coefficient: complex = 1.0) -> AnalyticProfile:
    """Transform of the scalar plane wave c e^{i omega kappa0 . x} (atom pair);
    ValueError unless omega is finite and nonzero."""
    _check_finite("nonzero", omega=omega)
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
        return cross(kappa, values)
    if kind == "dot":
        return np.einsum("...k,...k->...", kappa, values)
    return values[..., None] * kappa


def gamma_apply(profile, kind: str):
    """Apply Gamma = kappa d/dp composed with the requested kappa product.

    Exact frequency multiplication on atoms, and on the rows of a periodic
    grid's :attr:`~GridProfile.table`, which is sampled back.  ``kind`` is
    "cross", "dot" or "grad".
    """
    grid = isinstance(profile, GridProfile)
    omega, amplitudes = profile.table if grid else (profile.frequencies, profile.amplitudes)
    out = kappa_product(profile.sphere.nodes[None] if grid else profile.directions,
                        amplitudes, kind)
    out = (1j * omega).reshape((-1,) + (1,) * (out.ndim - 1)) * out
    return _resample(profile, out) if grid else profile._derive(amplitudes=out)


def gamma_cross_eigendefect(profile: AnalyticProfile) -> float:
    """Max atom-wise residual of Gamma x F = mu nu F (ValueError as for
    :func:`_check_scalars` on the profile's nu, mu and g)."""
    _check_scalars(profile.nu, profile.mu, profile.g)
    return gamma_apply(profile, "cross").amplitude_distance(profile, profile.mu * profile.nu)


# ---------------------------------------------------------------------------
# intertwining with physical-space derivatives
# ---------------------------------------------------------------------------


def intertwining_check(fn, kappa, p: float, kind: str, quad: PlaneQuadrature) -> float:
    """Residual of R[D F] = Gamma_D R[F] at one (p, kappa).

    The left side runs the numeric transform over the finite-difference
    derivative field (step FD_DEFAULT_STEP).  The right side transforms 64
    planes at p + (j - 32) / 4, one period [p - 8, p + 8) of a one-direction
    grid, and reads :func:`gamma_apply` of that grid at p: the p-derivative
    of the trigonometric interpolant, exact to rounding for fields whose
    transform decays within 8 of p.
    """
    k = as_direction(kappa)
    kinds = {"curl": ("curl", "cross"), "div": ("divergence", "dot"), "grad": ("gradient", "grad")}
    if kind not in kinds:
        raise ValueError(f"unknown kind {kind!r}")
    fd_kind, product = kinds[kind]
    lhs = radon_forward_numeric(fd_field(fn, fd_kind), p, k, quad)

    ps = p + 0.25 * (np.arange(64) - 32)
    line = SphereQuadrature(nodes=k.reshape(1, 3), weights=np.ones(1))
    grid = GridProfile(p=ps, sphere=line, samples=radon_forward_numeric(fn, ps, k, quad)[:, None])
    rhs = gamma_apply(grid, product).samples[32, 0]
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

    Exact on atoms, at points x (..., 3); a grid profile reconstructs its
    trigonometric interpolant on the grid's sphere (:func:`_grid_sum`).
    """
    if isinstance(profile, GridProfile):
        return _grid_sum(profile, x, slice(None), 8.0 * np.pi**2)
    return _atom_sum(profile, x, profile.weights * profile.frequencies**2 / (8.0 * np.pi**2))


def hemisphere_inverse(profile, hemisphere: Hemisphere, x):
    """Refined reconstruction -(1/4 pi^2) over a canonical hemisphere only, grids included."""
    if isinstance(profile, GridProfile):
        return _grid_sum(profile, x, hemisphere.members(profile.sphere.nodes), 4.0 * np.pi**2)
    scale = profile.weights * profile.frequencies**2 / (4.0 * np.pi**2)
    return _atom_sum(profile, x, np.where(hemisphere.members(profile.directions), scale, 0.0))


def _grid_sum(grid: GridProfile, x, keep, denominator: float):
    """Sum over the nodes j in ``keep`` and the rows i of the grid's table of
    w_j omega_i^2 / denominator coeffs[i, j] e^{i omega_i kappa_j . x}, at x (..., 3).

    Row i holds k dw with |k| <= K = n_p / 2, so per node the sum is a
    polynomial of degree K in z = e^{i dw kappa_j . x} and one in conj(z),
    both without constant term, as omega = 0 carries no weight.  The two are
    evaluated side by side by Horner's rule, in point chunks, with kappa . x
    written as three products, not a BLAS product that rounds by the shape of
    the batch, and each point's terms are summed over the nodes in one
    reduction of its own: a point's value has the same bits in any batch.
    Raises ValueError on a non-finite point.
    """
    x = _finite_points(x)
    omega, coeffs = grid.table
    n_p, half = grid.p.size, grid.p.size // 2
    nodes, weights = grid.sphere.nodes[keep], grid.sphere.weights[keep] / denominator
    d_omega = omega[n_p] / half  # +pi/dp over K; omega[1] is -pi/dp when n_p = 2
    # pair k - 1: the rows of +k dw and -k dw, the terms of z^k and conj(z)^k
    k = np.arange(1, half + 1)
    rows = np.stack([np.where(k < half, k, n_p), n_p - k], axis=1)
    # (K, 2, [3,] nodes) in one gather, so each Horner step runs over whole rows
    terms = np.moveaxis(coeffs[:, keep], 1, -1)[rows]
    value_axes = (1,) * (coeffs.ndim - 2)  # broadcast over the components of a vector grid
    terms *= (omega[rows, None] ** 2 * weights).reshape((half, 2) + value_axes + (len(nodes),))
    flat = x.reshape(-1, 3)
    out = np.empty((flat.shape[0],) + coeffs.shape[2:], dtype=complex)
    start = 0
    for xc in _chunks(flat, terms[0].size):
        phase = xc[:, :1] * nodes[:, 0] + xc[:, 1:2] * nodes[:, 1] + xc[:, 2:] * nodes[:, 2]
        z = np.exp(1j * d_omega * phase)
        z = np.stack([z, z.conj()], axis=1).reshape((len(xc), 2) + value_axes + (len(nodes),))
        acc = np.repeat(terms[-1:], len(xc), axis=0)
        for row in terms[-2::-1]:
            acc *= z
            acc += row
        acc *= z
        total = acc.sum(axis=-1)  # (points, 2[, 3]): each point's own sums
        out[start:start + len(xc)] = total[:, 0] + total[:, 1]
        start += len(xc)
    return out.reshape(x.shape[:-1] + coeffs.shape[2:])


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
    return profile._derive(
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
    return profile._derive(directions=profile.directions @ t.T)


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
    The probe reads the atoms within 1e-9 of kappa, at a finite p, after
    :func:`_check_scalars` on the profile's nu, mu and g.
    """
    _check_scalars(profile.nu, profile.mu, profile.g)
    _check_finite(p=p)
    k = as_direction(kappa)
    if not profile.is_vector:
        raise ValueError("probe requires vector amplitudes")
    at_k = np.linalg.norm(profile.directions - k, axis=-1) < 1e-9
    tones = np.exp(1j * profile.frequencies[at_k] * p)
    pref = profile.g * profile.nu**2 / np.sqrt(2.0 * np.pi)
    q1 = moses_frame(k, 1)
    out = []
    for a_idx, probe in ((1, np.conj(q1)), (2, -q1)):  # conj(Q_2) = -Q_1, bit for bit
        total = np.sum(tones * (profile.amplitudes[at_k] @ probe))
        phase = np.exp(-1j * profile.mu * helicity_of(a_idx) * profile.nu * p)
        out.append(complex(pref * phase * total))
    return out[0], out[1]


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def _float_texts(values, fmt: str) -> np.ndarray:
    """``fmt % v`` for each value of a flat float array, as an object array, each distinct
    value formatted once; told apart by bits, so -0.0 and 0.0 keep their own text.  A
    profile's columns share values, so one sort over them beats one per column."""
    bits = np.ascontiguousarray(values, dtype=float).view(np.int64)
    bits, index = np.unique(bits, return_inverse=True)
    return np.array([fmt % v for v in bits.view(float).tolist()], dtype=object)[index]


_JSON_COLUMNS = ("amplitude_im", "amplitude_re", "direction", "frequency", "weight")


def profile_to_json(profile: AnalyticProfile) -> str:
    """Serialize an analytic profile as the text of json.dumps(indent=2,
    sort_keys=True) over g, mu, nu and the columns: flat row-major float lists
    of n w amplitude parts (w = 3, or 1 for a scalar profile), 3 n direction
    components and n frequencies and weights.  The floats fill one template, as
    json writes a finite float as its repr; each distinct one is formatted once."""
    columns = (profile.amplitudes.imag, profile.amplitudes.real, profile.directions,
               profile.frequencies, profile.weights)
    entries = {key: "[\n" + ",\n".join(["    %s"] * col.size) + "\n  ]" if col.size else "[]"
               for key, col in zip(_JSON_COLUMNS, columns)}
    entries.update((key, json.dumps(getattr(profile, key))) for key in ("g", "mu", "nu"))
    template = "{\n" + ",\n".join(f'  "{key}": {entries[key]}' for key in sorted(entries)) + "\n}"
    texts = _float_texts(np.concatenate([column.ravel() for column in columns]), "%r")
    return template % tuple(texts.tolist())


def profile_from_json(text: str) -> AnalyticProfile:
    """Rebuild an analytic profile from :func:`profile_to_json` output, of amplitude
    width len(amplitude_re) / len(frequency), 3 when empty.  ValueError as for
    :func:`_check_scalars`, then one naming a column that is missing, not a flat list
    of numbers or not of its length, or naming ``atoms`` for older per-atom records."""
    payload = json.loads(text)
    nu, mu, g = payload["nu"], payload["mu"], payload["g"]
    _check_scalars(nu, mu, g)
    if "atoms" in payload:
        raise ValueError("atoms: the text holds per-atom 'atoms' records, not the columns")
    columns = {}
    for key in _JSON_COLUMNS:  # any other JSON value has another kind or dimension
        try:
            column = np.array(payload.get(key))
        except ValueError:  # nested lists of unequal lengths
            column = np.array(None)
        if column.dtype.kind not in "iuf" or column.ndim != 1:
            raise ValueError(f"{key} must be a flat list of numbers, got {payload.get(key)!r:.80}")
        columns[key] = column
    n, re = columns["frequency"].size, columns["amplitude_re"]
    width = 3 if re.size == 3 * n else 1
    for key, size, wanted in (("amplitude_re", width * n, "n or 3 n numbers"),
                              ("amplitude_im", re.size, "as many numbers as amplitude_re"),
                              ("direction", 3 * n, "3 n numbers"), ("weight", n, "n numbers")):
        if columns[key].size != size:
            raise ValueError(f"{key} must hold {wanted}, got {columns[key].size} for n = {n}")
    amplitudes = np.column_stack([re, columns["amplitude_im"]]).astype(float).view(complex)[:, 0]
    return AnalyticProfile(directions=columns["direction"].reshape(n, 3),
                           frequencies=columns["frequency"], weights=columns["weight"],
                           amplitudes=amplitudes.reshape(n, 3) if width == 3 else amplitudes,
                           nu=nu, mu=mu, g=g)


GRID_CSV_HEADER = "p,kx,ky,kz,re_fx,im_fx,re_fy,im_fy,re_fz,im_fz"
FLOAT_FMT = "%.17g"


def format_csv(header: str, columns, values) -> str:
    """CSV text of a header line and rows of real columns (n, m), followed by
    complex values (n, k) as re, im column pairs: the per-value FLOAT_FMT text.
    Each column's text, its separator included, comes from :func:`_float_texts`,
    and the cells are joined in row order; a table of no rows is the header line."""
    table = np.column_stack([np.asarray(columns, dtype=float),  # then (n, 2 k) re, im pairs
                             np.ascontiguousarray(values, dtype=complex).view(float)])
    n, m = table.shape
    cells = np.empty(n * m + 1, dtype=object)
    cells[0] = header + "\n"
    rows = cells[1:].reshape(n, m)
    for j in range(m):
        rows[:, j] = _float_texts(table[:, j], FLOAT_FMT + ("," if j < m - 1 else "\n"))
    return "".join(cells.tolist())


def grid_to_csv(grid: GridProfile) -> str:
    """Serialize a vector grid profile as CSV with 17-significant-digit floats."""
    if not grid.is_vector:
        raise ValueError("CSV serialization expects vector samples")
    directions = np.column_stack([np.repeat(grid.p, grid.sphere.n),
                                  np.tile(grid.sphere.nodes, (grid.p.size, 1))])
    return format_csv(GRID_CSV_HEADER, directions, grid.samples.reshape(-1, 3))


def grid_from_csv(text: str, sphere: SphereQuadrature) -> GridProfile:
    """Rebuild a grid profile from CSV rows ordered as written by grid_to_csv.

    Raises ValueError unless the first line is GRID_CSV_HEADER and the rows
    are n_p blocks of one row per sphere node, in the sphere's node order,
    and every row of a block holds the block's p bit for bit.  Rows count
    from 0, the line after the header.
    """
    lines = text.split("\n")  # only "\n" ends a line, as in a text stream; CRLF leaves "\r"
    header = lines[0].removesuffix("\r")
    if header != GRID_CSV_HEADER:
        raise ValueError(f"CSV is no grid_to_csv text: its header is {header[:120]!r}")
    with warnings.catch_warnings():
        # a header-only text is the "rows" error below, not numpy's empty-input warning
        warnings.simplefilter("ignore", UserWarning)
        data = np.loadtxt(lines, delimiter=",", skiprows=1, ndmin=2)
    del lines  # freed before the samples are built, so the read peaks at about 2x the text
    n_dir = sphere.n
    n_p = data.shape[0] // n_dir
    if n_p == 0 or data.shape != (n_p * n_dir, 10):
        raise ValueError(f"CSV must hold n_p x {n_dir} rows of 10 columns")
    # every row of a block of n_dir rows carries the block's p, bit for bit
    bits = data[:, 0].reshape(n_p, n_dir).view(np.int64)
    off = np.flatnonzero(bits != bits[:, :1])
    if off.size:
        row = int(off[0])
        first = float(data[row - row % n_dir, 0])
        raise ValueError(f"CSV row {row} has p = {float(data[row, 0])!r}, not its block's "
                         f"p = {first!r} (each p is {n_dir} consecutive rows)")
    nodes = np.tile(sphere.nodes, (n_p, 1))
    if not np.all(np.linalg.norm(data[:, 1:4] - nodes, axis=1) <= DIRECTION_TOL):
        raise ValueError("CSV directions differ from the sphere quadrature nodes")
    samples = (data[:, 4::2] + 1j * data[:, 5::2]).reshape(n_p, n_dir, 3)
    return GridProfile(p=data[::n_dir, 0], sphere=sphere, samples=samples)
