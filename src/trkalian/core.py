"""Geometry, quadrature, special functions and finite-difference oracles.

Everything downstream (frames, fields, transforms) builds on the helpers
here: unit directions on S^2, product quadratures on the sphere and on
truncated planes, integer-order Bessel functions, and high-order central
difference oracles for curl / divergence / gradient / Laplacian.

Each numerical primitive has exactly one implementation, owned here:

- Gauss-Legendre rule: :func:`gauss_legendre` (1-D on [-1, 1], built once
  per order), :func:`gauss_tensor_rule` (3-D tensor rule on a cube) and
  :func:`_tensor_boundary` (the boundary nodes of a box or plane rule);
- sphere product rule: :func:`sphere_quadrature`;
- 4th-order central-difference stencils: :func:`fd_field`, of which
  :func:`fd_derivative_oracle` is the one-point call;
- real view of field values for float-only sums and magnitudes:
  :func:`field_reals` and its inverse :func:`from_reals`;
- plane-wave sums at a batch of points: :func:`plane_wave_sum`, in the
  point chunks of :func:`_chunks` that the volume integrals also use.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

DIRECTION_TOL = 1e-12


def as_direction(v) -> np.ndarray:
    """Validate that ``v`` is a unit 3-vector (or batch thereof) and return it.

    Raises ValueError if any norm deviates from 1 by more than
    ``DIRECTION_TOL`` or is not finite.
    """
    v = np.asarray(v, dtype=float)
    if v.shape[-1:] != (3,):
        raise ValueError(f"direction must have 3 components, got shape {v.shape}")
    # rounds as np.linalg.norm does, without its general-order dispatch
    n = np.sqrt(np.add.reduce(v * v, axis=-1))
    if not (np.abs(n - 1.0) <= DIRECTION_TOL).all():
        raise ValueError(f"direction not unit: |norm - 1| = {np.max(np.abs(n - 1.0)):.3e}")
    return v


def field_reals(fn, pts: np.ndarray):
    """fn at pts (..., 3) as floats (..., reals per value), with the value
    shape and whether the values are complex."""
    vals = np.asarray(fn(pts.reshape(-1, 3)))
    cplx = np.iscomplexobj(vals)
    vf = np.ascontiguousarray(vals, dtype=complex if cplx else float).view(float)
    return vf.reshape(pts.shape[:-1] + (-1,)), vals.shape[1:], cplx


def from_reals(reals: np.ndarray, value_shape: tuple, cplx: bool) -> np.ndarray:
    """Results (k, reals per value) back as values (k, *value_shape)."""
    reals = np.ascontiguousarray(reals)
    return (reals.view(complex) if cplx else reals).reshape((reals.shape[0],) + value_shape)


# Cap on the (point, node) pairs handled at once, a few MB per temporary;
# a single point is never split.
_CHUNK_PAIRS = 2**16


def _chunks(points: np.ndarray, n_nodes: int):
    """Consecutive slices of the points (k, 3) with at most _CHUNK_PAIRS (point, node) pairs."""
    step = max(1, _CHUNK_PAIRS // max(n_nodes, 1))
    return (points[s:s + step] for s in range(0, points.shape[0], step))


def plane_wave_sum(x, directions, frequencies, amplitudes) -> np.ndarray:
    """Sum over waves j of amplitudes_j exp(i frequencies_j directions_j . x)
    at x (..., 3), for directions (n, 3), frequencies (n,) and amplitudes
    (n, ...); shaped x.shape[:-1] + amplitudes.shape[1:], zeros when n = 0.
    Each chunk of points is one phase matrix and one matrix product.
    Raises ValueError on a non-finite point."""
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ValueError("evaluation points must be finite")
    amplitudes = np.asarray(amplitudes, dtype=complex)
    flat = x.reshape(-1, 3)
    out = np.empty((flat.shape[0],) + amplitudes.shape[1:], dtype=complex)
    start = 0
    for xc in _chunks(flat, len(frequencies)):
        out[start:start + len(xc)] = np.exp(1j * ((xc @ directions.T) * frequencies)) @ amplitudes
        start += len(xc)
    return out.reshape(x.shape[:-1] + amplitudes.shape[1:])


# ---------------------------------------------------------------------------
# Gauss-Legendre rules
# ---------------------------------------------------------------------------

@lru_cache(maxsize=64)
def gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], built once per order.

    The arrays are shared by every caller and therefore read-only.
    """
    x, w = np.polynomial.legendre.leggauss(n)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def gauss_tensor_rule(half_width: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Tensor Gauss-Legendre rule on the cube [-half_width, half_width]^3.

    Returns nodes (n^3, 3) and weights (n^3,).  The nodes are stored
    components first, so ``nodes.T`` is contiguous.
    """
    x, w = gauss_legendre(n)
    x = half_width * x
    w = half_width * w
    nodes = np.empty((3, n, n, n))
    nodes[0] = x[:, None, None]
    nodes[1] = x[:, None]
    nodes[2] = x
    weights = (w[:, None, None] * w[None, :, None] * w[None, None, :]).reshape(-1)
    nodes = nodes.reshape(3, -1).T
    return nodes, weights


def _tensor_boundary(n: int, d: int) -> np.ndarray:
    """Flat indices of the boundary nodes of an n^d tensor rule in C order:
    the nodes that are first or last along some axis."""
    side = np.isin(np.arange(n), (0, n - 1))
    return np.flatnonzero(reduce(np.logical_or.outer, (side,) * d))


# ---------------------------------------------------------------------------
# sphere quadrature
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SphereQuadrature:
    """Nodes and weights on the unit sphere.

    ``nodes`` has shape (n, 3), ``weights`` shape (n,) in steradians and sums
    to 4 pi.  When ``antipode_index`` is set the node set is closed under
    kappa -> -kappa exactly (bitwise) and ``antipode_index[i]`` gives the
    partner of node i.
    """

    nodes: np.ndarray
    weights: np.ndarray
    antipode_index: np.ndarray | None = None

    @property
    def n(self) -> int:
        return self.nodes.shape[0]

    def integrate(self, values: np.ndarray) -> np.ndarray:
        """Sum values (n, ...) against the weights (deterministic pairwise sum)."""
        values = np.asarray(values)
        w = self.weights.reshape((-1,) + (1,) * (values.ndim - 1))
        return np.sum(w * values, axis=0)


def sphere_quadrature(n_polar: int, n_azimuth: int, antipodal: bool = False) -> SphereQuadrature:
    """Product Gauss-Legendre (in cos(theta)) x uniform azimuth rule on S^2.

    The uniform azimuth grid is spectrally accurate for periodic integrands.
    With ``antipodal`` the azimuth count must be even and nodes are mirrored
    exactly so each node has a bitwise negated partner.
    """
    if n_polar < 2 or n_azimuth < 4:
        raise ValueError("need n_polar >= 2 and n_azimuth >= 4")
    if antipodal and n_azimuth % 2 != 0:
        raise ValueError("antipodal closure requires an even azimuth count")

    u, wu = gauss_legendre(n_polar)
    # enforce exact +/- symmetry of the Legendre nodes
    u = 0.5 * (u - u[::-1])
    wu = 0.5 * (wu + wu[::-1])
    phi = 2.0 * np.pi * np.arange(n_azimuth) / n_azimuth

    st = np.sqrt(np.clip(1.0 - u * u, 0.0, None))
    nodes = np.empty((n_polar, n_azimuth, 3))
    nodes[:, :, 0] = st[:, None] * np.cos(phi)[None, :]
    nodes[:, :, 1] = st[:, None] * np.sin(phi)[None, :]
    nodes[:, :, 2] = u[:, None]
    weights = np.broadcast_to(wu[:, None] * (2.0 * np.pi / n_azimuth), (n_polar, n_azimuth)).copy()

    nodes = nodes.reshape(-1, 3)
    antipode_index = None
    if antipodal:
        # node (iu, ip) pairs with (n_polar - 1 - iu, ip + half); the later
        # node of each pair is overwritten with the exact negation of the
        # earlier one, so the pairing is bitwise, not just within rounding
        idx = np.arange(n_polar * n_azimuth).reshape(n_polar, n_azimuth)
        antipode_index = idx[::-1, (np.arange(n_azimuth) + n_azimuth // 2) % n_azimuth].reshape(-1)
        later = antipode_index > np.arange(nodes.shape[0])
        nodes[antipode_index[later]] = -nodes[later]

    return SphereQuadrature(
        nodes=nodes,
        weights=weights.reshape(-1),
        antipode_index=antipode_index,
    )


# ---------------------------------------------------------------------------
# plane basis and plane quadrature
# ---------------------------------------------------------------------------

def plane_basis(kappa: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic right-handed orthonormal basis (e1, e2) of the plane normal to kappa.

    Seed axis is the coordinate axis with the smallest |kappa component|
    (first index on ties), orthogonalized against kappa; e2 = kappa x e1.
    ``kappa`` may be one direction (3,) or a batch (..., 3); e1 and e2 have
    its shape.
    """
    k = as_direction(kappa)
    axis = np.argmin(np.abs(k), axis=-1)[..., None]
    seed = (np.arange(3) == axis).astype(float)
    e1 = seed - np.take_along_axis(k, axis, axis=-1) * k
    # |e1|^2 as a matrix product rounds like the BLAS dot of one direction
    e1 /= np.sqrt(e1[..., None, :] @ e1[..., :, None])[..., 0]
    e2 = np.cross(k, e1)
    return e1, e2


@dataclass(frozen=True)
class PlaneQuadrature:
    """Tensor Gauss-Legendre quadrature over the square [-half_width, half_width]^2."""

    half_width: float
    n_per_axis: int

    def __post_init__(self):
        if not (np.isfinite(self.half_width) and self.half_width > 0):
            raise ValueError(f"half_width must be finite and positive, got {self.half_width}")
        if self.n_per_axis < 2:
            raise ValueError("need at least 2 nodes per axis")

    def nodes_1d(self) -> tuple[np.ndarray, np.ndarray]:
        """Gauss-Legendre nodes and weights on [-half_width, half_width]."""
        x, w = gauss_legendre(self.n_per_axis)
        return self.half_width * x, self.half_width * w


# ---------------------------------------------------------------------------
# Bessel functions
# ---------------------------------------------------------------------------

def bessel_j(m: int, x) -> np.ndarray | float:
    """Bessel function of the first kind J_m for integer order m >= 0, x >= 0.

    Orders 0 and 1 use the dedicated J0 / J1 routines, which are some 30
    times faster than the general-order one.  scipy is imported on the
    first call, so importing the package does not load it.
    """
    if m < 0 or int(m) != m:
        raise ValueError("order must be a non-negative integer")
    x = np.asarray(x, dtype=float)
    if np.any(x < 0):
        raise ValueError("bessel_j requires x >= 0")
    from scipy import special

    m = int(m)
    out = special.j0(x) if m == 0 else special.j1(x) if m == 1 else special.jv(m, x)
    return float(out) if out.ndim == 0 else out


def bessel_j1_first_zero() -> float:
    """First positive zero of J_1, by bisection bracketed in (3, 4)."""
    lo, hi = 3.0, 4.0
    flo = bessel_j(1, lo)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fm = bessel_j(1, mid)
        if flo * fm <= 0:
            hi = mid
        else:
            lo, flo = mid, fm
        if hi - lo < 1e-14:
            break
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# finite-difference oracles
# ---------------------------------------------------------------------------

FD_DEFAULT_STEP = 1e-3

# (offsets, weights) of the 4th-order first and second derivative stencils
_FD_STENCILS = {
    1: (np.array([-2.0, -1.0, 1.0, 2.0]), np.array([1.0, -8.0, 8.0, -1.0]) / 12.0),
    2: (np.array([-2.0, -1.0, 0.0, 1.0, 2.0]), np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / 12.0),
}


def fd_derivative_oracle(fn, x, kind: str, h: float = FD_DEFAULT_STEP):
    """4th-order central-difference derivative of a smooth field at one point.

    The one-point call of :func:`fd_field`; ``fn`` must accept a batch of
    positions (n, 3).  Error is O(h^4).
    """
    return fd_field(fn, kind, h)(x)


def fd_field(fn, kind: str, h: float = FD_DEFAULT_STEP):
    """Vectorized field of finite-difference derivatives of ``fn``.

    ``kind`` is one of "curl" / "divergence" (vector fields), "gradient"
    (Jacobian rows d/dx_i, for scalar or vector fields) or "laplacian"
    (either; acts componentwise).  Returns a callable accepting positions
    (..., 3); all stencil evaluations for a batch are fused into a single
    call of ``fn``.  Error is O(h^4).
    """
    if kind not in ("curl", "divergence", "gradient", "laplacian"):
        raise ValueError(f"unknown derivative kind {kind!r}")
    if not h > 0:
        raise ValueError("step h must be positive")
    order = 2 if kind == "laplacian" else 1
    offsets, weights = _FD_STENCILS[order]

    def derived(x):
        x = np.asarray(x, dtype=float)
        flat = x.reshape(-1, 3)
        pts = (flat[:, None, None, :]
               + h * offsets[None, :, None, None] * np.eye(3)[None, None, :, :])
        vals = np.asarray(fn(pts.reshape(-1, 3)))
        vals = vals.reshape((flat.shape[0], offsets.size, 3) + vals.shape[1:])
        d = np.tensordot(vals, weights, axes=(1, 0)) / h**order  # (n, 3[, comps])
        if kind == "laplacian":
            out = d[:, 0] + d[:, 1] + d[:, 2]
            return out.reshape(x.shape[:-1] + out.shape[1:])
        if kind == "gradient":
            return d.reshape(x.shape[:-1] + d.shape[1:])
        if d.shape[2:] != (3,):
            raise ValueError("curl/divergence need a 3-vector field")
        if kind == "divergence":
            out = d[:, 0, 0] + d[:, 1, 1] + d[:, 2, 2]
            return out.reshape(x.shape[:-1])
        out = np.stack([
            d[:, 1, 2] - d[:, 2, 1],
            d[:, 2, 0] - d[:, 0, 2],
            d[:, 0, 1] - d[:, 1, 0],
        ], axis=-1)
        return out.reshape(x.shape[:-1] + (3,))

    return derived
