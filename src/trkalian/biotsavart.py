"""Riesz potential, Biot-Savart integrals, Ampere fluxes and the
semi-analytic Biot-Savart evaluation for the Lundquist field.

Volume quadratures come in two kinds.  "ball" rules are re-centered on the
evaluation point so the 1/|x-y| and 1/|x-y|^2 kernels are cancelled exactly
by the spherical Jacobian; they are the accurate choice for decaying fields.
"box" rules are fixed tensor grids with an exclusion ball around the
evaluation point plus the analytic locally-constant correction.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .core import (_chunks, _tensor_boundary, bessel_j, fd_field, field_reals, from_reals,
                   gauss_legendre, gauss_tensor_rule, plane_basis, sphere_quadrature)

TAIL_RESIDUAL_TOL = 1e-7


class BoundaryContributionWarning(UserWarning):
    """Field not negligible at the truncated integration boundary."""


class TailTruncationWarning(UserWarning):
    """Oscillatory tail quadrature residual above tolerance."""


# ---------------------------------------------------------------------------
# volume quadratures
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VolumeQuadrature:
    """Quadrature over a ball (re-centered per evaluation) or a fixed box.

    ``extent`` is the ball radius or the box half-width.  The exclusion
    radius bounds the singular ball around the evaluation point; it is only
    consumed by the box rule (the ball rule is singularity-free by
    construction) but must always be positive and small against the domain.
    """

    kind: str
    extent: float
    n_per_axis: int = 48
    n_radial: int = 48
    n_polar: int = 16
    n_azimuth: int = 32
    exclusion_radius: float = 1e-3

    def __post_init__(self):
        if self.kind not in ("ball", "box"):
            raise ValueError("kind must be 'ball' or 'box'")
        if not (np.isfinite(self.extent) and self.extent > 0):
            raise ValueError(f"extent (ball radius or box half-width) must be finite and"
                             f" positive, got {self.extent}")
        if not 0 < self.exclusion_radius < 0.25 * self.extent:
            raise ValueError("exclusion radius must be positive and small against the domain")


def ball_quadrature(radius: float, n_radial: int = 48, n_polar: int = 16,
                    n_azimuth: int = 32) -> VolumeQuadrature:
    return VolumeQuadrature(kind="ball", extent=radius, n_radial=n_radial,
                            n_polar=n_polar, n_azimuth=n_azimuth,
                            exclusion_radius=1e-6 * radius)


def box_quadrature(half_width: float, n_per_axis: int = 48,
                   exclusion_radius: float | None = None) -> VolumeQuadrature:
    cell = 2.0 * half_width / n_per_axis
    if exclusion_radius is None:
        exclusion_radius = 2.0 * cell
    return VolumeQuadrature(kind="box", extent=half_width, n_per_axis=n_per_axis,
                            exclusion_radius=exclusion_radius)


def _ball_nodes(quad: VolumeQuadrature):
    """Radii r, radial weights w_r, unit directions n_hat and angular weights w_omega."""
    r, wr = gauss_legendre(quad.n_radial)
    r = 0.5 * quad.extent * (r + 1.0)
    wr = 0.5 * quad.extent * wr
    sphere = sphere_quadrature(quad.n_polar, quad.n_azimuth)
    return r, wr, sphere.nodes, sphere.weights


def _ball_points(points: np.ndarray, r: np.ndarray, nhat: np.ndarray) -> np.ndarray:
    """Ball nodes x + r n_hat (k, radii, directions, 3) of the points (k, 3),
    built in one array."""
    pts = np.empty((points.shape[0], r.size, nhat.shape[0], 3))
    np.multiply(r[:, None, None], nhat, out=pts)
    pts += points[:, None, None, :]
    return pts


def _as_points(x) -> np.ndarray:
    """Evaluation points (..., 3) as floats; ValueError unless a non-empty finite batch."""
    x = np.asarray(x, dtype=float)
    if x.ndim == 0 or x.shape[-1] != 3:
        raise ValueError(f"evaluation points must have shape (..., 3), got {x.shape}")
    if x.size == 0:
        raise ValueError("empty batch of evaluation points")
    if not np.all(np.isfinite(x)):
        raise ValueError("evaluation points must be finite")
    return x


def _separation(points: np.ndarray, nodes: np.ndarray):
    """x - y, components first (3, k, n), and |x - y| (k, n) for points (k, 3), nodes (n, 3)."""
    d = points.T[:, :, None] - nodes.T[:, None, :]
    return d, np.sqrt(d[0] * d[0] + d[1] * d[1] + d[2] * d[2])


def _wedge(m: np.ndarray) -> np.ndarray:
    """Sum over nodes of F x K, per point, from the moments m (points, 3,
    reals) = sum K_a F_b.

    The reals axis holds the three components of F, each as one real or as
    a (real, imaginary) pair; the result (points, reals) has the same layout.
    """
    m = m.reshape(m.shape[0], 3, 3, -1)
    out = np.stack([m[:, 2, 1] - m[:, 1, 2], m[:, 0, 2] - m[:, 2, 0], m[:, 1, 0] - m[:, 0, 1]],
                   axis=1)
    return out.reshape(m.shape[0], -1)


def _warn_boundary(quad: VolumeQuadrature, edge: np.ndarray, result: np.ndarray) -> None:
    """Warn once when at some point of the batch the field magnitude on the
    outermost nodes of the rule, edge (k,) or one value for all points, times
    the extent, exceeds 1e-6 of the result (k, ...).  A magnitude is the
    largest |Re| or |Im| of any component."""
    k = result.shape[0]
    estimate = np.broadcast_to(edge * quad.extent, (k,))
    result_norm = np.abs(result).reshape(k, -1).max(axis=1)
    over = estimate > 1e-6 * np.maximum(result_norm, 1e-300)
    if np.any(over):
        worst = np.argmax(np.where(over, estimate / np.maximum(result_norm, 1e-300), -np.inf))
        warnings.warn(
            f"boundary contribution estimate exceeds 1e-6 of the result at "
            f"{np.count_nonzero(over)} of {k} points (worst: {estimate[worst]:.2e} "
            f"against {result_norm[worst]:.2e}); enlarge the integration domain",
            BoundaryContributionWarning,
            stacklevel=3,
        )


def riesz_potential(fn, x, quad: VolumeQuadrature) -> np.ndarray:
    """(1/4 pi) integral of F(y) / |x - y| over the quadrature domain.

    ``x (..., 3)`` is a batch of evaluation points; the result has the batch
    shape followed by the value shape of ``fn``.  Raises ValueError on an
    empty or non-finite batch, before the field is evaluated.  Warns once
    per batch (BoundaryContributionWarning) when the field is not
    negligible on the domain boundary.
    """
    x = _as_points(x)
    flat = x.reshape(-1, 3)
    sums = []
    if quad.kind == "ball":
        r, wr, nhat, womega = _ball_nodes(quad)
        edges = []
        for xc in _chunks(flat, r.size * nhat.shape[0]):
            vf, value_shape, cplx = field_reals(fn, _ball_points(xc, r, nhat))
            edges.append(np.abs(vf[:, -1]).max(axis=(1, 2)))  # the outermost shell
            # kernel 1/r times Jacobian r^2 leaves a factor r on each ray
            rays = (wr * r) @ vf.reshape(xc.shape[0], r.size, -1)
            sums.append(womega @ rays.reshape(xc.shape[0], nhat.shape[0], -1))
        edge = np.concatenate(edges)
    else:
        # smooth singularity split: the locally constant part under a
        # Gaussian bump of scale eps integrates to (1/4 pi) 2 pi eps^2 F(x)
        # exactly, and the compensated integrand (F(y) - bump F(x)) / |x - y|
        # is bounded at y = x; by linearity it is summed as two contractions
        nodes, weights = gauss_tensor_rule(quad.extent, quad.n_per_axis)
        vf, value_shape, cplx = field_reals(fn, nodes)
        edge = np.abs(np.take(vf, _tensor_boundary(quad.n_per_axis, 3), axis=0)).max()
        eps = quad.exclusion_radius
        for xc in _chunks(flat, nodes.shape[0]):
            _, dist = _separation(xc, nodes)
            kern = weights / np.where(dist < 1e-300, np.inf, dist)  # zero on a node at x
            bump = np.sum(kern * np.exp(-((dist / eps) ** 2)), axis=1)
            center = field_reals(fn, xc)[0]
            # one (1, n) @ (n, reals) product per point keeps a point's sum
            # independent of the batch it comes in
            acc = (kern[:, None, :] @ vf)[:, 0]
            sums.append(acc + (2.0 * np.pi * eps**2 - bump)[:, None] * center)
    result = from_reals(np.concatenate(sums) / (4.0 * np.pi), value_shape, cplx)
    _warn_boundary(quad, edge, result)
    return result.reshape(x.shape[:-1] + value_shape)


def bs_integral(fn, x, quad: VolumeQuadrature) -> np.ndarray:
    """(1/4 pi) integral of F(y) x (x - y) / |x - y|^3 (the induced field).

    ``x (..., 3)`` is a batch of evaluation points and the result has shape
    ``x.shape``.  Raises ValueError on an empty or non-finite batch, before
    the field is evaluated.  Warns once per batch
    (BoundaryContributionWarning) when the field is not negligible on the
    domain boundary.
    """
    x = _as_points(x)
    flat = x.reshape(-1, 3)
    sums = []
    if quad.kind == "ball":
        r, wr, nhat, womega = _ball_nodes(quad)
        # (x - y)/|x - y|^3 = -n_hat / r^2 cancels the Jacobian exactly, so
        # the kernel is linear in F along each ray: sum the rays first, then
        # take one cross product per direction
        wn = (womega[:, None] * nhat).T
        edges = []
        for xc in _chunks(flat, r.size * nhat.shape[0]):
            vf, value_shape, cplx = field_reals(fn, _ball_points(xc, r, nhat))
            edges.append(np.abs(vf[:, -1]).max(axis=(1, 2)))  # the outermost shell
            rays = wr @ vf.reshape(xc.shape[0], r.size, -1)
            sums.append(-_wedge(wn @ rays.reshape(xc.shape[0], nhat.shape[0], -1)))
        edge = np.concatenate(edges)
        result = from_reals(np.concatenate(sums), value_shape, cplx) / (4.0 * np.pi)
    else:
        # smooth cutoff W ~ (d/eps)^4 near the point keeps the integrand
        # bounded and the result smooth in x; the suppressed part carries no
        # contribution for locally constant fields (odd kernel) and
        # +(eps^2/4) curl F(x) for locally linear ones: the angular average
        # gives (1/3) curl F times int (1 - W) r dr = 3 eps^2 / 4
        nodes, weights = gauss_tensor_rule(quad.extent, quad.n_per_axis)
        vf, value_shape, cplx = field_reals(fn, nodes)
        edge = np.abs(np.take(vf, _tensor_boundary(quad.n_per_axis, 3), axis=0)).max()
        eps = quad.exclusion_radius
        for xc in _chunks(flat, nodes.shape[0]):
            d, dist = _separation(xc, nodes)
            cutoff = (1.0 - np.exp(-((dist / eps) ** 2))) ** 2
            kern = weights * cutoff / np.where(cutoff > 0, dist, np.inf) ** 3
            # moments sum_y K d_a F_b, then the antisymmetric part
            sums.append(_wedge((kern * d).transpose(1, 0, 2) @ vf))
        result = from_reals(np.concatenate(sums), value_shape, cplx) / (4.0 * np.pi)
        result = result + 0.25 * eps**2 * fd_field(fn, "curl")(flat)
    _warn_boundary(quad, edge, result)
    return result.reshape(x.shape)


# ---------------------------------------------------------------------------
# Ampere fluxes
# ---------------------------------------------------------------------------

def ampere_fluxes(fn, radius: float, nu: float,
                  center=(0.0, 0.0, 0.0), normal=(0.0, 0.0, 1.0)):
    """Flux of F, flux of curl F and circulation of F for a planar disc.

    The default disc is the origin-centered circle of given radius in the
    xy-plane; any planar loop can be supplied through ``center`` and
    ``normal``.  Returns (Q, Phi_surface, Phi_line); for a field with
    curl F = nu F these satisfy Phi_surface = Phi_line = nu Q.  The three
    numbers come from independent rules: 48-node radial Gauss-Legendre x 64
    uniform azimuths for the two surface fluxes (curl by the finite-difference
    oracle) and the 64-point periodic trapezoid for the line integral.
    Raises ValueError, before the field is evaluated, unless the radius is
    finite and positive, the center finite and the normal finite and nonzero.
    """
    if not (np.isfinite(radius) and radius > 0):
        raise ValueError(f"radius must be finite and positive, got {radius}")
    center = np.asarray(center, dtype=float)
    if center.shape != (3,) or not np.all(np.isfinite(center)):
        raise ValueError(f"center must be a finite 3-vector, got {center}")
    n_hat = np.asarray(normal, dtype=float)
    if n_hat.shape != (3,) or not np.all(np.isfinite(n_hat)) or not np.any(n_hat):
        raise ValueError(f"normal must be a finite nonzero 3-vector, got {n_hat}")
    n_hat = n_hat / np.linalg.norm(n_hat)
    e1, e2 = plane_basis(n_hat)

    r, wr = gauss_legendre(48)
    r = 0.5 * radius * (r + 1.0)
    wr = 0.5 * radius * wr
    phi = 2.0 * np.pi * np.arange(64) / 64
    dphi = 2.0 * np.pi / 64

    radial = np.cos(phi)[None, :, None] * e1 + np.sin(phi)[None, :, None] * e2
    nodes = center + r[:, None, None] * radial
    area_w = (wr * r)[:, None] * dphi

    f_disc = np.asarray(fn(nodes.reshape(-1, 3))).reshape(nodes.shape)
    q = np.sum(area_w * (f_disc @ n_hat))

    curl_disc = fd_field(fn, "curl")(nodes.reshape(-1, 3)).reshape(nodes.shape)
    phi_surface = np.sum(area_w * (curl_disc @ n_hat))

    loop = center + radius * radial[0]
    tangent = -np.sin(phi)[:, None] * e1 + np.cos(phi)[:, None] * e2
    f_loop = np.asarray(fn(loop))
    phi_line = np.sum(np.einsum("jc,jc->j", f_loop, tangent)) * radius * dphi

    return q, phi_surface, phi_line


# ---------------------------------------------------------------------------
# Poisson angular integrals (azimuthal reduction of the cylindrical kernel)
# ---------------------------------------------------------------------------

def poisson_angular_moments(big_r: float, r: float, theta: float):
    """Closed forms of int dphi/a^2 and int {sin, cos}(phi) dphi/a^2 with
    a^2 = R^2 + r^2 - 2 r R cos(phi - theta).

    The region split at r = R follows the interchange rule for the Poisson
    kernel; the split is guarded by :func:`poisson_region_match`.
    """
    if r == big_r:
        raise ValueError("moments are singular on the matching circle r = R")
    if r < big_r:
        denom = big_r**2 - r**2
        scale = r / big_r
    else:
        denom = r**2 - big_r**2
        scale = big_r / r
    j0 = 2.0 * np.pi / denom
    return j0, j0 * scale * np.sin(theta), j0 * scale * np.cos(theta)


def poisson_angular_moments_numeric(big_r: float, r: float, theta: float):
    """:func:`poisson_angular_moments` by the 8192-point trapezoid rule."""
    phi = 2.0 * np.pi * np.arange(8192) / 8192
    a2 = big_r**2 + r**2 - 2.0 * r * big_r * np.cos(phi - theta)
    w = 2.0 * np.pi / 8192
    return (np.sum(w / a2), np.sum(w * np.sin(phi) / a2), np.sum(w * np.cos(phi) / a2))


def poisson_region_match(big_r: float, theta: float) -> float:
    """Mismatch of the normalized first moments across the r = R split.

    The closed-form ratios (int sin / int 1, int cos / int 1) are compared
    between the two region formulas at r = R (1 -/+ 1e-6) and against direct
    quadrature at radii well away from the split (where the integrand is
    resolvable); returns the max deviation.
    """
    worst = 0.0
    for r in (0.5 * big_r, 1.5 * big_r):
        j0, js, jc = poisson_angular_moments(big_r, r, theta)
        n0, ns, nc = poisson_angular_moments_numeric(big_r, r, theta)
        worst = max(worst, abs(js - ns), abs(jc - nc), abs(j0 - n0))
    inner = poisson_angular_moments(big_r, big_r * (1.0 - 1e-6), theta)
    outer = poisson_angular_moments(big_r, big_r * (1.0 + 1e-6), theta)
    worst = max(worst,
                abs(inner[1] / inner[0] - outer[1] / outer[0]),
                abs(inner[2] / inner[0] - outer[2] / outer[0]))
    return worst


# ---------------------------------------------------------------------------
# semi-analytic Biot-Savart of the Lundquist field
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LundquistBSTerms:
    """Term breakdown of the five-way decomposition after the z and phi
    integrations are done in closed form.

    The first term vanishes identically; the remaining four combine in pairs
    whose logarithmic singularities at x = nu R cancel exactly, leaving the
    finite radial integrals recorded here.
    """

    theta_pair: float
    z_pair: float
    theta_identity_residual: float
    tail_identity_residual: float


def _gauss_panels(a: float, b: float, n_panels: int):
    x, w = gauss_legendre(16)
    edges = np.linspace(a, b, n_panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    pts = mid[:, None] + half[:, None] * x[None, :]
    wts = half[:, None] * w[None, :]
    return pts.reshape(-1), wts.reshape(-1)


def bs_lundquist_terms(nu: float, radius: float) -> LundquistBSTerms:
    """Radial reductions of the Biot-Savart integral of the Lundquist field.

    theta_pair carries (1/X) int_0^X J_0(x) x dx (equal to J_1(X)); z_pair
    carries int_X^inf J_1 dx evaluated as a finite oscillatory quadrature
    over [X, X + 60] closed by the exact remainder J_0(X + 60), and equals
    J_0(X).
    """
    if not (np.isfinite(radius) and radius > 0):
        raise ValueError(f"radius must be finite and positive, got {radius}")
    if not (np.isfinite(nu) and nu != 0.0):
        raise ValueError(f"nu must be finite and nonzero, got {nu}")
    big_x = abs(nu) * radius

    xs, ws = _gauss_panels(0.0, big_x, n_panels=max(8, int(big_x / np.pi) + 4))
    theta_pair = float(np.sum(ws * bessel_j(0, xs) * xs)) / big_x
    theta_res = abs(theta_pair - bessel_j(1, big_x))

    x_cut = big_x + 60.0
    xs, ws = _gauss_panels(big_x, x_cut, n_panels=int(60.0 / np.pi) + 4)
    tail = float(np.sum(ws * bessel_j(1, xs))) + bessel_j(0, x_cut)
    tail_res = abs(tail - bessel_j(0, big_x))
    if tail_res > TAIL_RESIDUAL_TOL:
        warnings.warn(
            f"oscillatory tail residual {tail_res:.2e} exceeds {TAIL_RESIDUAL_TOL:.0e}",
            TailTruncationWarning,
            stacklevel=2,
        )

    return LundquistBSTerms(
        theta_pair=theta_pair,
        z_pair=tail,
        theta_identity_residual=theta_res,
        tail_identity_residual=tail_res,
    )


def bs_lundquist_semianalytic(f0: float, nu: float, radius: float, theta: float) -> np.ndarray:
    """Biot-Savart integral of the Lundquist field at (R, theta, z = 0).

    Assembles the closed z and phi reductions; the result equals
    (1/nu) F_L(R, theta) for any radius.
    """
    terms = bs_lundquist_terms(nu, radius)
    e_theta = np.array([-np.sin(theta), np.cos(theta), 0.0])
    e_z = np.array([0.0, 0.0, 1.0])
    sign = 1.0 if nu > 0 else -1.0
    coeff = f0 / abs(nu)
    return coeff * terms.theta_pair * e_theta + sign * coeff * terms.z_pair * e_z
