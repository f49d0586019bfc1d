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

from .core import (bessel_j, fd_derivative_oracle, fd_field, gauss_legendre, gauss_tensor_rule,
                   plane_basis, sphere_quadrature)

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
        if self.extent <= 0:
            raise ValueError("extent must be positive")
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


def _warn_boundary(fn, quad: VolumeQuadrature, x: np.ndarray, result_norm: float) -> None:
    if quad.kind == "ball":
        u = np.linspace(-1.0, 1.0, 7)
        phi = np.linspace(0.0, 2 * np.pi, 13, endpoint=False)
        st = np.sqrt(np.clip(1 - u * u, 0, None))
        probes = np.stack([
            np.outer(st, np.cos(phi)), np.outer(st, np.sin(phi)),
            np.outer(u, np.ones_like(phi)),
        ], axis=-1).reshape(-1, 3)
        probes = x + quad.extent * probes
    else:
        t = np.linspace(-quad.extent, quad.extent, 5)
        faces = []
        for axis in range(3):
            for sign in (-1.0, 1.0):
                a, b = np.meshgrid(t, t, indexing="ij")
                face = np.zeros(a.shape + (3,))
                face[..., axis] = sign * quad.extent
                face[..., (axis + 1) % 3] = a
                face[..., (axis + 2) % 3] = b
                faces.append(face.reshape(-1, 3))
        probes = np.concatenate(faces, axis=0)
    boundary = np.max(np.abs(np.asarray(fn(probes))))
    estimate = boundary * quad.extent
    if estimate > 1e-6 * max(result_norm, 1e-300):
        warnings.warn(
            f"boundary contribution estimate {estimate:.2e} exceeds 1e-6 of result "
            f"{result_norm:.2e}; enlarge the integration domain",
            BoundaryContributionWarning,
            stacklevel=3,
        )


def riesz_potential(fn, x, quad: VolumeQuadrature) -> np.ndarray:
    """(1/4 pi) integral of F(y) / |x - y| over the quadrature domain."""
    x = np.asarray(x, dtype=float)
    if quad.kind == "ball":
        r, wr, nhat, womega = _ball_nodes(quad)
        pts = x[None, None, :] + r[:, None, None] * nhat[None, :, :]
        vals = np.asarray(fn(pts.reshape(-1, 3))).reshape(r.size, nhat.shape[0], -1)
        # kernel 1/r times Jacobian r^2 leaves a factor r
        acc = np.einsum("i,j,ijc->c", wr * r, womega, vals)
        result = acc / (4.0 * np.pi)
    else:
        # smooth singularity split: the locally constant part under a
        # Gaussian bump of scale eps integrates to (1/4 pi) 2 pi eps^2 F(x)
        # exactly, and the compensated integrand is bounded at y = x
        nodes, weights = gauss_tensor_rule(quad.extent, quad.n_per_axis)
        eps = quad.exclusion_radius
        d = x[None, :] - nodes
        dist = np.linalg.norm(d, axis=-1)
        vals = np.asarray(fn(nodes))
        if vals.ndim == 1:
            vals = vals[:, None]
        center = np.atleast_1d(np.asarray(fn(x[None, :]))[0])
        bump = np.exp(-((dist / eps) ** 2))
        safe = np.where(dist < 1e-300, 1.0, dist)
        compensated = (vals - bump[:, None] * center[None, :]) / safe[:, None]
        compensated[dist < 1e-300] = 0.0
        acc = np.sum(weights[:, None] * compensated, axis=0)
        result = (acc + 2.0 * np.pi * eps**2 * center) / (4.0 * np.pi)
    result = np.squeeze(result) if result.size == 1 else result
    _warn_boundary(fn, quad, x, float(np.max(np.abs(result))))
    return result


def bs_integral(fn, x, quad: VolumeQuadrature) -> np.ndarray:
    """(1/4 pi) integral of F(y) x (x - y) / |x - y|^3 (the induced field)."""
    x = np.asarray(x, dtype=float)
    if quad.kind == "ball":
        r, wr, nhat, womega = _ball_nodes(quad)
        pts = x[None, None, :] + r[:, None, None] * nhat[None, :, :]
        vals = np.asarray(fn(pts.reshape(-1, 3))).reshape(r.size, nhat.shape[0], 3)
        # (x - y)/|x - y|^3 = -n_hat / r^2 cancels the Jacobian exactly
        integrand = -np.cross(vals, nhat[None, :, :])
        acc = np.einsum("i,j,ijc->c", wr, womega, integrand)
        result = acc / (4.0 * np.pi)
    else:
        # smooth cutoff W ~ (d/eps)^4 near the point keeps the integrand
        # bounded and the result smooth in x; the suppressed ball carries no
        # contribution for locally constant fields (odd kernel) and
        # -(eps^2/4) curl F(x) for locally linear ones
        nodes, weights = gauss_tensor_rule(quad.extent, quad.n_per_axis)
        eps = quad.exclusion_radius
        d = x[None, :] - nodes
        dist = np.linalg.norm(d, axis=-1)
        cutoff = (1.0 - np.exp(-((dist / eps) ** 2))) ** 2
        safe = np.where(dist < 1e-300, 1.0, dist)
        vals = np.asarray(fn(nodes))
        kern = (cutoff / safe**3)[:, None] * d
        result = np.sum(weights[:, None] * np.cross(vals, kern), axis=0) / (4.0 * np.pi)
        result = result - 0.25 * eps**2 * fd_derivative_oracle(fn, x, "curl")
    _warn_boundary(fn, quad, x, float(np.max(np.abs(result))))
    return result


# ---------------------------------------------------------------------------
# Ampere fluxes
# ---------------------------------------------------------------------------

def ampere_fluxes(fn, radius: float, nu: float, n_radial: int = 48,
                  n_azimuth: int = 64, h: float = 1e-3,
                  center=(0.0, 0.0, 0.0), normal=(0.0, 0.0, 1.0)):
    """Flux of F, flux of curl F and circulation of F for a planar disc.

    The default disc is the origin-centered circle of given radius in the
    xy-plane; any planar loop can be supplied through ``center`` and
    ``normal``.  Returns (Q, Phi_surface, Phi_line); for a field with
    curl F = nu F these satisfy Phi_surface = Phi_line = nu Q.  The three
    numbers come from independent rules: radial Gauss-Legendre x uniform
    azimuth for the two surface fluxes (curl by the finite-difference oracle)
    and periodic trapezoid for the line integral.
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    center = np.asarray(center, dtype=float)
    n_hat = np.asarray(normal, dtype=float)
    n_hat = n_hat / np.linalg.norm(n_hat)
    e1, e2 = plane_basis(n_hat)

    r, wr = gauss_legendre(n_radial)
    r = 0.5 * radius * (r + 1.0)
    wr = 0.5 * radius * wr
    phi = 2.0 * np.pi * np.arange(n_azimuth) / n_azimuth
    dphi = 2.0 * np.pi / n_azimuth

    radial = np.cos(phi)[None, :, None] * e1 + np.sin(phi)[None, :, None] * e2
    nodes = center + r[:, None, None] * radial
    area_w = (wr * r)[:, None] * dphi

    f_disc = np.asarray(fn(nodes.reshape(-1, 3))).reshape(n_radial, n_azimuth, 3)
    q = np.sum(area_w * (f_disc @ n_hat))

    curl_disc = fd_field(fn, "curl", h)(nodes.reshape(-1, 3)).reshape(n_radial, n_azimuth, 3)
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


def poisson_angular_moments_numeric(big_r: float, r: float, theta: float, n: int = 8192):
    phi = 2.0 * np.pi * np.arange(n) / n
    a2 = big_r**2 + r**2 - 2.0 * r * big_r * np.cos(phi - theta)
    w = 2.0 * np.pi / n
    return (np.sum(w / a2), np.sum(w * np.sin(phi) / a2), np.sum(w * np.cos(phi) / a2))


def poisson_region_match(big_r: float, theta: float, rel: float = 1e-6) -> float:
    """Mismatch of the normalized first moments across the r = R split.

    The closed-form ratios (int sin / int 1, int cos / int 1) are compared
    between the two region formulas at r = R (1 -/+ rel) and against direct
    quadrature at radii well away from the split (where the integrand is
    resolvable); returns the max deviation.
    """
    worst = 0.0
    for r in (0.5 * big_r, 1.5 * big_r):
        j0, js, jc = poisson_angular_moments(big_r, r, theta)
        n0, ns, nc = poisson_angular_moments_numeric(big_r, r, theta)
        worst = max(worst, abs(js - ns), abs(jc - nc), abs(j0 - n0))
    inner = poisson_angular_moments(big_r, big_r * (1.0 - rel), theta)
    outer = poisson_angular_moments(big_r, big_r * (1.0 + rel), theta)
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

    i1: np.ndarray
    theta_pair: float
    z_pair: float
    theta_identity_residual: float
    tail_identity_residual: float


def _gauss_panels(a: float, b: float, n_panels: int, n_nodes: int = 16):
    x, w = gauss_legendre(n_nodes)
    edges = np.linspace(a, b, n_panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    pts = mid[:, None] + half[:, None] * x[None, :]
    wts = half[:, None] * w[None, :]
    return pts.reshape(-1), wts.reshape(-1)


def bs_lundquist_terms(f0: float, nu: float, radius: float,
                       tail_length: float = 60.0) -> LundquistBSTerms:
    """Radial reductions of the Biot-Savart integral of the Lundquist field.

    theta_pair carries (1/X) int_0^X J_0(x) x dx (equal to J_1(X)); z_pair
    carries int_X^inf J_1 dx evaluated as a finite oscillatory quadrature
    closed by the exact remainder J_0(X_cut), and equals J_0(X).
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    if nu == 0.0:
        raise ValueError("nu must be nonzero")
    big_x = abs(nu) * radius

    xs, ws = _gauss_panels(0.0, big_x, n_panels=max(8, int(big_x / np.pi) + 4))
    theta_pair = float(np.sum(ws * bessel_j(0, xs) * xs)) / big_x
    theta_res = abs(theta_pair - bessel_j(1, big_x))

    x_cut = big_x + tail_length
    xs, ws = _gauss_panels(big_x, x_cut, n_panels=max(16, int(tail_length / np.pi) + 4))
    tail = float(np.sum(ws * bessel_j(1, xs))) + bessel_j(0, x_cut)
    tail_res = abs(tail - bessel_j(0, big_x))
    if tail_res > TAIL_RESIDUAL_TOL:
        warnings.warn(
            f"oscillatory tail residual {tail_res:.2e} exceeds {TAIL_RESIDUAL_TOL:.0e}",
            TailTruncationWarning,
            stacklevel=2,
        )

    return LundquistBSTerms(
        i1=np.zeros(3),
        theta_pair=theta_pair,
        z_pair=tail,
        theta_identity_residual=theta_res,
        tail_identity_residual=tail_res,
    )


def bs_lundquist_semianalytic(f0: float, nu: float, radius: float, theta: float,
                              tail_length: float = 60.0) -> np.ndarray:
    """Biot-Savart integral of the Lundquist field at (R, theta, z = 0).

    Assembles the closed z and phi reductions; the result equals
    (1/nu) F_L(R, theta) for any radius.
    """
    terms = bs_lundquist_terms(f0, nu, radius, tail_length=tail_length)
    e_theta = np.array([-np.sin(theta), np.cos(theta), 0.0])
    e_z = np.array([0.0, 0.0, 1.0])
    sign = 1.0 if nu > 0 else -1.0
    coeff = f0 / abs(nu)
    return coeff * terms.theta_pair * e_theta + sign * coeff * terms.z_pair * e_z
