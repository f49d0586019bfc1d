"""Riesz potential, Biot-Savart integrals, Ampere fluxes and the
semi-analytic Biot-Savart evaluation for the Lundquist field.

Volume rules are of two types, each with only its own parameters.  A
:class:`BallQuadrature` (radius; radial, polar and azimuthal node counts) is
re-centered on the evaluation point, so the spherical Jacobian cancels the
1/|x-y| and 1/|x-y|^2 kernels exactly: the accurate choice for decaying
fields.  A :class:`BoxQuadrature` (half-width, nodes per axis) is a fixed
tensor grid less a ball of two cells around the evaluation point, its
``exclusion_radius`` (so more than 16 nodes per axis), plus the analytic
correction for that ball.  Biot-Savart is the curl of the Riesz potential;
both share one walk over the nodes per rule, each with its kernel and finish.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from .core import (_CHUNK_PAIRS, _check_finite, _chunks, _finite_points, bessel_j,
                   circle_rule, fd_field, field_reals, from_reals, gauss_legendre,
                   gauss_tensor_rule, sphere_quadrature)

TAIL_RESIDUAL_TOL = 1e-7


class BoundaryContributionWarning(UserWarning):
    """Field not negligible at the truncated integration boundary."""


class TailTruncationWarning(UserWarning):
    """Oscillatory tail quadrature residual above tolerance."""


# ---------------------------------------------------------------------------
# volume quadratures
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _VolumeRule:
    """The checks of ``extent`` and the node counts; ``kind`` is a class constant."""

    extent: float

    def __post_init__(self):
        _check_finite("positive", extent=self.extent)  # ball radius or box half-width
        for field in fields(self)[1:]:
            if not (isinstance(n := getattr(self, field.name), (int, np.integer)) and n > 0):
                raise ValueError(f"{field.name} must be a positive integer, got {n!r}")


@dataclass(frozen=True)
class BallQuadrature(_VolumeRule):
    """Ball of radius ``extent`` around each evaluation point: Gauss-Legendre
    radii times the sphere product rule; singularity-free by construction."""

    kind = "ball"
    n_radial: int = 48
    n_polar: int = 16
    n_azimuth: int = 32


@dataclass(frozen=True)
class BoxQuadrature(_VolumeRule):
    """Box of half-width ``extent``: the Gauss-Legendre tensor rule of ``n_per_axis``
    nodes per axis, less the :attr:`exclusion_radius` ball around each point."""

    kind = "box"
    n_per_axis: int = 48

    def __post_init__(self):
        super().__post_init__()
        if self.n_per_axis <= 16:
            raise ValueError(f"n_per_axis must exceed 16 for a box rule, whose exclusion ball of"
                             f" two cells must be small against the box, got {self.n_per_axis}")

    @property
    def exclusion_radius(self) -> float:
        """Radius of the exclusion ball: two cells, 4 extent / n_per_axis."""
        return 4.0 * self.extent / self.n_per_axis

    @cached_property
    def box_rule(self) -> tuple[np.ndarray, np.ndarray]:
        """The tensor rule, built once and shared, so read-only; not a field."""
        nodes, weights = gauss_tensor_rule(self.extent, self.n_per_axis)
        nodes.flags.writeable = weights.flags.writeable = False
        return nodes, weights


ball_quadrature, box_quadrature = BallQuadrature, BoxQuadrature


def _walk(fn, x, quad: BallQuadrature | BoxQuadrature, ball_weights, box_terms):
    """The sums of one volume operator over the rule's nodes at the points x (..., 3).

    The operator gives only its kernel: on a ball, ``ball_weights(r, w_r,
    w_omega, n_hat)`` gives the weights of the ray sums (radii,) and the rows
    of the direction sums, (directions,) or (m, directions); on a box,
    ``box_terms(x - y, |x - y|^2, w, F reals)`` gives one point's terms over
    a chunk of nodes.  Returns the points as floats, the sums per point
    (k, ...), the field magnitude on the rule's outermost nodes, and the
    value shape and complexness of the field.  Raises ValueError on an empty
    or non-finite batch, before the field is evaluated.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim == 0 or x.shape[-1] != 3:
        raise ValueError(f"evaluation points must have shape (..., 3), got {x.shape}")
    if x.size == 0:
        raise ValueError("empty batch of evaluation points")
    x = _finite_points(x)
    if quad.kind == "ball":
        return (x, *_ball_walk(fn, x.reshape(-1, 3), quad, ball_weights))
    return (x, *_box_walk(fn, x.reshape(-1, 3), quad, box_terms))


def _ball_walk(fn, flat: np.ndarray, quad: BallQuadrature, ball_weights):
    """The ball rule of :func:`_walk`: the nodes x + r n_hat of the points (k, 3)
    in the point chunks of :func:`_chunks`; each point's outermost shell is its edge."""
    r, wr = gauss_legendre(quad.n_radial)
    r = 0.5 * quad.extent * (r + 1.0)
    wr = 0.5 * quad.extent * wr
    sphere = sphere_quadrature(quad.n_polar, quad.n_azimuth)
    nhat = sphere.nodes
    ray_weights, rows = ball_weights(r, wr, sphere.weights, nhat)
    sums, edges = [], []
    for xc in _chunks(flat, r.size * nhat.shape[0]):
        pts = np.empty((xc.shape[0], r.size, nhat.shape[0], 3))
        np.multiply(r[:, None, None], nhat, out=pts)
        pts += xc[:, None, None, :]
        vf, value_shape, cplx = field_reals(fn, pts)
        edges.append(np.abs(vf[:, -1]).max(axis=(1, 2)))
        rays = ray_weights @ vf.reshape(xc.shape[0], r.size, -1)
        sums.append(rows @ rays.reshape(xc.shape[0], nhat.shape[0], -1))
    return np.concatenate(sums), np.concatenate(edges), value_shape, cplx


def _box_walk(fn, flat: np.ndarray, quad: BoxQuadrature, box_terms):
    """The box rule of :func:`_walk`: the nodes in chunks of whole planes of
    the first axis, at most _CHUNK_PAIRS nodes each (one plane when a plane
    holds more); the faces of the box are the edge.  The field sees every
    node once, and as the chunks depend on the rule only and each point has
    its own products, a point's sum is the same in any batch."""
    nodes, weights = quad.box_rule
    n = quad.n_per_axis
    # on 2 cores the volume op's four 48^3 box calls took 33-35 ms for chunks
    # of 2^13 to 2^16 nodes alike, and 64 ms in one chunk of 2^17
    step = max(1, _CHUNK_PAIRS // (n * n))
    sums = edge = 0.0
    for start in range(0, n, step):
        stop = min(start + step, n)
        rows = slice(start * n * n, stop * n * n)
        ys, w = nodes[rows].T, weights[rows]
        vf, value_shape, cplx = field_reals(fn, nodes[rows])
        # the faces by slicing read a few per cent of the chunk, where
        # gathering the _tensor_boundary indices costs some 0.5 ms a chunk
        cube = vf.reshape(stop - start, n, n, -1)
        faces = [cube[:, [0, -1]], cube[:, :, [0, -1]]]
        faces += [cube[i - start] for i in {0, n - 1} if start <= i < stop]
        edge = max([edge] + [np.abs(face).max() for face in faces])
        terms = []
        for xp in flat:
            d = xp[:, None] - ys
            terms.append(box_terms(d, d[0] * d[0] + d[1] * d[1] + d[2] * d[2], w, vf))
        sums = sums + np.array(terms)
        del vf, cube, faces, d  # freed first, so the next chunk reuses their heap, not new pages
    return sums, edge, value_shape, cplx


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


def _warn_boundary(quad: _VolumeRule, edge: np.ndarray, result: np.ndarray) -> None:
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


def riesz_potential(fn, x, quad: BallQuadrature | BoxQuadrature) -> np.ndarray:
    """(1/4 pi) integral of F(y) / |x - y| over the quadrature domain.

    ``x (..., 3)`` is a batch of evaluation points; the result has the batch
    shape followed by the value shape of ``fn``.  Raises ValueError on an
    empty or non-finite batch, before the field is evaluated.  Warns once
    per batch (BoundaryContributionWarning) when the field is not
    negligible on the domain boundary.
    """
    def box_terms(d, d2, w, vf):
        # smooth singularity split: the locally constant part under a
        # Gaussian bump of scale eps, the exclusion radius, integrates to
        # (1/4 pi) 2 pi eps^2 F(x) exactly, and the compensated integrand
        # (F(y) - bump F(x)) / |x - y| is bounded at y = x; by linearity it
        # is summed as the kernel's products with the field and with the bump
        kern = np.sqrt(d2)
        np.divide(w, kern, out=kern, where=kern > 0)  # zero on a node at x
        np.exp(np.divide(d2, -quad.exclusion_radius**2, out=d2), out=d2)  # bitwise -d2/eps^2
        return np.append(kern @ vf, kern @ d2)  # d2 holds the bump now

    # on the ball, the kernel 1/r times the Jacobian r^2 leaves a factor r on each ray
    x, sums, edge, value_shape, cplx = _walk(
        fn, x, quad, lambda r, wr, womega, nhat: (wr * r, womega), box_terms)
    if quad.kind == "box":  # per point the field sums, then the bump's
        center = field_reals(fn, x.reshape(-1, 3))[0]
        sums = sums[:, :-1] + (2.0 * np.pi * quad.exclusion_radius**2 - sums[:, -1:]) * center
    result = from_reals(sums / (4.0 * np.pi), value_shape, cplx)
    _warn_boundary(quad, edge, result)
    return result.reshape(x.shape[:-1] + value_shape)


def bs_integral(fn, x, quad: BallQuadrature | BoxQuadrature) -> np.ndarray:
    """(1/4 pi) integral of F(y) x (x - y) / |x - y|^3 (the induced field).

    ``x (..., 3)`` is a batch of evaluation points and the result has shape
    ``x.shape``.  Raises ValueError on an empty or non-finite batch, before
    the field is evaluated.  Warns once per batch
    (BoundaryContributionWarning) when the field is not negligible on the
    domain boundary.
    """
    def box_terms(d, d2, w, vf):
        # smooth cutoff W ~ (d/eps)^4 near the point, eps the exclusion
        # radius, keeps the integrand bounded and the result smooth in x; the
        # suppressed part carries no contribution for locally constant fields
        # (odd kernel) and +(eps^2/4) curl F(x) for locally linear ones: the
        # angular average gives (1/3) curl F times int (1 - W) r dr = 3 eps^2 / 4
        den = np.sqrt(d2)
        den *= d2  # |x - y|^3; in place, as the Riesz kernel
        cutoff = np.exp(np.divide(d2, -quad.exclusion_radius**2, out=d2), out=d2)
        np.square(np.subtract(1.0, cutoff, out=cutoff), out=cutoff)
        live = cutoff > 0
        cutoff *= w  # the kernel w cutoff / |x - y|^3, zero where the cutoff is
        return np.multiply(d, np.divide(cutoff, den, out=cutoff, where=live), out=d) @ vf

    # on the ball, (x - y)/|x - y|^3 = -n_hat / r^2 cancels the Jacobian
    # exactly, so the kernel is linear in F along each ray: the rays are
    # summed first, then one cross product per direction
    x, moments, edge, value_shape, cplx = _walk(
        fn, x, quad, lambda r, wr, womega, nhat: (wr, (womega[:, None] * nhat).T), box_terms)
    if quad.kind == "ball":
        result = from_reals(-_wedge(moments), value_shape, cplx) / (4.0 * np.pi)
    else:
        result = (from_reals(_wedge(moments), value_shape, cplx) / (4.0 * np.pi)
                  + 0.25 * quad.exclusion_radius**2 * fd_field(fn, "curl")(x.reshape(-1, 3)))
    _warn_boundary(quad, edge, result)
    return result.reshape(x.shape)


# ---------------------------------------------------------------------------
# Ampere fluxes
# ---------------------------------------------------------------------------

def ampere_fluxes(fn, radius: float, nu: float):
    """Flux of F, flux of curl F and circulation of F for the origin-centred
    disc of given radius in the xy-plane, the disc of the paper's Ampere
    relation for the Lundquist field.

    Returns (Q, Phi_surface, Phi_line); for a field with curl F = nu F these
    satisfy Phi_surface = Phi_line = nu Q.  ``nu`` is not read.  The three
    numbers come from independent rules: 48-node radial Gauss-Legendre x 64
    uniform azimuths for the two surface fluxes (curl by the finite-difference
    oracle) and the 64-point periodic trapezoid for the line integral.
    Raises ValueError, before the field is evaluated, unless the radius is
    finite and positive.
    """
    _check_finite("positive", radius=radius)
    e1, e2, n_hat = np.eye(3)

    r, wr = gauss_legendre(48)
    r = 0.5 * radius * (r + 1.0)
    wr = 0.5 * radius * wr
    phi, dphi = circle_rule(64)

    radial = np.cos(phi)[None, :, None] * e1 + np.sin(phi)[None, :, None] * e2
    nodes = r[:, None, None] * radial
    area_w = (wr * r)[:, None] * dphi

    f_disc = np.asarray(fn(nodes.reshape(-1, 3))).reshape(nodes.shape)
    q = np.sum(area_w * (f_disc @ n_hat))

    curl_disc = fd_field(fn, "curl")(nodes.reshape(-1, 3)).reshape(nodes.shape)
    phi_surface = np.sum(area_w * (curl_disc @ n_hat))

    loop = radius * radial[0]
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
    kernel; the split is guarded by :func:`poisson_region_match`.  Raises
    ValueError naming a non-finite argument.
    """
    _check_finite(big_r=big_r, r=r, theta=theta)
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
    phi, w = circle_rule(8192)
    a2 = big_r**2 + r**2 - 2.0 * r * big_r * np.cos(phi - theta)
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
    _check_finite("positive", radius=radius)
    _check_finite("nonzero", nu=nu)
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
    _check_finite(f0=f0, theta=theta)
    terms = bs_lundquist_terms(nu, radius)
    e_theta = np.array([-np.sin(theta), np.cos(theta), 0.0])
    e_z = np.array([0.0, 0.0, 1.0])
    sign = 1.0 if nu > 0 else -1.0
    coeff = f0 / abs(nu)
    return coeff * terms.theta_pair * e_theta + sign * coeff * terms.z_pair * e_z
