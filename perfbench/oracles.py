"""Closed-form references the benchmark checks the program against.

Everything here is numpy/scipy only; nothing calls into ``trkalian``.
"""

from __future__ import annotations

import numpy as np
from scipy.special import erf, j0, j1

TRUNCATION_THRESHOLD = 1e-10  # the plane-edge/peak ratio the program warns above


def gaussian_field(x, center, width, pol):
    """P exp(-|x - c|^2 / w^2) at points x (n, 3)."""
    d = np.asarray(x, dtype=float) - center
    return np.exp(-np.sum(d * d, axis=-1) / width**2)[..., None] * pol


def gaussian_plane_integral(p, kappa, center, width, pol):
    """R(p, kappa) = pi w^2 exp(-(p - kappa.c)^2 / w^2) P, shape (n_p, n_dir, 3)."""
    s = np.asarray(p)[:, None] - (kappa @ center)[None, :]
    return (np.pi * width**2 * np.exp(-(s / width) ** 2))[..., None] * pol


def gaussian_plane_derivative(p, kappa, center, width, pol):
    """d/dp of :func:`gaussian_plane_integral`."""
    s = np.asarray(p)[:, None] - (kappa @ center)[None, :]
    return (-2.0 * s / width**2)[..., None] * gaussian_plane_integral(p, kappa, center, width, pol)


def plane_edge_log_ratio(e1, e2, center, width, half_width, n_per_axis):
    """log(edge / peak) of |Gaussian| on the truncated Gauss-Legendre plane.

    The ratio does not depend on p: the Gaussian factors into an in-plane
    part and exp(-(p - kappa.c)^2 / w^2).  Computed in logs so that it never
    underflows.
    """
    x, _ = np.polynomial.legendre.leggauss(n_per_axis)
    x = half_width * x
    a1 = e1 @ center
    a2 = e2 @ center
    d1 = (x[None, :] - a1[:, None]) ** 2  # (n_dir, n)
    d2 = (x[None, :] - a2[:, None]) ** 2
    peak = d1.min(axis=1) + d2.min(axis=1)
    edge = np.minimum(
        np.minimum(d1[:, 0], d1[:, -1]) + d2.min(axis=1),
        np.minimum(d2[:, 0], d2[:, -1]) + d1.min(axis=1))
    return -(edge - peak) / width**2


def gaussian_riesz(x, center, width, pol):
    """(1/4 pi) int P e^{-|y-c|^2/w^2} / |x - y| dy = (sqrt(pi) w^3/4) erf(r/w)/r P."""
    r = np.linalg.norm(np.asarray(x) - center)
    return np.sqrt(np.pi) * width**3 / 4.0 * erf(r / width) / r * pol


def gaussian_biot_savart(x, center, width, pol):
    """Curl of the Riesz potential: grad(phi) x P."""
    d = np.asarray(x) - center
    r = np.linalg.norm(d)
    a = np.sqrt(np.pi) * width**3 / 4.0
    dphi = a * (2.0 / (np.sqrt(np.pi) * width) * np.exp(-(r / width) ** 2) / r
                - erf(r / width) / r**2)
    return np.cross(dphi * d / r, pol)


def lundquist_field(x, f0, nu):
    """F0 [J1(nu r) e_theta + J0(nu r) e_z] (nu > 0)."""
    x = np.asarray(x, dtype=float)
    r = np.hypot(x[..., 0], x[..., 1])
    safe = np.where(r > 0, r, 1.0)
    jr = np.where(r > 0, j1(nu * r) / safe, 0.0)
    out = np.empty(x.shape, dtype=complex)
    out[..., 0] = -f0 * jr * x[..., 1]
    out[..., 1] = f0 * jr * x[..., 0]
    out[..., 2] = f0 * j0(nu * r)
    return out


def lundquist_axial_flux(f0, nu, radius):
    """Flux of the Lundquist field through the origin-centred disc in z = 0."""
    return 2.0 * np.pi * f0 * radius * j1(nu * radius) / nu


def atom_sum_inverse(directions, frequencies, amplitudes, weights, x, scale):
    """sum_j scale_j w_j A_j exp(i f_j kappa_j . x) over atoms, at points x (n, 3)."""
    phase = np.exp(1j * (np.asarray(x) @ directions.T) * frequencies[None, :])
    coef = scale * weights
    return phase @ (coef[:, None] * amplitudes)
