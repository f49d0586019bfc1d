"""Fourier slice theorem and the Radon-Biot-Savart operator.

The RBS operator acts per direction on the p-dependence only: the 1/k^2
convolution in p (:func:`radon_riesz`), then Gamma x, i.e. (i / omega) kappa x
on an atom e^{i omega p}.  Both act on atoms, and on grids through their
``grid_atoms`` (Nyquist bin split between +-pi/dp, where Gamma x is zero); the
profile must have no zero-frequency content (for a grid, zero p-mean).
"""

from __future__ import annotations

import numpy as np

from .core import PlaneQuadrature, _check_finite, as_direction, circle_rule
from .radon import (AnalyticProfile, GridProfile, RadonAtom, _atoms, _check_scalars, _sample_atoms,
                    gamma_apply, radon_forward_numeric)

_SQRT_2PI = np.sqrt(2.0 * np.pi)


# ---------------------------------------------------------------------------
# Fourier slice theorem
# ---------------------------------------------------------------------------

def fourier_slice_pair(fn, kappa, k: float, plane_quad: PlaneQuadrature):
    """Both sides of the slice identity at (k, kappa), symmetric conventions.

    Left: 1-D Fourier transform (2 pi)^{-1/2} int F^R(p) e^{-ikp} dp of the
    numeric plane transform on the 96 points -8 + j/6 of [-8, 8).  Right: 2 pi
    times the 3-D Fourier transform (2 pi)^{-3/2} int F(y) e^{-i k kappa . y} d^3 y by
    the tensor trapezoid rule of 32^3 nodes on the box [-8, 8)^3, the
    periodic rule of :func:`circle_rule` scaled to each axis, which converges
    exponentially for fields that decay within the box.  k must be finite.
    """
    _check_finite(k=k)
    kdir = as_direction(kappa)
    n_p = 96
    p = -8.0 + (16.0 / n_p) * np.arange(n_p)
    proj = radon_forward_numeric(fn, p, kdir, plane_quad)  # (n_p[, 3])
    phase = np.exp(-1j * k * p)
    dp = 16.0 / n_p
    shape = (n_p,) + (1,) * (proj.ndim - 1)
    lhs = np.sum(phase.reshape(shape) * proj, axis=0) * dp / _SQRT_2PI

    t, dt = circle_rule(32)
    y = (8.0 / np.pi) * t - 8.0
    nodes = np.stack(np.meshgrid(y, y, y, indexing="ij")).reshape(3, -1).T
    # numpy's own loop: a BLAS product may round by the thread count
    ft3 = np.einsum("n,n...->...", np.exp(-1j * k * (nodes @ kdir)), np.asarray(fn(nodes)))
    rhs = 2.0 * np.pi * ft3 * (8.0 / np.pi * dt) ** 3 / (2.0 * np.pi) ** 1.5
    return lhs, rhs


def fourier_slice_check(fn, kappa, k: float, plane_quad: PlaneQuadrature) -> float:
    """Relative residual between the two sides of the slice identity."""
    lhs, rhs = fourier_slice_pair(fn, kappa, k, plane_quad)
    scale = max(np.max(np.abs(np.atleast_1d(lhs))), np.max(np.abs(np.atleast_1d(rhs))))
    return float(np.max(np.abs(np.atleast_1d(lhs - rhs))) / max(scale, 1e-300))


# ---------------------------------------------------------------------------
# Radon transform of the Riesz integral
# ---------------------------------------------------------------------------

DC_TOLERANCE = 1e-12


def radon_riesz(profile, dc_tol: float = DC_TOLERANCE):
    """Per-direction convolution with the 1/k^2 Fourier kernel.

    Divides each atom (a grid's :func:`grid_atoms`, sampled back) by omega^2
    and drops omega = 0, whose ``dc_content`` must be within ``dc_tol`` of the
    largest |sample| (grid) or |amplitude| (atoms).  Profiles built by numeric
    quadrature may need a looser threshold.  ValueError naming the first
    nonzero frequency whose 1/omega^2 overflows, before the division.
    """
    atoms = _atoms(profile)
    values = atoms.amplitudes if atoms is profile else profile.samples
    dc = atoms.dc_content()
    if dc > dc_tol * max(np.max(np.abs(values), initial=0.0), 1e-300):
        raise ValueError(f"profile has non-negligible DC content ({dc:.3e})")
    omega = atoms.frequencies
    square = omega**2
    drop = square <= 2.0**-1024  # 1 / omega^2 overflows: omega = 0, or |omega| up to 2^-512 = 7.5e-155
    tiny = omega[drop]
    if np.count_nonzero(tiny):
        raise ValueError(f"atom frequency {float(tiny[tiny != 0][0])!r} is too small for"
                         " the 1/omega^2 kernel: 1/omega^2 overflows")
    kern = np.divide(1.0, square, out=np.zeros_like(omega), where=~drop)
    result = atoms._derive(amplitudes=(kern * atoms.amplitudes.T).T)
    return result if atoms is profile else _sample_atoms(profile, result)


def rbs_apply(profile, dc_tol: float = DC_TOLERANCE):
    """Radon-Biot-Savart operator: Gamma x after the 1/k^2 kernel, on atoms
    amplitude -> (i / frequency) kappa x amplitude."""
    return gamma_apply(radon_riesz(profile, dc_tol), "cross")


def rbs_left_inverse_check(grid: GridProfile) -> float:
    """Max residual of RBS[Gamma x F] = F for transverse profiles.

    Raises if the precondition Gamma . F = 0 fails at 1e-9 relative.
    """
    gdot = gamma_apply(grid, "dot")
    scale = max(float(np.max(np.abs(grid.samples))), 1e-300)
    defect = float(np.max(np.abs(gdot.samples))) / scale
    if defect > 1e-9:
        raise ValueError(f"profile violates Gamma . F = 0 (defect {defect:.3e})")
    back = rbs_apply(gamma_apply(grid, "cross"))
    return float(np.max(np.abs(back.samples - grid.samples)))


def rbs_eigendefect(profile: AnalyticProfile) -> float:
    """Max atom-wise residual of RBS[F] = (1 / (mu nu)) F (ValueError as for
    ``radon._check_scalars`` on the profile's nu, mu and g)."""
    _check_scalars(profile.nu, profile.mu, profile.g)
    return rbs_apply(profile).amplitude_distance(profile, 1.0 / (profile.mu * profile.nu))


def gauge_atom(direction, frequency: float, strength: complex) -> RadonAtom:
    """Atom of a pure-gauge profile: amplitude parallel to its direction.  The
    one-row profile built here validates it; its nu is never read."""
    d = as_direction(direction).reshape(1, 3)
    return AnalyticProfile(d, [frequency], complex(strength) * d, [1.0], nu=1.0).atoms[0]
