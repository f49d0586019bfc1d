"""Fourier slice theorem and the Radon-Biot-Savart operator.

The RBS operator acts per direction on the p-dependence only: Fourier
transform in p, multiply by 1/k^2 (DC excluded), transform back, then apply
Gamma x.  On pure tones this is exact diagonal algebra; profiles must be
zero-mean in p per direction for the 1/k^2 kernel to be defined.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .core import PlaneQuadrature, SphereQuadrature, as_direction, gauss_tensor_rule
from .radon import (AnalyticProfile, GridProfile, RadonAtom, gamma_apply, kappa_product,
                    radon_forward_numeric)

_SQRT_2PI = np.sqrt(2.0 * np.pi)


@dataclass(frozen=True)
class SpectralProfile:
    """Discrete Fourier data of a grid profile (per direction)."""

    frequencies: np.ndarray
    coefficients: np.ndarray
    sphere: SphereQuadrature
    p0: float
    dp: float

    def conjugate_symmetry_defect(self) -> float:
        """Zero iff the originating p-samples are real-valued."""
        n = self.frequencies.size
        idx = (-np.arange(n)) % n
        return float(np.max(np.abs(self.coefficients - np.conj(self.coefficients[idx]))))


def to_spectral(grid: GridProfile) -> SpectralProfile:
    coeffs = np.fft.fft(grid.samples, axis=0) / grid.n_p
    return SpectralProfile(frequencies=grid.frequencies(), coefficients=coeffs,
                           sphere=grid.sphere, p0=float(grid.p[0]), dp=grid.dp)


def from_spectral(spec: SpectralProfile) -> GridProfile:
    n = spec.frequencies.size
    samples = np.fft.ifft(spec.coefficients * n, axis=0)
    p = spec.p0 + spec.dp * np.arange(n)
    return GridProfile(p=p, sphere=spec.sphere, samples=samples)


# ---------------------------------------------------------------------------
# Fourier slice theorem
# ---------------------------------------------------------------------------

def fourier_slice_pair(fn, kappa, k: float, plane_quad: PlaneQuadrature,
                       p_half: float = 8.0, n_p: int = 128,
                       box_half: float = 8.0, n_box: int = 48):
    """Both sides of the slice identity at (k, kappa), symmetric conventions.

    Left: 1-D Fourier transform (2 pi)^{-1/2} int F^R(p) e^{-ikp} dp of the
    numeric plane transform.  Right: 2 pi times the 3-D Fourier transform
    (2 pi)^{-3/2} int F(y) e^{-i k kappa . y} d^3 y by direct box quadrature.
    """
    kdir = as_direction(kappa)
    p = -p_half + (2.0 * p_half / n_p) * np.arange(n_p)
    proj = radon_forward_numeric(fn, p, kdir, plane_quad)  # (n_p[, 3])
    phase = np.exp(-1j * k * p)
    dp = 2.0 * p_half / n_p
    shape = (n_p,) + (1,) * (proj.ndim - 1)
    lhs = np.sum(phase.reshape(shape) * proj, axis=0) * dp / _SQRT_2PI

    nodes, weights = gauss_tensor_rule(box_half, n_box)
    vals = np.asarray(fn(nodes))
    phase3 = np.exp(-1j * k * (nodes @ kdir))
    if vals.ndim == 2:
        ft3 = np.sum(weights[:, None] * phase3[:, None] * vals, axis=0)
    else:
        ft3 = np.sum(weights * phase3 * vals)
    rhs = 2.0 * np.pi * ft3 / (2.0 * np.pi) ** 1.5
    return lhs, rhs


def fourier_slice_check(fn, kappa, k: float, plane_quad: PlaneQuadrature,
                        **kwargs) -> float:
    """Relative residual between the two sides of the slice identity."""
    lhs, rhs = fourier_slice_pair(fn, kappa, k, plane_quad, **kwargs)
    scale = max(np.max(np.abs(np.atleast_1d(lhs))), np.max(np.abs(np.atleast_1d(rhs))))
    return float(np.max(np.abs(np.atleast_1d(lhs - rhs))) / max(scale, 1e-300))


# ---------------------------------------------------------------------------
# Radon transform of the Riesz integral
# ---------------------------------------------------------------------------

DC_TOLERANCE = 1e-12


def radon_riesz(grid: GridProfile, dc_tol: float = DC_TOLERANCE) -> GridProfile:
    """Per-direction convolution with the 1/k^2 Fourier kernel.

    Requires zero-mean samples in p for every direction (relative to the
    sample magnitude, threshold ``dc_tol``); the DC bin is set to zero.
    Profiles built by numeric quadrature may need a looser threshold.
    """
    coeffs = np.fft.fft(grid.samples, axis=0)
    scale = np.max(np.abs(grid.samples))
    dc = np.max(np.abs(coeffs[0])) / grid.n_p
    if dc > dc_tol * max(scale, 1e-300):
        raise ValueError(f"profile has non-negligible DC content ({dc:.3e})")
    k = grid.frequencies()
    kern = np.zeros_like(k)
    kern[1:] = 1.0 / k[1:] ** 2
    shape = (grid.n_p,) + (1,) * (grid.samples.ndim - 1)
    out = np.fft.ifft(kern.reshape(shape) * coeffs, axis=0)
    return replace(grid, samples=out)


def rbs_apply(profile, dc_tol: float = DC_TOLERANCE):
    """Radon-Biot-Savart operator Gamma x after the 1/k^2 kernel.

    Exact on atoms: amplitude -> (i / frequency) kappa x amplitude.
    """
    if isinstance(profile, AnalyticProfile):
        if np.any(profile.frequencies == 0.0):
            raise ValueError("RBS undefined on zero-frequency atoms")
        out = kappa_product(profile.directions, profile.amplitudes, "cross")
        return replace(profile, amplitudes=(1j / profile.frequencies)[:, None] * out)
    if isinstance(profile, GridProfile):
        return gamma_apply(radon_riesz(profile, dc_tol=dc_tol), "cross")
    raise TypeError(f"unsupported profile type {type(profile)!r}")


def rbs_left_inverse_check(grid: GridProfile, tol: float = 1e-9) -> float:
    """Max residual of RBS[Gamma x F] = F for transverse profiles.

    Raises if the precondition Gamma . F = 0 fails at ``tol``.
    """
    gdot = gamma_apply(grid, "dot")
    scale = max(float(np.max(np.abs(grid.samples))), 1e-300)
    defect = float(np.max(np.abs(gdot.samples))) / scale
    if defect > tol:
        raise ValueError(f"profile violates Gamma . F = 0 (defect {defect:.3e})")
    back = rbs_apply(gamma_apply(grid, "cross"))
    return float(np.max(np.abs(back.samples - grid.samples)))


def rbs_eigendefect(profile: AnalyticProfile) -> float:
    """Max atom-wise residual of RBS[F] = (1 / (mu nu)) F."""
    return rbs_apply(profile).amplitude_distance(profile, 1.0 / (profile.mu * profile.nu))


def gauge_atom(direction, frequency: float, strength: complex) -> RadonAtom:
    """Atom of a pure-gauge profile: amplitude parallel to its direction.  The
    one-row profile built here validates it; its nu is never read."""
    d = as_direction(direction).reshape(1, 3)
    return AnalyticProfile(d, [frequency], complex(strength) * d, [1.0], nu=1.0).atoms[0]
