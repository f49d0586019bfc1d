"""Debye-potential constructions directly in transform space.

Solutions of Gamma x G = nu G are assembled algebraically from scalar tones
Psi (oscillator solutions in p) and a fixed vector omega, mirroring the
physical-space toroidal/poloidal split.  The tones are the rows of one
scalar :class:`AnalyticProfile`, checked once when the :class:`DebyeChoice`
is built; omega is a constant 3-vector or one call on the tone directions
(n, 3).  Delta factors are carried as atoms, never as sampled spikes, so
every identity here is exact arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import _check_finite, circle_rule, cross
from .radon import AnalyticProfile, RadonAtom, gamma_apply, inverse_radon
from .rbs import rbs_apply

OSCILLATOR_TOL = 1e-10

ScalarTone = RadonAtom  # amplitude * e^{i frequency p} with a scalar amplitude


@dataclass(frozen=True, slots=True)
class OmegaAtom:
    """A fixed vector attached to a direction, a point atom of weight 1;
    :func:`ck_integral_profile` checks the rows together."""

    direction: np.ndarray
    vector: np.ndarray


@dataclass(frozen=True)
class DebyeChoice:
    """Scalar tones plus a fixed vector omega (constant or kappa-dependent).

    ``tones`` is given as :class:`ScalarTone` rows and stored as one scalar
    :class:`AnalyticProfile`, whose checks cover directions, finiteness and
    weights; every frequency must satisfy f^2 = nu^2.  ``omega`` is a
    3-vector or a function of kappa alone (not of p), called once, here, on
    the tone directions (n, 3); either is stored as the finite omegas (n, 3).
    """

    tones: AnalyticProfile
    omega: object
    nu: float

    def __post_init__(self):
        _check_finite("nonzero", nu=self.nu)
        tones = AnalyticProfile.from_atoms(self.tones, self.nu)
        if tones.is_vector or np.any(
                np.abs(tones.frequencies**2 - self.nu**2) > OSCILLATOR_TOL * self.nu**2):
            raise ValueError("tones must be scalar and satisfy the oscillator"
                             " equation: frequency^2 = nu^2")
        omega = self.omega
        if callable(omega):
            try:
                omega = omega(tones.directions)
            except TypeError as err:
                raise ValueError("omega must be a fixed vector or a function of kappa only;"
                                 " p-dependence violates d omega / dp = 0") from err
        omega = np.broadcast_to(np.array(omega, dtype=complex), tones.directions.shape)
        _check_finite(omega=omega)
        object.__setattr__(self, "tones", tones)
        object.__setattr__(self, "omega", omega)


def _tone_profile(choice: DebyeChoice, amplitude) -> AnalyticProfile:
    """The tones with each amplitude times ``amplitude(d, frequency, w)`` on
    the tone directions (n, 3), frequencies (n, 1) and omegas (n, 3)."""
    tones = choice.tones
    return tones._derive(amplitudes=tones.amplitudes[:, None]
                         * amplitude(tones.directions, tones.frequencies[:, None], choice.omega))


def ck_transform_solution(choice: DebyeChoice, include_poloidal: bool = True) -> AnalyticProfile:
    """G = Gamma x (Psi w) + (1/nu) Gamma x Gamma x (Psi w), exact tone algebra.

    The toroidal part alone is returned with ``include_poloidal=False``; the
    full solution always satisfies Gamma x G = nu G.
    """
    nu = choice.nu

    def amplitude(d, freq, w):
        toroidal = 1j * freq * cross(d, w)
        if not include_poloidal:
            return toroidal
        return toroidal - (freq**2 / nu) * cross(d, cross(d, w))

    return _tone_profile(choice, amplitude)


def ck_transform_potential(choice: DebyeChoice) -> AnalyticProfile:
    """H = Psi w + (1/nu) Gamma x (Psi w); satisfies Gamma x H = G."""
    return _tone_profile(
        choice, lambda d, freq, w: w + (1j * freq / choice.nu) * cross(d, w))


def ck_transform_potential_check(choice: DebyeChoice) -> tuple[float, float]:
    """Residuals (|Gamma x H - G|, |RBS[G] - (1/nu) G|), atom-wise max.

    Both vanish identically for admissible choices (fixed omega).
    """
    g_full = ck_transform_solution(choice, include_poloidal=True)
    curl_h = gamma_apply(ck_transform_potential(choice), "cross")
    return (curl_h.amplitude_distance(g_full),
            rbs_apply(g_full).amplitude_distance(g_full, 1.0 / choice.nu))


# ---------------------------------------------------------------------------
# contour representation of the oscillator tones
# ---------------------------------------------------------------------------

def _pole(p: float, lam: int, nu: float, branch: str) -> complex:
    """The pole +i lam nu (branch "plus") or -i lam nu (branch "minus");
    ValueError unless p is finite, lam = +/-1, nu is finite and nonzero and
    the branch is one of the two."""
    _check_finite(p=p)
    if lam not in (1, -1):
        raise ValueError("lam must be +1 or -1")
    _check_finite("nonzero", nu=nu)
    if branch not in ("plus", "minus"):
        raise ValueError("branch must be 'plus' or 'minus'")
    return (1j if branch == "plus" else -1j) * lam * nu


def oscillator_residue(p: float, lam: int, nu: float, branch: str) -> complex:
    """Loop integral of e^{p zeta} / (zeta -/+ i lam nu) around its pole.

    branch "plus" encircles zeta = +i lam nu (value 2 pi i e^{+i lam nu p}),
    branch "minus" encircles zeta = -i lam nu.  The Laplace kernel
    normalization 1 / (4 pi i nu) turns the value into e^{+/- i lam nu p} / (2 nu).
    """
    return complex(2.0j * np.pi * np.exp(p * _pole(p, lam, nu, branch)))


def oscillator_contour_numeric(p: float, lam: int, nu: float, branch: str) -> complex:
    """64-point trapezoid quadrature of the same loop integral on the circle
    of radius |nu| / 2 around the pole.

    ValueError on the arguments :func:`oscillator_residue` rejects, and on a
    nu so small that the radius rounds to 0.
    """
    pole = _pole(p, lam, nu, branch)
    rho = abs(nu) / 2.0
    _check_finite("positive", radius=rho)  # a subnormal nu halves to 0
    t, dt = circle_rule(64)
    zeta = pole + rho * np.exp(1j * t)
    dzeta = 1j * rho * np.exp(1j * t) * dt
    return complex(np.sum(np.exp(p * zeta) / (zeta - pole) * dzeta))


# ---------------------------------------------------------------------------
# integral representation with arbitrary direction densities
# ---------------------------------------------------------------------------

def ck_integral_profile(omega1, omega2, lam: int, nu: float) -> AnalyticProfile:
    """Oscillatory solution assembled from two direction densities.

    G = (1/2) [ (i lam k x w1 - k x k x w1) e^{+i lam nu p}
              + (-i lam k x w2 - k x k x w2) e^{-i lam nu p} ],
    the 1/2 being the reduced contour prefactor (1 / 4 pi i) * 2 pi i.
    ``omega1`` / ``omega2`` are lists of :class:`OmegaAtom`, each atom of weight 1.
    """
    if lam not in (1, -1):
        raise ValueError("lam must be +1 or -1")
    _check_finite("nonzero", nu=nu)
    omegas = tuple(omega1) + tuple(omega2)
    sign = np.repeat([1.0, -1.0], [len(omega1), len(omega2)])
    d = np.reshape([oa.direction for oa in omegas], (-1, 3))
    w = np.reshape(np.array([oa.vector for oa in omegas], dtype=complex), d.shape)
    dxw = cross(d, w)
    return AnalyticProfile(
        directions=d, frequencies=sign * lam * nu,
        amplitudes=0.5 * ((sign * 1j * lam)[:, None] * dxw - cross(d, dxw)),
        weights=np.ones(len(omegas)), nu=nu, mu=1, g=1.0)


def reconstruct_physical(omega1, omega2, lam: int, nu: float, x) -> np.ndarray:
    """Inverse Radon image of :func:`ck_integral_profile` at x."""
    profile = ck_integral_profile(omega1, omega2, lam, nu)
    return inverse_radon(profile, x)


def abc_omega_atoms(a: float, b: float, c: float, lam: int, nu: float):
    """The three-delta direction densities whose reconstruction is the abc field."""
    kappas = (np.array([0.0, 0.0, 1.0]), np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0]))
    es = (
        np.array([1.0, 1j * lam, 0.0]),
        np.array([0.0, 1.0, 1j * lam]),
        np.array([1j * lam, 0.0, 1.0]),
    )
    coeff = -1j * (2.0 * np.pi) ** 2 / nu**2
    strengths = (a, b, c)
    omega1 = [OmegaAtom(k, coeff * s * e) for k, e, s in zip(kappas, es, strengths)]
    omega2 = [OmegaAtom(-k, coeff * s * e) for k, e, s in zip(kappas, es, strengths)]
    return omega1, omega2
