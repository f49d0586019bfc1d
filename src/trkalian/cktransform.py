"""Debye-potential constructions directly in transform space.

Solutions of Gamma x G = nu G are assembled algebraically from scalar tones
Psi (oscillator solutions in p) and a fixed vector omega, mirroring the
physical-space toroidal/poloidal split.  Delta factors are carried as atoms,
never as sampled spikes, so every identity here is exact arithmetic.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass

import numpy as np

from .core import as_direction
from .radon import AnalyticProfile, RadonAtom, gamma_apply, inverse_radon
from .rbs import rbs_apply

OSCILLATOR_TOL = 1e-10


@dataclass(frozen=True)
class ScalarTone:
    """One scalar atom coefficient * e^{i frequency p} at a direction."""

    direction: np.ndarray
    frequency: float
    coefficient: complex
    weight: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "direction", as_direction(self.direction))
        object.__setattr__(self, "coefficient", complex(self.coefficient))


@dataclass(frozen=True)
class OmegaAtom:
    """A fixed vector attached to a direction (with line-measure weight)."""

    direction: np.ndarray
    vector: np.ndarray
    weight: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "direction", as_direction(self.direction))
        object.__setattr__(self, "vector", np.asarray(self.vector, dtype=complex))


def _reject_p_dependence(omega) -> None:
    if callable(omega):
        params = [p for p in inspect.signature(omega).parameters.values()
                  if p.default is inspect.Parameter.empty
                  and p.kind in (inspect.Parameter.POSITIONAL_ONLY,
                                 inspect.Parameter.POSITIONAL_OR_KEYWORD)]
        if len(params) != 1:
            raise ValueError("omega must be a fixed vector or a function of kappa only;"
                             " p-dependence violates d omega / dp = 0")


@dataclass(frozen=True)
class DebyeChoice:
    """Scalar tones plus a fixed vector omega (constant or kappa-dependent)."""

    tones: tuple
    omega: object
    nu: float

    def __post_init__(self):
        if self.nu == 0.0:
            raise ValueError("nu must be nonzero")
        tones = tuple(self.tones)
        for t in tones:
            if abs(t.frequency**2 - self.nu**2) > OSCILLATOR_TOL * self.nu**2:
                raise ValueError("tone frequency must satisfy the oscillator"
                                 " equation: frequency^2 = nu^2")
        _reject_p_dependence(self.omega)
        object.__setattr__(self, "tones", tones)

    def omega_at(self, direction) -> np.ndarray:
        if callable(self.omega):
            return np.asarray(self.omega(as_direction(direction)), dtype=complex)
        return np.asarray(self.omega, dtype=complex)


def ck_transform_solution(choice: DebyeChoice, include_poloidal: bool = True) -> AnalyticProfile:
    """G = Gamma x (Psi w) + (1/nu) Gamma x Gamma x (Psi w), exact tone algebra.

    The toroidal part alone is returned with ``include_poloidal=False``; the
    full solution always satisfies Gamma x G = nu G.
    """
    nu = choice.nu
    atoms = []
    for t in choice.tones:
        w = choice.omega_at(t.direction)
        d = t.direction
        toroidal = 1j * t.frequency * np.cross(d, w)
        amp = t.coefficient * toroidal
        if include_poloidal:
            poloidal = -(t.frequency**2 / nu) * np.cross(d, np.cross(d, w))
            amp = t.coefficient * (toroidal + poloidal)
        atoms.append(RadonAtom(d, t.frequency, amp, weight=t.weight))
    return AnalyticProfile(atoms=tuple(atoms), nu=nu, mu=1, g=1.0)


def ck_transform_potential(choice: DebyeChoice) -> AnalyticProfile:
    """H = Psi w + (1/nu) Gamma x (Psi w); satisfies Gamma x H = G."""
    nu = choice.nu
    atoms = []
    for t in choice.tones:
        w = choice.omega_at(t.direction)
        amp = t.coefficient * (w + (1j * t.frequency / nu) * np.cross(t.direction, w))
        atoms.append(RadonAtom(t.direction, t.frequency, amp, weight=t.weight))
    return AnalyticProfile(atoms=tuple(atoms), nu=nu, mu=1, g=1.0)


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

def oscillator_residue(p: float, lam: int, nu: float, branch: str,
                       scaled: bool = False) -> complex:
    """Loop integral of e^{p zeta} / (zeta -/+ i lam nu) around its pole.

    branch "plus" encircles zeta = +i lam nu (value 2 pi i e^{+i lam nu p}),
    branch "minus" encircles zeta = -i lam nu.  With ``scaled`` the Laplace
    kernel normalization 1 / (4 pi i nu) is applied, giving
    e^{+/- i lam nu p} / (2 nu).
    """
    if lam not in (1, -1):
        raise ValueError("lam must be +1 or -1")
    if nu == 0.0:
        raise ValueError("nu must be nonzero")
    if branch == "plus":
        pole = 1j * lam * nu
    elif branch == "minus":
        pole = -1j * lam * nu
    else:
        raise ValueError("branch must be 'plus' or 'minus'")
    value = 2.0j * np.pi * np.exp(p * pole)
    if scaled:
        value = value / (4.0j * np.pi * nu)
    return complex(value)


def oscillator_contour_numeric(p: float, lam: int, nu: float, branch: str,
                               radius: float | None = None, n: int = 64) -> complex:
    """Trapezoid quadrature of the same loop integral on a circle around the pole."""
    if branch == "plus":
        pole = 1j * lam * nu
    elif branch == "minus":
        pole = -1j * lam * nu
    else:
        raise ValueError("branch must be 'plus' or 'minus'")
    rho = abs(nu) / 2.0 if radius is None else radius
    t = 2.0 * np.pi * np.arange(n) / n
    zeta = pole + rho * np.exp(1j * t)
    dzeta = 1j * rho * np.exp(1j * t) * (2.0 * np.pi / n)
    return complex(np.sum(np.exp(p * zeta) / (zeta - pole) * dzeta))


# ---------------------------------------------------------------------------
# integral representation with arbitrary direction densities
# ---------------------------------------------------------------------------

def ck_integral_profile(omega1, omega2, lam: int, nu: float) -> AnalyticProfile:
    """Oscillatory solution assembled from two direction densities.

    G = (1/2) [ (i lam k x w1 - k x k x w1) e^{+i lam nu p}
              + (-i lam k x w2 - k x k x w2) e^{-i lam nu p} ],
    the 1/2 being the reduced contour prefactor (1 / 4 pi i) * 2 pi i.
    ``omega1`` / ``omega2`` are lists of :class:`OmegaAtom`.
    """
    if lam not in (1, -1):
        raise ValueError("lam must be +1 or -1")
    if nu == 0.0:
        raise ValueError("nu must be nonzero")
    atoms = []
    for sign, omegas in ((1, omega1), (-1, omega2)):
        for oa in omegas:
            d, w = oa.direction, oa.vector
            amp = 0.5 * (sign * 1j * lam * np.cross(d, w) - np.cross(d, np.cross(d, w)))
            atoms.append(RadonAtom(d, sign * lam * nu, amp, weight=oa.weight))
    return AnalyticProfile(atoms=tuple(atoms), nu=nu, mu=1, g=1.0)


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
