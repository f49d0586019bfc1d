"""Complex helicity frame on the sphere and its plane-wave eigenfunctions.

The frame Q_a(kappa), a in {1, 2, 3}, is a complex orthonormal triad attached
to each unit direction kappa.  The transverse members (a = 1: helicity +1,
a = 2: helicity -1) satisfy kappa x Q = -i*lambda*Q, which diagonalizes the
curl on plane waves; the longitudinal member is Q_3 = -kappa.
"""

from __future__ import annotations

import numpy as np

from .core import _finite_points, as_direction

# Width of the south-pole band evaluated through the antipodal relation.
# The direct coframe formula amplifies the unit-norm rounding of the input
# direction like 1/(1 + kz); switching branches at 1e-3 keeps every frame
# identity below 1e-13 while the antipodal relation itself is exact.
POLE_TOL = 1e-3
_INV_TWO_PI_32 = (2.0 * np.pi) ** -1.5

_HELICITY = {1: 1, 2: -1, 3: 0}


def helicity_of(a: int) -> int:
    """Helicity lambda for frame index a (a=1: +1, a=2: -1, a=3: 0)."""
    try:
        return _HELICITY[a]
    except KeyError:
        raise ValueError(f"frame index must be 1, 2 or 3, got {a}") from None


def frame_index_of(lam: int) -> int:
    """Frame index a for transverse helicity lambda = +/-1."""
    if lam == 1:
        return 1
    if lam == -1:
        return 2
    raise ValueError(f"transverse helicity must be +1 or -1, got {lam}")


def _frame_regular(kappa: np.ndarray, lam: int) -> np.ndarray:
    """Transverse frame member away from the south pole (denominator 1 + kz)."""
    kx, ky, kz = kappa[..., 0], kappa[..., 1], kappa[..., 2]
    w = kx + 1j * lam * ky
    denom = 1.0 + kz
    q = np.empty(kappa.shape, dtype=complex)
    q[..., 0] = kx * w / denom - 1.0
    q[..., 1] = ky * w / denom - 1j * lam
    q[..., 2] = w
    return (-lam / np.sqrt(2.0)) * q


def frame_antipodal_phase(kappa, lam: int):
    """Unimodular factor relating the frame at -kappa to the conjugate frame at kappa.

    Q_lam(-kappa) = phase * conj(Q_lam(kappa)) with
    phase = -(k1 + i*lam*k2) / (k1 - i*lam*k2).  Undefined at the poles.
    """
    if lam not in (1, -1):
        raise ValueError("transverse helicity must be +1 or -1")
    k = as_direction(kappa)
    kx, ky = k[..., 0], k[..., 1]
    if np.any(np.hypot(kx, ky) < 1e-12):
        raise ValueError("antipodal phase is degenerate at the poles")
    w = kx + 1j * lam * ky
    return -w / np.conj(w)


def moses_frame(kappa, a: int) -> np.ndarray:
    """Frame member Q_a at unit direction(s) kappa.

    Depends on the direction only.  Near the south pole (1 + kz < POLE_TOL)
    the value is obtained from the regular branch at -kappa through the
    antipodal phase; exactly at the pole the frame is evaluated in
    coordinates rotated by pi about the x-axis and rotated back.
    """
    k = as_direction(kappa)
    lam = helicity_of(a)

    if a == 3:
        return -k.astype(complex)

    scalar_input = k.ndim == 1
    kb = np.atleast_2d(k)
    near_south = 1.0 + kb[..., 2] < POLE_TOL
    # near-pole rows are recomputed below; mask them out of the regular branch
    kb_safe = np.where(near_south[..., None], np.array([0.0, 0.0, 1.0]), kb)
    q = _frame_regular(kb_safe, lam)

    if np.any(near_south):
        off_axis = np.hypot(kb[..., 0], kb[..., 1]) >= 1e-12
        use_antipodal = near_south & off_axis
        use_rotated = near_south & ~off_axis
        if np.any(use_antipodal):
            # Q(kappa) = phase(-kappa) conj(Q(-kappa)) and the phase factor
            # is antipodally even, so it can be taken at kappa directly
            sub = kb[use_antipodal]
            phase = frame_antipodal_phase(sub, lam)
            q_op = _frame_regular(-sub, lam)
            q[use_antipodal] = phase[..., None] * np.conj(q_op)
        if np.any(use_rotated):
            sub = kb[use_rotated].copy()
            sub[:, 1] *= -1.0
            sub[:, 2] *= -1.0
            q_rot = _frame_regular(sub, lam)
            q_rot[:, 1] *= -1.0
            q_rot[:, 2] *= -1.0
            q[use_rotated] = q_rot

    return q[0] if scalar_input else q


def eigenfunction(x, k, a: int) -> np.ndarray:
    """Curl eigenfunction chi_a(x | k) = (2 pi)^{-3/2} e^{i k.x} Q_a(k / |k|).

    For the transverse members curl chi = lambda |k| chi and div chi = 0.
    ``k`` is one wave vector (3,) or one per point (..., 3); it broadcasts
    against the points x (..., 3), so points (n, m, 3) take wave vectors
    (n, 1, 3), and the values have the broadcast shape.  Raises ValueError,
    before any arithmetic, naming the rows of k that are zero or not finite.
    """
    x = _finite_points(x)
    k = np.asarray(k, dtype=float)
    if k.shape[-1:] != (3,):
        raise ValueError(f"wave vector k must have 3 components, got shape {k.shape}")
    kn = np.sqrt(k[..., 0] ** 2 + k[..., 1] ** 2 + k[..., 2] ** 2)
    bad = ~(np.isfinite(kn) & (kn > 0.0))  # NaN, Inf, zero, or so large that |k| overflows
    if bad.any():
        where = f" at rows {np.flatnonzero(bad)[:3].tolist()}" if k.ndim > 1 else ""
        raise ValueError(f"wave vector k must be finite and nonzero{where}, "
                         f"got {k[bad][:3].tolist()}")
    q = moses_frame(k / kn[..., None], a)
    phase = np.exp(1j * (x[..., 0] * k[..., 0] + x[..., 1] * k[..., 1] + x[..., 2] * k[..., 2]))
    return _INV_TWO_PI_32 * phase[..., None] * q


def frame_completeness(kappa) -> np.ndarray:
    """Sum_a Q_a (x) conj(Q_a) at kappa; equals the 3x3 identity."""
    k = as_direction(kappa)
    total = np.zeros(k.shape[:-1] + (3, 3), dtype=complex)
    for a in (1, 2, 3):
        q = moses_frame(k, a)
        total += q[..., :, None] * np.conj(q)[..., None, :]
    return total


PAIRING_MATRIX = np.array([
    [0.0, -1.0, 0.0],
    [-1.0, 0.0, 0.0],
    [0.0, 0.0, 1.0],
])


def frame_metric(kappa) -> np.ndarray:
    """eta_ab Q_a (x) Q_b (unconjugated); reproduces the Euclidean metric."""
    k = as_direction(kappa)
    qs = [moses_frame(k, a) for a in (1, 2, 3)]
    total = np.zeros(k.shape[:-1] + (3, 3), dtype=complex)
    for ia in range(3):
        for ib in range(3):
            eta = PAIRING_MATRIX[ia, ib]
            if eta != 0.0:
                total += eta * qs[ia][..., :, None] * qs[ib][..., None, :]
    return total
