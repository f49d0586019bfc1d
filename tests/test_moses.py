import numpy as np
import pytest

from trkalian.core import fd_derivative_oracle
from trkalian.moses import (eigenfunction, frame_antipodal_phase,
                            frame_completeness, frame_metric, helicity_of,
                            moses_frame)

EZ = np.array([0.0, 0.0, 1.0])
INV_2PI_32 = (2 * np.pi) ** -1.5


def random_directions(n, seed=0):
    rng = np.random.default_rng(seed)
    v = rng.normal(size=(n, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


class TestFrameValues:
    def test_longitudinal_member_is_minus_kappa(self):
        assert np.allclose(moses_frame(EZ, 3), [0, 0, -1])
        dirs = random_directions(50, seed=1)
        assert np.allclose(moses_frame(dirs, 3), -dirs)

    def test_transverse_at_north_pole(self):
        q = moses_frame(EZ, 1)
        assert np.allclose(q, np.array([1.0, 1.0j, 0.0]) / np.sqrt(2), atol=1e-15)

    def test_unit_and_transverse(self):
        dirs = random_directions(500, seed=2)
        for a in (1, 2):
            q = moses_frame(dirs, a)
            assert np.max(np.abs(np.einsum("nc,nc->n", np.conj(q), q) - 1)) < 1e-12
            assert np.max(np.abs(np.einsum("nc,nc->n", dirs + 0j, q))) < 1e-12

    def test_orthonormality(self):
        dirs = random_directions(1000, seed=3)
        qs = [moses_frame(dirs, a) for a in (1, 2, 3)]
        for ia in range(3):
            for ib in range(3):
                dot = np.einsum("nc,nc->n", np.conj(qs[ia]), qs[ib])
                target = 1.0 if ia == ib else 0.0
                assert np.max(np.abs(dot - target)) < 1e-12

    def test_completeness(self):
        dirs = random_directions(1000, seed=4)
        assert np.max(np.abs(frame_completeness(dirs) - np.eye(3))) < 1e-12

    def test_metric_reproduction(self):
        dirs = random_directions(300, seed=5)
        total = frame_metric(dirs)
        assert np.max(np.abs(total.imag)) < 1e-12
        assert np.max(np.abs(total.real - np.eye(3))) < 1e-12

    def test_cross_product_relation(self):
        dirs = random_directions(300, seed=6)
        for a in (1, 2):
            lam = helicity_of(a)
            q = moses_frame(dirs, a)
            assert np.max(np.abs(np.cross(dirs, q) + 1j * lam * q)) < 1e-12

    def test_conjugation_swaps_helicity(self):
        dirs = random_directions(100, seed=7)
        q1 = moses_frame(dirs, 1)
        q2 = moses_frame(dirs, 2)
        assert np.max(np.abs(q1 + np.conj(q2))) < 1e-12


class TestPoleHandling:
    def test_near_south_pole_stays_orthonormal(self):
        eps = 1e-11
        for phi in (0.0, 1.0, 2.5):
            k = np.array([eps * np.cos(phi), eps * np.sin(phi), -np.sqrt(1 - eps**2)])
            k /= np.linalg.norm(k)
            q = moses_frame(k, 1)
            assert abs(np.vdot(q, q) - 1) < 1e-12
            assert abs(k @ q) < 1e-10

    def test_exact_south_pole_uses_rotated_branch(self):
        k = np.array([0.0, 0.0, -1.0])
        q = moses_frame(k, 1)
        assert abs(np.vdot(q, q) - 1) < 1e-14
        assert np.max(np.abs(np.cross(k, q) + 1j * q)) < 1e-14

    def test_antipodal_relation_across_branch_boundary(self):
        # the relational identity (not just orthonormality) must survive
        # the switch to the antipodal evaluation path
        for dz in (1e-11, 1e-7, 1e-4, 5e-4, 2e-3):
            for sign in (1.0, -1.0):
                k = np.array([1e-2 * np.cos(0.7), 1e-2 * np.sin(0.7),
                              sign * (1.0 - dz)])
                k /= np.linalg.norm(k)
                for a, lam in ((1, 1), (2, -1)):
                    lhs = moses_frame(-k, a)
                    rhs = frame_antipodal_phase(k, lam) * np.conj(moses_frame(k, a))
                    assert np.max(np.abs(lhs - rhs)) < 1e-12


class TestAntipodalPhase:
    def test_value_at_ex(self):
        assert abs(frame_antipodal_phase(np.array([1.0, 0.0, 0.0]), 1) - (-1.0)) < 1e-15

    def test_unimodular(self):
        dirs = random_directions(200, seed=8)
        for lam in (1, -1):
            phase = frame_antipodal_phase(dirs, lam)
            assert np.max(np.abs(np.abs(phase) - 1)) < 1e-14

    def test_consistency_with_frame(self):
        dirs = random_directions(100, seed=9)
        for a, lam in ((1, 1), (2, -1)):
            phase = frame_antipodal_phase(dirs, lam)
            lhs = moses_frame(-dirs, a)
            rhs = phase[:, None] * np.conj(moses_frame(dirs, a))
            assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_rejects_poles(self):
        with pytest.raises(ValueError):
            frame_antipodal_phase(EZ, 1)
        with pytest.raises(ValueError):
            frame_antipodal_phase(-EZ, -1)


class TestEigenfunction:
    def test_value_at_origin(self):
        val = eigenfunction(np.zeros(3), EZ, 3)
        assert np.allclose(val, INV_2PI_32 * np.array([0, 0, -1]))

    def test_curl_eigenrelation(self):
        rng = np.random.default_rng(10)
        for _ in range(5):
            x = rng.uniform(-1, 1, size=3)
            k = rng.normal(size=3)
            for a, lam in ((1, 1), (2, -1)):
                fn = lambda y: eigenfunction(y, k, a)
                curl = fd_derivative_oracle(fn, x, "curl")
                val = fn(x)
                err = np.linalg.norm(curl - lam * np.linalg.norm(k) * val)
                assert err / np.linalg.norm(val) < 1e-7

    def test_divergence_free(self):
        rng = np.random.default_rng(11)
        x = rng.uniform(-1, 1, size=3)
        k = np.array([0.3, -1.2, 0.8])
        for a in (1, 2):
            div = fd_derivative_oracle(lambda y: eigenfunction(y, k, a), x, "divergence")
            assert abs(div) < 1e-7

    def test_rejects_zero_wavevector(self):
        with pytest.raises(ValueError):
            eigenfunction(np.zeros(3), np.zeros(3), 1)


def test_helicity_labels():
    assert helicity_of(1) == 1
    assert helicity_of(2) == -1
    assert helicity_of(3) == 0
    with pytest.raises(ValueError):
        helicity_of(4)
