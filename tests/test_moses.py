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

    @pytest.mark.parametrize("directions", ["random", "south-band", "poles"])
    def test_second_member_is_minus_conjugate_of_first(self, directions):
        # Q_2 = -conj(Q_1) value for value on random directions, in the
        # south band read through the antipodal relation, and at both poles,
        # so one frame call serves both helicity probes
        if directions == "random":
            dirs = random_directions(2000, seed=8)
        elif directions == "south-band":
            rng = np.random.default_rng(8)
            dirs = random_directions(2000, seed=9)
            dirs[:, 2] = -1.0 + rng.uniform(0.0, 1e-3, size=len(dirs))
            dirs[:, :2] *= (np.sqrt(1.0 - dirs[:, 2] ** 2)
                            / np.linalg.norm(dirs[:, :2], axis=1))[:, None]
        else:
            dirs = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]])
        assert np.array_equal(moses_frame(dirs, 2), -np.conj(moses_frame(dirs, 1)))


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

    def test_one_wavevector_per_point(self):
        rng = np.random.default_rng(12)
        x = rng.uniform(-1, 1, size=(20, 3))
        k = rng.normal(size=(20, 3))
        for a in (1, 2, 3):
            batch = eigenfunction(x, k, a)
            single = np.stack([eigenfunction(xi, ki, a) for xi, ki in zip(x, k)])
            assert batch.shape == (20, 3)
            assert np.max(np.abs(batch - single)) <= 1e-15 * np.max(np.abs(single))
        # points (20, 12, 3) with wave vectors (20, 1, 3): one k per row of points
        y = x[:, None] + rng.uniform(-0.1, 0.1, size=(20, 12, 3))
        stencil = eigenfunction(y, k[:, None], 1)
        assert stencil.shape == (20, 12, 3)
        assert np.array_equal(stencil[7], eigenfunction(y[7], k[7:8], 1))

    @pytest.mark.parametrize("bad", [0.0, np.nan, np.inf])
    def test_rejects_a_zero_or_non_finite_row_by_index(self, bad):
        k = np.random.default_rng(13).normal(size=(20, 3))
        k[5] = [bad, 0.0, 0.0]
        with pytest.raises(ValueError, match=r"finite and nonzero at rows \[5\]"):
            eigenfunction(np.zeros((20, 3)), k, 1)

    def test_rejects_zero_wavevector(self):
        with pytest.raises(ValueError):
            eigenfunction(np.zeros(3), np.zeros(3), 1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_points(self, bad):
        x = np.array([[0.1, 0.2, 0.3], [0.0, bad, 1.0]])
        with pytest.raises(ValueError, match="evaluation points must be finite; 1 of 2"):
            eigenfunction(x, np.array([0.3, -1.2, 0.8]), 1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_wavevector(self, bad):
        with pytest.raises(ValueError, match="wave vector k must be finite"):
            eigenfunction(np.zeros(3), np.array([0.3, bad, 0.8]), 1)


def test_helicity_labels():
    assert helicity_of(1) == 1
    assert helicity_of(2) == -1
    assert helicity_of(3) == 0
    with pytest.raises(ValueError):
        helicity_of(4)
