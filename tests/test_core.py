import numpy as np
import pytest

from trkalian.core import (PlaneQuadrature, as_direction, bessel_j,
                           bessel_j1_first_zero, fd_derivative_oracle,
                           fd_field, gauss_legendre, gauss_tensor_rule, plane_basis,
                           plane_wave_sum, sphere_quadrature)


class TestSphereQuadrature:
    def test_minimal_rule_normalization(self):
        quad = sphere_quadrature(2, 4)
        assert quad.n == 8
        assert abs(np.sum(quad.weights) - 4 * np.pi) < 1e-10

    def test_constant_and_odd_moment(self):
        quad = sphere_quadrature(8, 16)
        assert abs(np.sum(quad.weights) - 4 * np.pi) < 1e-12
        assert abs(np.sum(quad.weights * quad.nodes[:, 2])) < 1e-13

    def test_second_moment(self):
        quad = sphere_quadrature(8, 16)
        val = np.sum(quad.weights * quad.nodes[:, 2] ** 2)
        assert abs(val - 4 * np.pi / 3) < 1e-12

    def test_rejects_bad_orders(self):
        with pytest.raises(ValueError):
            sphere_quadrature(1, 16)
        with pytest.raises(ValueError):
            sphere_quadrature(4, 3)
        with pytest.raises(ValueError):
            sphere_quadrature(4, 5, antipodal=True)

    def test_antipodal_closure_is_exact(self):
        for n_polar, n_azimuth in ((4, 8), (5, 8), (8, 16)):
            quad = sphere_quadrature(n_polar, n_azimuth, antipodal=True)
            partner = quad.antipode_index
            assert np.all(quad.nodes[partner] == -quad.nodes)
            assert np.all(quad.weights[partner] == quad.weights)

    def test_convergence_on_smooth_integrand(self):
        # exp(kappa_z) integrates to 4 pi sinh(1)
        target = 4 * np.pi * np.sinh(1.0)

        def err(n_polar, n_azimuth):
            q = sphere_quadrature(n_polar, n_azimuth)
            return abs(np.sum(q.weights * np.exp(q.nodes[:, 2])) - target)

        assert err(8, 8) < err(4, 8) * 1e-2
        assert err(16, 8) < 1e-14


class TestPlaneBasis:
    def test_canonical_frame_at_ez(self):
        e1, e2 = plane_basis(np.array([0.0, 0.0, 1.0]))
        assert np.allclose(e1, [1, 0, 0])
        assert np.allclose(e2, [0, 1, 0])

    def test_seed_axis_rule_at_ex(self):
        e1, e2 = plane_basis(np.array([1.0, 0.0, 0.0]))
        assert np.allclose(e1, [0, 1, 0])
        assert np.allclose(e2, [0, 0, 1])

    def test_orthonormal_right_handed_everywhere(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            k = rng.normal(size=3)
            k /= np.linalg.norm(k)
            e1, e2 = plane_basis(k)
            assert abs(e1 @ k) < 1e-14
            assert abs(e2 @ k) < 1e-14
            assert abs(e1 @ e2) < 1e-14
            assert np.linalg.norm(np.cross(e1, e2) - k) < 1e-14

    def test_continuous_within_a_seed_cell(self):
        # directions sharing the seed axis get nearby bases
        base = np.array([0.3, -0.5, 0.81])
        base /= np.linalg.norm(base)
        e1a, e2a = plane_basis(base)
        for delta in (1e-6, 1e-4):
            k = base + delta * np.array([0.4, 0.3, -0.2])
            k /= np.linalg.norm(k)
            e1b, e2b = plane_basis(k)
            assert np.linalg.norm(e1a - e1b) < 10 * delta
            assert np.linalg.norm(e2a - e2b) < 10 * delta

    def test_batch_rows_equal_single_calls(self):
        rng = np.random.default_rng(8)
        k = rng.normal(size=(2, 50, 3))
        k /= np.linalg.norm(k, axis=-1, keepdims=True)
        k[0, :6] = np.concatenate([np.eye(3), -np.eye(3)])
        e1, e2 = plane_basis(k)
        assert e1.shape == e2.shape == (2, 50, 3)
        for idx in np.ndindex(2, 50):
            f1, f2 = plane_basis(k[idx])
            assert f1.shape == f2.shape == (3,)
            assert f1.tobytes() == e1[idx].tobytes() and f2.tobytes() == e2[idx].tobytes()

    def test_rejects_non_unit(self):
        with pytest.raises(ValueError):
            plane_basis(np.array([1.0, 1.0, 0.0]))


class TestBessel:
    def test_values_at_origin(self):
        assert bessel_j(0, 0.0) == 1.0
        assert bessel_j(1, 0.0) == 0.0

    def test_first_zero_of_j1(self):
        root = bessel_j1_first_zero()
        assert abs(root - 3.8317059702) < 1e-9
        assert abs(bessel_j(1, root)) < 1e-13

    def test_integral_identity_at_x_two(self):
        # (1/X) int_0^X J0(x) x dx = J1(X)
        big_x = 2.0
        x, w = np.polynomial.legendre.leggauss(80)
        x = 0.5 * big_x * (x + 1)
        w = 0.5 * big_x * w
        quad = np.sum(w * bessel_j(0, x) * x) / big_x
        assert abs(quad - bessel_j(1, big_x)) < 1e-9

    def test_recurrence(self):
        x = np.linspace(0.5, 20.0, 157)
        for m in range(1, 7):
            res = bessel_j(m - 1, x) + bessel_j(m + 1, x) - (2 * m / x) * bessel_j(m, x)
            assert np.max(np.abs(res)) < 1e-10

    def test_orders_zero_and_one_match_general_order(self):
        from scipy import special

        x = np.linspace(0.0, 200.0, 20001)
        for m in (0, 1):
            assert np.max(np.abs(bessel_j(m, x) - special.jv(m, x))) < 2e-15

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            bessel_j(-1, 1.0)
        with pytest.raises(ValueError):
            bessel_j(0, -0.5)


class TestPlaneQuadrature:
    def test_validation(self):
        with pytest.raises(ValueError):
            PlaneQuadrature(half_width=-1.0, n_per_axis=8)
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="half_width must be finite"):
                PlaneQuadrature(half_width=bad, n_per_axis=8)
        with pytest.raises(ValueError):
            PlaneQuadrature(half_width=1.0, n_per_axis=1)

    def test_gauss_legendre_integrates_gaussian(self):
        quad = PlaneQuadrature(half_width=8.0, n_per_axis=64)
        x, w = quad.nodes_1d()
        val = np.sum(w * np.exp(-x * x))
        assert abs(val - np.sqrt(np.pi)) < 1e-12


def test_tensor_rule_matches_meshgrid_construction():
    x, w = gauss_legendre(6)
    x, w = 1.5 * x, 1.5 * w
    nodes, weights = gauss_tensor_rule(1.5, 6)
    ref = np.stack(np.meshgrid(x, x, x, indexing="ij"), axis=-1).reshape(-1, 3)
    assert nodes.tobytes() == ref.tobytes()  # same values, same row order
    assert weights.tobytes() == (w[:, None, None] * w[None, :, None] * w).reshape(-1).tobytes()
    assert nodes.T.flags.c_contiguous


class TestFdOracle:
    def test_constant_field(self):
        const = np.array([1.0, -2.0, 0.5])
        fn = lambda x: np.broadcast_to(const, np.asarray(x).shape).copy()
        x = np.array([0.3, 0.1, -0.2])
        assert np.max(np.abs(fd_derivative_oracle(fn, x, "curl"))) < 1e-12
        assert abs(fd_derivative_oracle(fn, x, "divergence")) < 1e-12

    def test_rigid_rotation_curl(self):
        fn = lambda x: np.stack([-x[..., 1], x[..., 0], np.zeros_like(x[..., 0])], axis=-1)
        curl = fd_derivative_oracle(fn, np.array([0.4, -0.7, 0.2]), "curl")
        assert np.max(np.abs(curl - np.array([0.0, 0.0, 2.0]))) < 1e-10

    def test_lundquist_curl_eigen(self):
        from trkalian.fields import lundquist
        f = lundquist(1.0, 1.0)
        r, theta, z = 0.7, 0.3, 0.2
        x = np.array([r * np.cos(theta), r * np.sin(theta), z])
        curl = fd_derivative_oracle(f, x, "curl")
        val = f(x)
        assert np.linalg.norm(curl - 1.0 * val) / np.linalg.norm(val) < 1e-8

    def test_gradient_and_laplacian(self):
        fn = lambda x: np.exp(-np.sum(np.asarray(x) ** 2, axis=-1))
        x = np.array([0.2, -0.3, 0.5])
        grad = fd_derivative_oracle(fn, x, "gradient")
        assert np.max(np.abs(grad - (-2 * x * fn(x)))) < 1e-10
        lap = fd_derivative_oracle(fn, x, "laplacian")
        r2 = np.sum(x * x)
        assert abs(lap - (4 * r2 - 6) * fn(x)) < 1e-8

    def test_fourth_order_convergence(self):
        fn = lambda x: np.sin(np.asarray(x)[..., 0] * 3.0)
        x = np.array([0.3, 0.0, 0.0])
        errs = []
        for h in (4e-2, 2e-2):
            grad = fd_derivative_oracle(fn, x, "gradient", h=h)
            errs.append(abs(grad[0] - 3 * np.cos(0.9)))
        assert errs[1] < errs[0] / 12.0  # ~16x for 4th order

    def test_fd_field_matches_pointwise_oracle(self):
        from trkalian.fields import gaussian_test_field
        f = gaussian_test_field((0.1, 0.0, -0.2), 1.0, (1.0, 0.5j, -0.3))
        pts = np.random.default_rng(3).uniform(-1, 1, size=(5, 3))
        batch = fd_field(f, "curl")(pts)
        for i, p in enumerate(pts):
            single = fd_derivative_oracle(f, p, "curl")
            assert np.max(np.abs(batch[i] - single)) < 1e-12

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            fd_derivative_oracle(lambda x: x, np.zeros(3), "hessian")
        with pytest.raises(ValueError):
            fd_derivative_oracle(lambda x: x, np.zeros(3), "curl", h=0.0)
        with pytest.raises(ValueError):
            fd_field(lambda x: x, "curl", h=0.0)
        with pytest.raises(ValueError):
            fd_field(lambda x: np.sum(x, axis=-1), "curl")(np.zeros((2, 3)))


def test_as_direction_validation():
    as_direction(np.array([0.0, 0.0, 1.0]))
    with pytest.raises(ValueError):
        as_direction(np.array([0.0, 0.0, 1.0 + 1e-9]))
    with pytest.raises(ValueError):
        as_direction(np.array([1.0, 0.0]))
    for zero_dim in (5.0, np.float64(1.0), np.array(1.0)):
        with pytest.raises(ValueError, match="3 components"):
            as_direction(zero_dim)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError):
            as_direction(np.array([bad, 0.0, 0.0]))


def test_as_direction_checks_every_row_of_a_batch():
    v = np.random.default_rng(11).normal(size=(1000, 3))
    v /= np.linalg.norm(v, axis=-1)[:, None]
    as_direction(v)
    v[7] *= 1.0 + 2e-12
    with pytest.raises(ValueError, match="not unit"):
        as_direction(v)


def random_waves(n, value_shape, seed):
    rng = np.random.default_rng(seed)
    d = rng.normal(size=(n, 3))
    d /= np.linalg.norm(d, axis=-1)[:, None]
    amps = rng.normal(size=(n,) + value_shape) + 1j * rng.normal(size=(n,) + value_shape)
    return d, rng.uniform(-3.0, 3.0, size=n), amps


def loop_wave_sum(x, d, f, amps):
    """Reference: one wave at a time."""
    out = 0.0
    for j in range(f.size):
        phase = np.exp(1j * f[j] * (x @ d[j]))
        out = out + phase.reshape(phase.shape + (1,) * (amps.ndim - 1)) * amps[j]
    return out


def assert_rel_close(a, b, rtol):
    assert a.shape == b.shape
    assert np.max(np.abs(a - b)) <= rtol * np.max(np.abs(b))


class TestPlaneWaveSum:
    @pytest.mark.parametrize("value_shape", [(3,), ()])
    @pytest.mark.parametrize("x_shape", [(3,), (7, 3), (2, 4, 3)])
    def test_matches_loop_over_waves(self, value_shape, x_shape):
        d, f, amps = random_waves(37, value_shape, seed=12)
        x = np.random.default_rng(13).uniform(-2.0, 2.0, size=x_shape)
        out = plane_wave_sum(x, d, f, amps)
        assert out.shape == x_shape[:-1] + value_shape
        assert_rel_close(out, loop_wave_sum(x, d, f, amps), 1e-13)

    def test_no_waves_give_zeros_of_the_value_shape(self):
        x = np.zeros((5, 3))
        out = plane_wave_sum(x, np.zeros((0, 3)), np.zeros(0), np.zeros((0, 3)))
        assert out.shape == (5, 3) and not np.any(out)
        assert plane_wave_sum(x, np.zeros((0, 3)), np.zeros(0), np.zeros(0)).shape == (5,)

    def test_chunked_batch_matches_single_points(self):
        # 300 points x 512 waves is above the 2^16 pairs of one chunk; BLAS
        # may round a product differently with the number of rows
        d, f, amps = random_waves(512, (3,), seed=14)
        x = np.random.default_rng(15).uniform(-2.0, 2.0, size=(300, 3))
        out = plane_wave_sum(x, d, f, amps)
        single = np.array([plane_wave_sum(xi, d, f, amps) for xi in x])
        assert_rel_close(out, single, 1e-14)
