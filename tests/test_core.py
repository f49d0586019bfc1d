import dataclasses

import numpy as np
import pytest

from trkalian.core import (PlaneQuadrature, _check_3vector, _check_finite, _finite_points,
                           as_direction, bessel_j, bessel_j1_first_zero, fd_derivative_oracle,
                           fd_field, gauss_legendre, gauss_tensor_rule, plane_basis,
                           plane_wave_sum, sphere_quadrature)


class TestSphereQuadrature:
    def test_minimal_rule_normalization(self):
        quad = sphere_quadrature(2, 4)
        assert quad.n == 8
        assert abs(np.sum(quad.weights) - 4 * np.pi) < 1e-10

    @pytest.mark.parametrize("n_polar, n_azimuth, name", [
        (8.0, 16, "n_polar"), (np.nan, 16, "n_polar"), (1, 16, "n_polar"), ("8", 16, "n_polar"),
        (8, 16.5, "n_azimuth"), (8, 16.0, "n_azimuth"), (8, 3, "n_azimuth"), (8, None, "n_azimuth"),
    ])
    def test_rejects_counts_that_are_not_integers_by_name(self, n_polar, n_azimuth, name):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            sphere_quadrature(n_polar, n_azimuth)

    def test_accepts_numpy_integer_counts(self):
        assert sphere_quadrature(np.int64(8), np.int64(16)).n == 128

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

    def test_first_zero_of_j1(self, monkeypatch):
        import trkalian.core as core_mod
        calls = []

        def counted(order, x):
            calls.append(order)
            return bessel_j(order, x)

        monkeypatch.setattr(core_mod, "bessel_j", counted)
        root = bessel_j1_first_zero()
        assert root == 3.831705970207512  # the 1e-14 bisection's value, bit for bit
        assert abs(bessel_j(1, root)) < 1e-13
        assert len(calls) <= 10

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
        # NaN fails every comparison, so it once passed as x >= 0
        for m, x in ((1, np.nan), (0, np.array([0.5, np.nan])), (3, np.nan)):
            with pytest.raises(ValueError, match="x not NaN"):
                bessel_j(m, x)

    @pytest.mark.parametrize("m", [0, 1, 3])
    def test_limit_zero_at_infinity(self, m):
        # scipy gives NaN at +Inf; the finite values are scipy's, unchanged
        from scipy import special

        assert bessel_j(m, np.inf) == 0.0 and type(bessel_j(m, np.inf)) is float
        x = np.array([[2.5, np.inf], [0.0, 1e308]])
        got = bessel_j(m, x)
        assert got[0, 1] == 0.0
        finite = np.isfinite(x)
        scipy_jm = {0: special.j0, 1: special.j1}.get(m, lambda x: special.jv(m, x))
        assert got[finite].tobytes() == scipy_jm(x[finite]).tobytes()
        assert bessel_j(m, np.empty(0)).shape == (0,)


class TestFinitePoints:
    @pytest.mark.parametrize("shape", [(3,), (0, 3), (2, 4, 3)])
    def test_returns_float_input_as_it_is(self, shape):
        x = np.random.default_rng(3).normal(size=shape)
        assert _finite_points(x) is x
        assert _finite_points(x.tolist()).tobytes() == x.tobytes()

    def test_names_nan_and_infinite_rows_of_a_batch(self):
        x = np.zeros((2, 4, 3))
        x[0, 1, 2], x[1, 0, 0], x[1, 3, 1] = np.nan, np.inf, -np.inf
        with pytest.raises(ValueError, match=r"finite; 3 of 8 are not: \[\[0.0, 0.0, nan\], "
                                             r"\[inf, 0.0, 0.0\], \[0.0, -inf, 0.0\]\]$"):
            _finite_points(x)
        x[0, 2] = np.nan
        with pytest.raises(ValueError, match=r"4 of 8 are not: .* \.\.\.$"):
            _finite_points(x)


class TestCheckFinite:
    @pytest.mark.parametrize("rule, value, message", [
        ("", np.nan, "x must be finite, got nan"),
        ("", complex(0.0, np.inf), "x must be finite, got infj"),
        ("", np.array([1.0, -np.inf]), r"x must be finite, got array\(\[ +1\., -inf\]\)"),
        ("positive", 0.0, "x must be finite and positive, got 0.0"),
        ("positive", -np.inf, "x must be finite and positive, got -inf"),
        ("positive", np.array([1.0, -2.0]), "x must be finite and positive, got array"),
        ("nonzero", -0.0, "x must be finite and nonzero, got -0.0"),
        ("nonzero", np.nan, "x must be finite and nonzero, got nan"),
        ("nonzero", np.zeros(3), "x must be finite and nonzero, got array"),
    ])
    def test_one_message_form(self, rule, value, message):
        with pytest.raises(ValueError, match=f"^{message}"):
            _check_finite(rule, x=value)

    @pytest.mark.parametrize("rule, value", [
        ("", -1.0), ("", 0), ("", 1 + 2j), ("positive", 1e-300), ("positive", np.int64(3)),
        ("nonzero", -5e-324), ("nonzero", np.array([0.0, 0.0, -1.0]))])
    def test_accepts(self, rule, value):
        _check_finite(rule, x=value)

    def test_names_the_first_bad_parameter_in_order(self):
        with pytest.raises(ValueError, match="^b must be"):
            _check_finite(a=1.0, b=np.nan, c=np.inf)
        with pytest.raises(ValueError, match="^rule must be finite"):  # any name, "rule" too
            _check_finite("", rule=np.nan)

    def test_3vector(self):
        assert _check_3vector("v", [1, 2, 3]).tolist() == [1.0, 2.0, 3.0]
        with pytest.raises(ValueError, match="^v takes 3-vectors only, not shape"):
            _check_3vector("v", [1.0, 2.0])
        with pytest.raises(ValueError, match="^v must be finite, got array"):
            _check_3vector("v", [0.0, np.nan, 0.0])


class TestPlaneQuadrature:
    def test_validation(self):
        with pytest.raises(ValueError):
            PlaneQuadrature(half_width=-1.0)
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="half_width must be finite"):
                PlaneQuadrature(half_width=bad)

    def test_half_width_is_the_one_field(self):
        # the node count is a class constant, as the rule name is; trk radon records both
        assert [f.name for f in dataclasses.fields(PlaneQuadrature)] == ["half_width"]
        assert (PlaneQuadrature.n_per_axis, PlaneQuadrature.rule) == (32, "trapezoid")
        with pytest.raises(TypeError):
            PlaneQuadrature(8.0, 32)

    def test_trapezoid_integrates_gaussian(self):
        quad = PlaneQuadrature(half_width=8.0)
        x, w = quad.nodes_1d()
        val = np.sum(w * np.exp(-x * x))
        assert abs(val - np.sqrt(np.pi)) < 1e-12

    def test_trapezoid_nodes_are_exactly_antisymmetric(self):
        x, w = PlaneQuadrature(half_width=8.0).nodes_1d()
        assert x.tobytes() == (-x[::-1]).tobytes()
        assert w.tobytes() == w[::-1].tobytes()
        assert (x[0], x[-1]) == (-8.0, 8.0)
        h = 16.0 / 31
        assert w[0] == w[-1] == 0.5 * h and np.all(w[1:-1] == h)

    def test_cli_trapezoid_rule_integrates_off_centre_gaussian(self):
        # half-width 8 and 32 nodes, the rule of trk radon at width 1; 40
        # Gauss-Legendre nodes on the same interval are off by 1.4e-10 of √π
        x, w = PlaneQuadrature(half_width=8.0).nodes_1d()
        val = np.sum(w * np.exp(-(x - 0.37) ** 2))
        assert abs(val - np.sqrt(np.pi)) < 1e-14


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

    @pytest.mark.parametrize("kind, m", [
        ("curl", 12), ("divergence", 12), ("gradient", 12), ("laplacian", 15)])
    @pytest.mark.parametrize("lead", [(), (7,), (2, 5)])
    def test_field_sees_each_points_stencil_as_one_batch(self, kind, m, lead):
        seen = []

        def field(y):
            seen.append(y.shape)
            return y

        x = np.random.default_rng(9).uniform(-1, 1, size=lead + (3,))
        fd_field(field, kind)(x)
        assert seen == [lead + (m, 3)]

    @pytest.mark.parametrize("kind", ["curl", "divergence", "gradient", "laplacian"])
    @pytest.mark.parametrize("name", ["lundquist", "gaussian"])
    def test_batch_equals_stacked_one_point_calls(self, kind, name):
        from trkalian.fields import gaussian_test_field, lundquist
        f = (lundquist(1.0, 1.3) if name == "lundquist"
             else gaussian_test_field((0.1, 0.0, -0.2), 1.0, (1.0, 0.5j, -0.3)))
        seen = []

        def field(y):
            seen.append(f(y))
            return seen[-1]

        pts = np.random.default_rng(10).uniform(-1.5, 1.5, size=(50, 3))
        batch = fd_field(field, kind)(pts)
        single = np.stack([fd_derivative_oracle(field, p, kind) for p in pts])
        # each point's stencil values are the one-point call's, bit for bit
        assert seen[0].tobytes() == np.stack(seen[1:]).tobytes()
        assert batch.tobytes() == single.tobytes()

    @pytest.mark.parametrize("kind", ["curl", "divergence", "gradient", "laplacian"])
    def test_derivative_does_not_depend_on_the_row(self, kind):
        from trkalian.fields import lundquist
        f = lundquist(1.0, 1.3)
        pts = np.random.default_rng(11).uniform(-1.5, 1.5, size=(450, 3))
        moved = np.roll(pts, 449, axis=0)  # row 0 of pts is row 449 of moved
        one = fd_field(f, kind)(pts[0]).tobytes()
        assert fd_field(f, kind)(pts)[0].tobytes() == one
        assert fd_field(f, kind)(moved)[449].tobytes() == one

    def test_rejects_values_not_shaped_like_the_stencil(self):
        with pytest.raises(ValueError, match="do not lead with the stencil"):
            fd_field(lambda y: y.reshape(-1, 3), "curl")(np.zeros((2, 3)))

    @pytest.mark.parametrize("kind, offsets", [
        ("curl", [-2.0, -1.0, 1.0, 2.0]), ("laplacian", [-2.0, -1.0, 0.0, 1.0, 2.0])])
    @pytest.mark.parametrize("h", [1e-3, 2.5e-3, 0.3])
    def test_stencil_points_are_the_broadcast_sums_bit_for_bit(self, kind, offsets, h):
        # the stencil as first written: a coordinate that is not displaced gets
        # +0.0 added at offsets >= 0 and -0.0 at negative ones, so -0.0 stays
        # -0.0 only at the negative offsets
        x = np.random.default_rng(8).uniform(-1, 1, size=(5, 3))
        x[0], x[1, 1], x[2] = -0.0, -0.0, [-0.0, 0.0, -0.0]
        expected = (x[:, None, None, :]
                    + h * np.array(offsets)[None, :, None, None] * np.eye(3)[None, None, :, :])
        seen = []

        def field(y):
            seen.append(y.copy())
            return y

        fd_field(field, kind, h)(x)
        assert seen[0].tobytes() == expected.reshape(-1, 3).tobytes()
        assert np.signbit(seen[0][seen[0] == 0.0]).any()

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            fd_derivative_oracle(lambda x: x, np.zeros(3), "hessian")
        with pytest.raises(ValueError):
            fd_derivative_oracle(lambda x: x, np.zeros(3), "curl", h=0.0)
        with pytest.raises(ValueError):
            fd_field(lambda x: x, "curl", h=0.0)
        with pytest.raises(ValueError):
            fd_field(lambda x: np.sum(x, axis=-1), "curl")(np.zeros((2, 3)))

    @pytest.mark.parametrize("h", [np.inf, -np.inf, np.nan, 0.0, -1e-3])
    def test_rejects_a_step_that_is_not_finite_and_positive(self, h):
        with pytest.raises(ValueError, match="^h must be finite and positive"):
            fd_field(lambda x: x, "curl", h)

    @pytest.mark.parametrize("kind", ["curl", "gradient", "laplacian"])
    @pytest.mark.parametrize("x, h", [
        ([np.inf, 0.0, 0.0], 1e-3), ([0.0, np.nan, 0.0], 1e-3),
        ([[0.1, 0.2, 0.3], [0.0, 0.0, -np.inf]], 1e-3),
        ([1.0, 0.0, 0.0], 1e308),  # finite, but 2 h overflows
    ], ids=["inf", "nan", "one-of-two", "overflowing-stencil"])
    def test_rejects_non_finite_points_before_calling_the_field(self, kind, x, h):
        def never(x):
            raise AssertionError("field called on non-finite points")

        with pytest.raises(ValueError, match="points and their stencil points"):
            fd_field(never, kind, h)(np.array(x))


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
