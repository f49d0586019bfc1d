import warnings

import numpy as np
import pytest

from trkalian.biotsavart import (BoundaryContributionWarning, VolumeQuadrature,
                                 ampere_fluxes, ball_quadrature, box_quadrature,
                                 bs_integral, bs_lundquist_semianalytic,
                                 bs_lundquist_terms, poisson_angular_moments,
                                 poisson_angular_moments_numeric,
                                 poisson_region_match, riesz_potential)
from trkalian.core import (bessel_j, bessel_j1_first_zero, fd_derivative_oracle,
                           gauss_legendre, gauss_tensor_rule, sphere_quadrature)
from trkalian.fields import (SampledField, gaussian_scalar,
                             gaussian_test_field, lundquist)


def solenoidal_gaussian() -> SampledField:
    """curl of exp(-|x|^2) e_z: divergence-free and rapidly decreasing."""

    def evaluator(x):
        x = np.asarray(x, dtype=float)
        env = np.exp(-np.sum(x * x, axis=-1))
        out = np.empty(x.shape, dtype=complex)
        out[..., 0] = -2.0 * x[..., 1] * env
        out[..., 1] = 2.0 * x[..., 0] * env
        out[..., 2] = 0.0
        return out

    return SampledField(name="solenoidal_gaussian", evaluator=evaluator)


def quiet_riesz(f, x, quad):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", BoundaryContributionWarning)
        return riesz_potential(f, x, quad)


def quiet_bs(f, x, quad):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", BoundaryContributionWarning)
        return bs_integral(f, x, quad)


def real_solenoidal(x):
    """A real-valued (float) field with a nonzero divergence-free part."""
    x = np.asarray(x, dtype=float)
    env = np.exp(-np.sum(x * x, axis=-1))
    return np.stack([-2.0 * x[..., 1] * env, 2.0 * x[..., 0] * env, 0.3 * env], axis=-1)


def reference_riesz(fn, x, quad):
    """riesz_potential at one point as first written: node-by-node temporaries."""
    if quad.kind == "ball":
        r, wr = gauss_legendre(quad.n_radial)
        r, wr = 0.5 * quad.extent * (r + 1.0), 0.5 * quad.extent * wr
        sphere = sphere_quadrature(quad.n_polar, quad.n_azimuth)
        pts = x[None, None, :] + r[:, None, None] * sphere.nodes[None, :, :]
        vals = np.asarray(fn(pts.reshape(-1, 3))).reshape(r.size, sphere.n, -1)
        acc = np.einsum("i,j,ijc->c", wr * r, sphere.weights, vals)
        return acc / (4.0 * np.pi)
    nodes, weights = gauss_tensor_rule(quad.extent, quad.n_per_axis)
    eps = quad.exclusion_radius
    d = x[None, :] - nodes
    dist = np.linalg.norm(d, axis=-1)
    vals = np.asarray(fn(nodes))
    if vals.ndim == 1:
        vals = vals[:, None]
    center = np.atleast_1d(np.asarray(fn(x[None, :]))[0])
    bump = np.exp(-((dist / eps) ** 2))
    safe = np.where(dist < 1e-300, 1.0, dist)
    compensated = (vals - bump[:, None] * center[None, :]) / safe[:, None]
    compensated[dist < 1e-300] = 0.0
    acc = np.sum(weights[:, None] * compensated, axis=0)
    return (acc + 2.0 * np.pi * eps**2 * center) / (4.0 * np.pi)


def reference_bs(fn, x, quad):
    """bs_integral at one point as first written: a cross product per node."""
    if quad.kind == "ball":
        r, wr = gauss_legendre(quad.n_radial)
        r, wr = 0.5 * quad.extent * (r + 1.0), 0.5 * quad.extent * wr
        sphere = sphere_quadrature(quad.n_polar, quad.n_azimuth)
        pts = x[None, None, :] + r[:, None, None] * sphere.nodes[None, :, :]
        vals = np.asarray(fn(pts.reshape(-1, 3))).reshape(r.size, sphere.n, 3)
        integrand = -np.cross(vals, sphere.nodes[None, :, :])
        return np.einsum("i,j,ijc->c", wr, sphere.weights, integrand) / (4.0 * np.pi)
    nodes, weights = gauss_tensor_rule(quad.extent, quad.n_per_axis)
    eps = quad.exclusion_radius
    d = x[None, :] - nodes
    dist = np.linalg.norm(d, axis=-1)
    cutoff = (1.0 - np.exp(-((dist / eps) ** 2))) ** 2
    safe = np.where(dist < 1e-300, 1.0, dist)
    kern = (cutoff / safe**3)[:, None] * d
    result = np.sum(weights[:, None] * np.cross(np.asarray(fn(nodes)), kern), axis=0)
    return result / (4.0 * np.pi) + 0.25 * eps**2 * fd_derivative_oracle(fn, x, "curl")


def counting(fn):
    """fn with the number of its calls in ``.calls``."""
    def wrapped(x):
        wrapped.calls += 1
        return fn(x)
    wrapped.calls = 0
    return wrapped


VOLUME_RULES = {
    "ball": ball_quadrature(7.0, n_radial=24, n_polar=10, n_azimuth=20),
    "box": box_quadrature(4.0, n_per_axis=24, exclusion_radius=0.4),
}
VOLUME_FIELDS = {
    "complex": gaussian_test_field((0.1, -0.2, 0.05), 1.1, (1.0 + 0.3j, -0.4j, 0.5)),
    "real": real_solenoidal,
}
VOLUME_POINTS = np.array([[0.3, -0.4, 0.5], [-0.2, 0.1, 0.0], [0.6, 0.2, -0.3]])


class TestVolumeKernels:
    """The contracted kernels against the node-by-node formulas, and batches
    against single points."""

    @pytest.mark.parametrize("field", sorted(VOLUME_FIELDS))
    @pytest.mark.parametrize("rule", sorted(VOLUME_RULES))
    @pytest.mark.parametrize("integral, reference", [(riesz_potential, reference_riesz),
                                                     (bs_integral, reference_bs)],
                             ids=["riesz", "bs"])
    def test_matches_node_by_node_formula(self, integral, reference, rule, field):
        fn, quad = VOLUME_FIELDS[field], VOLUME_RULES[rule]
        for x in VOLUME_POINTS:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", BoundaryContributionWarning)
                val = integral(fn, x, quad)
            ref = reference(fn, x, quad)
            assert val.shape == (3,) and val.dtype == ref.dtype
            assert np.max(np.abs(val - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_scalar_field_keeps_its_value_shape(self):
        g = gaussian_scalar()
        for quad in VOLUME_RULES.values():
            val = quiet_riesz(g, VOLUME_POINTS[0], quad)
            assert val.shape == ()
            ref = reference_riesz(g, VOLUME_POINTS[0], quad)
            assert abs(val - ref[0]) <= 1e-12 * abs(ref[0])
            assert quiet_riesz(g, VOLUME_POINTS.reshape(1, 3, 3), quad).shape == (1, 3)

    @pytest.mark.parametrize("rule", sorted(VOLUME_RULES))
    @pytest.mark.parametrize("integral", [riesz_potential, bs_integral], ids=["riesz", "bs"])
    def test_batch_equals_single_points(self, integral, rule):
        fn, quad = VOLUME_FIELDS["complex"], VOLUME_RULES[rule]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", BoundaryContributionWarning)
            batch = integral(fn, VOLUME_POINTS, quad)
            single = np.stack([integral(fn, x, quad) for x in VOLUME_POINTS])
        assert batch.shape == VOLUME_POINTS.shape
        if integral is bs_integral and rule == "box":
            # the eps^2/4 curl correction sums its stencil with one BLAS
            # product over the batch, whose rounding depends on the row
            # count; the 1/h stencil weights amplify it to ~1e-14
            assert np.max(np.abs(batch - single)) <= 1e-13 * np.max(np.abs(single))
        else:
            # every contraction is per point: the same bits in any batch
            assert batch.tobytes() == single.tobytes()

    def test_ball_rule_evaluates_a_batch_in_one_field_call(self):
        fn = counting(VOLUME_FIELDS["complex"])
        quiet_bs(fn, VOLUME_POINTS, VOLUME_RULES["ball"])
        assert fn.calls == 1  # the nodes of all points; the outermost shell is the edge

    @pytest.mark.parametrize("integral", [riesz_potential, bs_integral], ids=["riesz", "bs"])
    def test_box_rule_evaluates_a_batch_in_two_field_calls(self, integral):
        # the nodes, whose faces are the edge, then the centres (Riesz) or
        # the curl stencil (Biot-Savart) of all points
        fn = counting(VOLUME_FIELDS["complex"])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", BoundaryContributionWarning)
            integral(fn, VOLUME_POINTS, VOLUME_RULES["box"])
        assert fn.calls == 2

    @pytest.mark.parametrize("quad", [ball_quadrature(9.0), box_quadrature(6.0)],
                             ids=["ball", "box"])
    @pytest.mark.parametrize("integral", [riesz_potential, bs_integral], ids=["riesz", "bs"])
    def test_boundary_warning_control(self, integral, quad):
        x = np.array([0.3, -0.2, 0.1])
        inside = gaussian_test_field((0.0, 0.0, 0.0), 1.0, (1.0, 0.0, 0.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error", BoundaryContributionWarning)
            integral(inside, x, quad)
        on_boundary = gaussian_test_field((0.0, 0.0, 6.0), 1.0, (1.0, 0.0, 0.0))
        with pytest.warns(BoundaryContributionWarning, match="at 1 of 1 points"):
            integral(on_boundary, x, quad)

    @pytest.mark.parametrize("rule", sorted(VOLUME_RULES))
    @pytest.mark.parametrize("integral", [riesz_potential, bs_integral], ids=["riesz", "bs"])
    def test_batch_warns_once(self, integral, rule):
        const = SampledField(
            name="const",
            evaluator=lambda x: np.broadcast_to(
                np.array([0.0, 0.0, 1.0], dtype=complex), np.asarray(x).shape).copy())
        pts = np.random.default_rng(7).uniform(-0.5, 0.5, size=(4, 3))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            integral(const, pts, VOLUME_RULES[rule])
        boundary = [w for w in caught if issubclass(w.category, BoundaryContributionWarning)]
        assert len(boundary) == 1
        assert "of 4 points" in str(boundary[0].message)

    @pytest.mark.parametrize("integral", [riesz_potential, bs_integral], ids=["riesz", "bs"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_point_before_evaluating(self, integral, bad):
        fn = counting(VOLUME_FIELDS["complex"])
        pts = VOLUME_POINTS.copy()
        pts[1, 2] = bad
        for quad in VOLUME_RULES.values():
            with pytest.raises(ValueError, match="finite"):
                integral(fn, pts, quad)
        assert fn.calls == 0


class TestRieszPotential:
    def test_zero_field(self):
        zero = SampledField(name="zero",
                            evaluator=lambda x: np.zeros(np.asarray(x).shape, dtype=complex))
        val = quiet_riesz(zero, np.zeros(3), ball_quadrature(4.0))
        assert np.max(np.abs(val)) < 1e-300

    def test_gaussian_against_radial_oracle(self):
        g = gaussian_scalar()
        val = quiet_riesz(g, np.zeros(3), ball_quadrature(9.0))
        # (1/4pi) int e^{-r^2}/r 4 pi r^2 dr = int_0^inf e^{-r^2} r dr
        r, w = np.polynomial.legendre.leggauss(128)
        r = 4.5 * (r + 1.0)
        w = 4.5 * w
        oracle = np.sum(w * np.exp(-r * r) * r)
        assert abs(val - oracle) / abs(oracle) < 1e-4

    def test_negative_laplacian_inverts(self):
        f = gaussian_test_field((0.0, 0.0, 0.0), 1.0, (1.0, 0.0, 0.0))
        quad = ball_quadrature(9.0, n_radial=32, n_polar=12, n_azimuth=24)

        def potential(pts):
            return quiet_riesz(f, pts, quad)

        x = np.array([0.3, -0.2, 0.1])
        lap = fd_derivative_oracle(potential, x, "laplacian", h=2e-2)
        val = f(x)
        assert np.linalg.norm(-lap - val) / np.linalg.norm(val) < 1e-3

    def test_box_rule_with_singularity_compensation(self):
        g = gaussian_scalar()
        val = quiet_riesz(g, np.array([0.2, 0.1, -0.3]),
                          box_quadrature(8.0, n_per_axis=64))
        ref = quiet_riesz(g, np.array([0.2, 0.1, -0.3]), ball_quadrature(9.0))
        assert abs(val - ref) / abs(ref) < 2e-3

    def test_quadrature_validation(self):
        with pytest.raises(ValueError):
            VolumeQuadrature(kind="cylinder", extent=1.0)
        with pytest.raises(ValueError):
            VolumeQuadrature(kind="ball", extent=-1.0)
        for build in (lambda: VolumeQuadrature(kind="ball", extent=np.nan),
                      lambda: ball_quadrature(np.inf), lambda: box_quadrature(np.nan)):
            with pytest.raises(ValueError, match="extent .* must be finite"):
                build()
        with pytest.raises(ValueError):
            VolumeQuadrature(kind="box", extent=1.0, exclusion_radius=0.5)


class TestBSIntegral:
    def test_divergence_free_output(self):
        f = solenoidal_gaussian()
        quad = ball_quadrature(9.0, n_radial=32, n_polar=12, n_azimuth=24)

        def induced(pts):
            return quiet_bs(f, pts, quad)

        div = fd_derivative_oracle(induced, np.array([0.2, -0.4, 0.3]), "divergence", h=2e-2)
        assert abs(div) / np.linalg.norm(f(np.array([0.2, -0.4, 0.3]))) < 1e-5

    def test_curl_is_left_inverse(self):
        f = solenoidal_gaussian()
        quad = ball_quadrature(9.0, n_radial=32, n_polar=12, n_azimuth=24)

        def induced(pts):
            return quiet_bs(f, pts, quad)

        x = np.array([0.4, 0.1, -0.3])
        curl = fd_derivative_oracle(induced, x, "curl", h=2e-2)
        val = f(x)
        assert np.linalg.norm(curl - val) / np.linalg.norm(val) < 1e-3

    def test_linearity_antisymmetry(self):
        f = solenoidal_gaussian()
        neg = SampledField(name="neg", evaluator=lambda x: -f.evaluator(x))
        quad = ball_quadrature(6.0, n_radial=16, n_polar=8, n_azimuth=12)
        x = np.array([0.5, 0.0, 0.2])
        a = quiet_bs(f, x, quad)
        b = quiet_bs(neg, x, quad)
        assert np.max(np.abs(a + b)) == 0.0

    def test_boundary_defect_negative_control(self):
        # a constant field is divergence-free but not tangent to the boundary
        # of a finite fixed domain: curl BS = F fails by a detectable margin
        const = SampledField(
            name="const",
            evaluator=lambda x: np.broadcast_to(
                np.array([0.0, 0.0, 1.0], dtype=complex), np.asarray(x).shape).copy())
        quad = box_quadrature(2.0, n_per_axis=40)

        def induced(pts):
            return quiet_bs(const, pts, quad)

        x = np.array([0.1, 0.05, -0.1])
        curl = fd_derivative_oracle(induced, x, "curl", h=2e-2)
        defect = np.linalg.norm(curl - const(x))
        assert defect > 1e-3
        # near the cube center the uniform demagnetizing factor is 1/3
        assert np.linalg.norm(curl - 2.0 / 3.0 * const(x)) < 0.05

    def test_box_rule_matches_ball_rule(self):
        # the cut-off ball of radius eps around the point carries
        # +(eps^2/4) curl F; with it the box rule agrees with a fine ball
        # rule to O(eps^4), without it (or subtracted) they differ by > 0.2
        f = solenoidal_gaussian()
        box = box_quadrature(4.0, n_per_axis=40, exclusion_radius=0.3)
        for x in (np.array([0.4, 0.1, -0.3]), np.array([0.2, -0.1, 0.3])):
            ref = quiet_bs(f, x, ball_quadrature(9.0))
            val = quiet_bs(f, x, box)
            assert np.linalg.norm(val - ref) / np.linalg.norm(ref) < 0.05

    def test_boundary_warning_raised(self):
        const = SampledField(
            name="const",
            evaluator=lambda x: np.broadcast_to(
                np.array([0.0, 0.0, 1.0], dtype=complex), np.asarray(x).shape).copy())
        with pytest.warns(BoundaryContributionWarning):
            bs_integral(const, np.zeros(3), ball_quadrature(2.0, n_radial=8,
                                                            n_polar=6, n_azimuth=8))


class TestLundquistBS:
    def test_eigenrelation_at_three_radii(self):
        f0, nu = 1.0, 1.0
        field = lundquist(f0, nu)
        for x_over_nu in (0.5, 2.0, 5.0):
            radius = x_over_nu / nu
            theta = 0.7
            val = bs_lundquist_semianalytic(f0, nu, radius, theta)
            x = np.array([radius * np.cos(theta), radius * np.sin(theta), 0.0])
            ref = field(x).real / nu
            assert np.linalg.norm(val - ref) / np.linalg.norm(ref) < 1e-6

    def test_negative_eigenvalue(self):
        f0, nu = 0.7, -1.3
        field = lundquist(f0, nu)
        radius, theta = 1.1, 0.4
        val = bs_lundquist_semianalytic(f0, nu, radius, theta)
        x = np.array([radius * np.cos(theta), radius * np.sin(theta), 0.0])
        ref = field(x).real / nu
        assert np.linalg.norm(val - ref) / np.linalg.norm(ref) < 1e-6

    def test_axisymmetry_of_magnitude(self):
        mags = [np.linalg.norm(bs_lundquist_semianalytic(1.0, 1.0, 2.0, th))
                for th in (0.0, np.pi / 3, np.pi / 2)]
        assert max(mags) - min(mags) < 1e-10

    @pytest.mark.parametrize("nu, radius, name", [(np.nan, 2.0, "nu"), (np.inf, 2.0, "nu"),
                                                  (1.0, np.nan, "radius"),
                                                  (1.0, np.inf, "radius")])
    def test_rejects_non_finite_parameters(self, nu, radius, name):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            bs_lundquist_terms(nu, radius)
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            bs_lundquist_semianalytic(1.0, nu, radius, 0.3)

    def test_identity_residual_diagnostics(self):
        terms = bs_lundquist_terms(1.0, 2.0)
        assert terms.theta_identity_residual < 1e-12
        assert terms.tail_identity_residual < 1e-12


class TestAmpere:
    def test_flux_triangle_at_three_radii(self):
        f0, nu = 1.0, 1.0
        f = lundquist(f0, nu)
        for radius in (0.5, 1.0, bessel_j1_first_zero()):
            q, phi_s, phi_l = ampere_fluxes(f, radius, nu)
            closed = 2 * np.pi * f0 * radius * bessel_j(1, nu * radius)
            vals = [nu * q, phi_s, phi_l, closed]
            for i in range(4):
                for j in range(i + 1, 4):
                    diff = abs(vals[i] - vals[j])
                    scale = max(1.0, abs(vals[i]), abs(vals[j]))
                    assert diff / scale < 1e-6

    def test_fluxes_vanish_at_bessel_zero(self):
        f = lundquist(1.0, 1.0)
        q, phi_s, phi_l = ampere_fluxes(f, bessel_j1_first_zero(), 1.0)
        assert abs(q) < 1e-9
        assert abs(phi_s) < 1e-9
        assert abs(phi_l) < 1e-9

    def test_small_radius_series(self):
        f0, nu = 1.0, 1.0
        radius = 0.01
        f = lundquist(f0, nu)
        _, _, phi_l = ampere_fluxes(f, radius, nu)
        series = np.pi * f0 * nu * radius**2
        assert abs(phi_l - series) / series < 1e-3

    def test_tilted_offset_loop_on_mode_field(self):
        # the flux relation holds for any planar loop on a curl eigenfield
        from trkalian.fields import HelicityMode, ModeField, eval_mode_field
        rng = np.random.default_rng(44)
        modes = []
        for _ in range(3):
            k = rng.normal(size=3)
            k /= np.linalg.norm(k)
            modes.append(HelicityMode(lam=1, nu=1.0, kappa0=k,
                                      amplitude=complex(rng.normal(), rng.normal())))
        mf = ModeField(modes=tuple(modes))
        fn = lambda x: eval_mode_field(mf, x)
        normal = rng.normal(size=3)
        q, phi_s, phi_l = ampere_fluxes(fn, 0.8, 1.0, center=(0.3, -0.2, 0.5),
                                        normal=normal)
        assert abs(phi_s - 1.0 * q) / abs(q) < 1e-6
        assert abs(phi_l - 1.0 * q) / abs(q) < 1e-6

    def test_rejects_bad_radius(self):
        fn = counting(lundquist(1.0, 1.0))
        for radius in (-1.0, 0.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="radius"):
                ampere_fluxes(fn, radius, 1.0)
        assert fn.calls == 0

    @pytest.mark.parametrize("center", [(0.0, np.nan, 0.0), (np.inf, 0.0, 0.0)])
    def test_rejects_non_finite_center(self, center):
        fn = counting(lundquist(1.0, 1.0))
        with pytest.raises(ValueError, match="center"):
            ampere_fluxes(fn, 1.0, 1.0, center=center)
        assert fn.calls == 0

    @pytest.mark.parametrize("normal", [(0.0, 0.0, 0.0), (0.0, np.nan, 1.0), (np.inf, 0.0, 1.0)])
    def test_rejects_zero_or_non_finite_normal(self, normal):
        fn = counting(lundquist(1.0, 1.0))
        with pytest.raises(ValueError, match="normal"):
            ampere_fluxes(fn, 1.0, 1.0, normal=normal)
        assert fn.calls == 0


class TestConsistencyTriangle:
    def test_curl_of_double_transform_is_induced_field(self):
        # curl R^dagger R [F] = 8 pi^2 BS[F] at default resolutions
        from trkalian.core import PlaneQuadrature, sphere_quadrature
        from trkalian.radon import adjoint_radon, radon_forward_numeric

        f = gaussian_test_field((0.0, 0.0, 0.0), 1.0, (1.0, 0.0, 0.5))
        sphere = sphere_quadrature(8, 16, antipodal=True)
        plane = PlaneQuadrature(half_width=8.0, n_per_axis=40)

        def double_transform(pts):
            pts = np.asarray(pts, dtype=float)
            flat = pts.reshape(-1, 3)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                out = np.stack([
                    adjoint_radon(
                        lambda p, k: radon_forward_numeric(f, p, k, plane), q, sphere)
                    for q in flat
                ])
            return out.reshape(pts.shape[:-1] + (3,))

        x = np.array([0.2, -0.1, 0.3])
        curl = fd_derivative_oracle(double_transform, x, "curl", h=2e-2)
        rhs = 8 * np.pi**2 * quiet_bs(f, x, ball_quadrature(9.0))
        assert np.linalg.norm(curl - rhs) / np.linalg.norm(rhs) < 2e-2


class TestPoisson:
    def test_closed_forms_match_quadrature(self):
        for r in (0.4, 2.9):
            closed = poisson_angular_moments(1.7, r, 0.6)
            numeric = poisson_angular_moments_numeric(1.7, r, 0.6)
            for c, n in zip(closed, numeric):
                assert abs(c - n) < 1e-10

    def test_region_split_matches(self):
        assert poisson_region_match(1.7, 0.6) < 1e-5
        assert poisson_region_match(0.9, 1.2) < 1e-5

    def test_singular_on_matching_circle(self):
        with pytest.raises(ValueError):
            poisson_angular_moments(1.0, 1.0, 0.3)
