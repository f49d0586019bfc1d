import math

import numpy as np
import pytest

from trkalian.core import bessel_j, bessel_j1_first_zero, fd_derivative_oracle, fd_field
from trkalian.moses import frame_index_of, moses_frame
from trkalian.fields import (HelicityMode, ModeField, _jm_over_x,
                             abc_field, bessel_j0_scalar, certify_trkalian,
                             ck_circular, ck_field, ck_toroidal,
                             eval_mode_field, gaussian_scalar, gaussian_test_field,
                             lundquist, lundquist_potential, mode_sampled_field,
                             SampledField, ScalarField)

EZ = np.array([0.0, 0.0, 1.0])
EX = np.array([1.0, 0.0, 0.0])
EY = np.array([0.0, 1.0, 0.0])


def plane_wave_scalar(wavevector) -> ScalarField:
    """The Helmholtz solution e^{i q . x} (constant |q|^2) with its analytic
    gradient i q e^{i q . x}."""
    q = np.asarray(wavevector, dtype=float)

    def evaluator(x):
        return np.exp(1j * (np.asarray(x, dtype=float) @ q))

    return ScalarField(name="plane_wave", evaluator=evaluator,
                       gradient=lambda x: 1j * q * evaluator(x)[..., None])


def rel_curl_defect(f, x, eigenvalue, h=1e-3):
    curl = fd_derivative_oracle(f, x, "curl", h)
    val = f(x)
    return np.linalg.norm(curl - eigenvalue * val) / np.linalg.norm(val)


class TestHelicityMode:
    def test_support_condition_enforced(self):
        HelicityMode(lam=1, nu=1.0, kappa0=EZ, amplitude=1.0, mu=1)
        HelicityMode(lam=-1, nu=1.0, kappa0=EZ, amplitude=1.0, mu=-1)
        with pytest.raises(ValueError):
            ModeField(modes=(HelicityMode(lam=-1, nu=1.0, kappa0=EZ, amplitude=1.0, mu=1),))
        with pytest.raises(ValueError):
            ModeField(modes=(HelicityMode(lam=1, nu=-1.0, kappa0=EZ, amplitude=1.0, mu=1),))

    def test_mode_field_requires_shared_parameters(self):
        m1 = HelicityMode(lam=1, nu=1.0, kappa0=EZ, amplitude=1.0)
        m2 = HelicityMode(lam=1, nu=2.0, kappa0=EX, amplitude=1.0)
        with pytest.raises(ValueError):
            ModeField(modes=(m1, m2))

    @pytest.mark.parametrize("modes", [
        (),
        (HelicityMode(lam=2, nu=1.0, kappa0=EZ, amplitude=1.0),),
        (HelicityMode(lam=1, nu=1.0, kappa0=EZ, amplitude=1.0, mu=0),),
        (HelicityMode(lam=1, nu=0.0, kappa0=EZ, amplitude=1.0),),
        (HelicityMode(lam=1, nu=1.0, kappa0=EZ, amplitude=1.0, g=0.0),),
        (HelicityMode(lam=1, nu=1.0, kappa0=EZ, amplitude=1.0, g=-2.0),),
        (HelicityMode(lam=1, nu=1.0, kappa0=EZ, amplitude=1.0),
         HelicityMode(lam=-1, nu=-1.0, kappa0=EX, amplitude=1.0)),
        (HelicityMode(lam=1, nu=1.0, kappa0=EZ, amplitude=1.0),
         HelicityMode(lam=1, nu=1.0, kappa0=EX, amplitude=1.0, g=2.0)),
        (HelicityMode(lam=1, nu=1.0, kappa0=EZ, amplitude=1.0),
         HelicityMode(lam=1, nu=1.0, kappa0=1.01 * EX, amplitude=1.0)),
    ], ids=["empty", "lam-2", "mu-0", "nu-0", "g-0", "g-negative", "rows-disagree-lam",
            "rows-disagree-g", "non-unit-kappa0"])
    def test_mode_field_rejects(self, modes):
        with pytest.raises(ValueError):
            ModeField(modes=modes)


class TestModeField:
    @pytest.mark.parametrize("lam, nu, mu", [(1, 1.3, 1), (-1, -0.7, 1), (1, -0.9, -1)])
    def test_matches_loop_over_modes(self, lam, nu, mu):
        rng = np.random.default_rng(44)
        kappas = rng.normal(size=(6, 3))
        kappas /= np.linalg.norm(kappas, axis=-1)[:, None]
        kappas = np.vstack([kappas, -EZ, [np.sqrt(1.0 - 0.9999**2), 0.0, -0.9999]])
        modes = tuple(HelicityMode(lam=lam, nu=nu, kappa0=k, amplitude=complex(*rng.normal(size=2)),
                                   mu=mu, g=1.7) for k in kappas)
        x = rng.uniform(-2.0, 2.0, size=(5, 4, 3))
        ref = 0.0
        for m in modes:
            phase = np.exp(1j * m.mu * m.lam * m.nu * (x @ m.kappa0))
            ref = ref + m.amplitude * phase[..., None] * moses_frame(m.kappa0, frame_index_of(m.lam))
        ref = (2.0 * np.pi) ** -1.5 / 1.7 * ref
        out = eval_mode_field(ModeField(modes=modes), x)
        assert out.shape == ref.shape == (5, 4, 3)
        assert np.max(np.abs(out - ref)) <= 1e-13 * np.max(np.abs(ref))

    def test_single_mode_at_origin(self):
        g = 1.0
        mode = HelicityMode(lam=1, nu=1.0, kappa0=EZ, amplitude=(2 * np.pi) ** 1.5 * g, g=g)
        val = eval_mode_field(ModeField(modes=(mode,)), np.zeros(3))
        assert np.allclose(val, np.array([1.0, 1.0j, 0.0]) / np.sqrt(2), atol=1e-15)

    def test_curl_eigenrelation_both_sectors(self):
        rng = np.random.default_rng(21)
        for mu in (1, -1):
            for nu in (1.0, -2.0):
                lam = mu if nu > 0 else -mu
                modes = []
                for _ in range(3):
                    k = rng.normal(size=3)
                    k /= np.linalg.norm(k)
                    modes.append(HelicityMode(lam=lam, nu=nu, kappa0=k,
                                              amplitude=complex(rng.normal(), rng.normal()),
                                              mu=mu))
                mf = ModeField(modes=tuple(modes))
                fn = lambda x: eval_mode_field(mf, x)
                x = rng.uniform(-1, 1, size=3)
                assert rel_curl_defect(fn, x, mu * nu) < 1e-7

    def test_modes_are_divergence_free(self):
        rng = np.random.default_rng(22)
        k = rng.normal(size=3)
        k /= np.linalg.norm(k)
        mf = ModeField(modes=(HelicityMode(lam=1, nu=1.0, kappa0=k, amplitude=1.0),))
        fn = lambda x: eval_mode_field(mf, x)
        div = fd_derivative_oracle(fn, rng.uniform(-1, 1, size=3), "divergence")
        assert abs(div) < 1e-7

    def test_three_modes_reduce_to_abc(self):
        # equal-magnitude amplitudes, phased per direction
        a = b = c = 1.0
        g, nu = 1.0, 1.0
        scale = np.sqrt(2.0) * (2 * np.pi) ** 1.5 * g
        modes = (
            HelicityMode(lam=1, nu=nu, kappa0=EZ, amplitude=-1j * scale * a, g=g),
            HelicityMode(lam=1, nu=nu, kappa0=EX, amplitude=-scale * b, g=g),
            HelicityMode(lam=1, nu=nu, kappa0=EY, amplitude=scale * c, g=g),
        )
        mf = ModeField(modes=modes)
        ref = abc_field(a, b, c, nu)
        rng = np.random.default_rng(23)
        for _ in range(5):
            x = rng.uniform(-2, 2, size=3)
            assert np.max(np.abs(eval_mode_field(mf, x).real - ref(x).real)) < 1e-13

    def test_sampled_wrapper_certifies(self):
        mf = ModeField(modes=(HelicityMode(lam=1, nu=1.0, kappa0=EZ, amplitude=1.0),))
        f = mode_sampled_field(mf)
        assert f.eigenvalue == 1.0
        assert certify_trkalian(f) < 1e-6


class TestLundquist:
    def test_on_axis_value(self):
        f = lundquist(2.5, 1.0)
        assert np.allclose(f(np.zeros(3)), [0, 0, 2.5])

    def test_curl_eigenrelation(self):
        f = lundquist(1.0, 1.0)
        assert rel_curl_defect(f, np.array([0.5, 0.4, 0.1]), 1.0) < 1e-8

    def test_azimuthal_component_vanishes_at_bessel_zero(self):
        root = bessel_j1_first_zero()
        f = lundquist(1.0, 1.0)
        x = np.array([root, 0.0, 0.0])
        val = f(x)
        # e_theta at this point is e_y
        assert abs(val[1]) < 1e-9
        assert abs(val[0]) < 1e-15

    def test_negative_eigenvalue(self):
        f = lundquist(1.0, -1.5)
        assert rel_curl_defect(f, np.array([0.3, -0.2, 0.6]), -1.5) < 1e-8

    def test_rejects_zero_nu(self):
        with pytest.raises(ValueError):
            lundquist(1.0, 0.0)


class TestCKField:
    def test_plane_wave_gives_circular_polarization(self):
        psi = plane_wave_scalar((0.0, 0.0, 1.0))
        f = ck_field(psi, EX, 1.0)
        x = np.array([0.2, 0.3, 0.4])
        expected = np.exp(1j * 0.4) * np.array([1.0, 1.0j, 0.0])
        assert np.max(np.abs(f(x) - expected)) < 1e-12
        assert rel_curl_defect(f, x, 1.0) < 1e-7

    def test_bessel_debye_reduces_to_lundquist(self):
        nu = 1.0
        f = ck_field(bessel_j0_scalar(nu), EZ, nu)
        ref = lundquist(nu, nu)
        rng = np.random.default_rng(31)
        for _ in range(4):
            x = rng.uniform(-1.5, 1.5, size=3)
            assert np.max(np.abs(f(x) - ref(x))) < 1e-9

    def test_toroidal_part_is_divergence_free(self):
        psi = plane_wave_scalar((0.4, -0.3, 0.8))
        tor = ck_toroidal(psi, np.array([0.0, 1.0, 0.0]))
        div = fd_derivative_oracle(tor, np.array([0.1, 0.2, -0.3]), "divergence")
        assert abs(div) < 1e-7

    def test_gradient_from_finite_differences_when_psi_has_none(self):
        psi = plane_wave_scalar((0.4, -0.3, 0.8))
        bare = ScalarField(name="plane_wave", evaluator=psi.evaluator)
        x = np.random.default_rng(36).uniform(-1.0, 1.0, size=(4, 3))
        fd, analytic = ck_toroidal(bare, EY)(x), ck_toroidal(psi, EY)(x)
        assert np.max(np.abs(fd - analytic)) < 1e-11

    def test_bessel_scalar_has_unit_amplitude(self):
        # J_0(|nu| r): 1 on the axis at any height, even in nu
        psi, flipped = bessel_j0_scalar(1.3), bessel_j0_scalar(-1.3)
        assert np.array_equal(psi(np.array([[0.0, 0.0, -2.0], [0.0, 0.0, 3.0]])), [1.0, 1.0])
        x = np.array([0.7, -0.4, 0.2])
        assert psi(x) == flipped(x) == bessel_j(0, 1.3 * np.hypot(0.7, -0.4))

    def test_finite_difference_route_rejects_non_finite_points(self):
        # the poloidal part, fd_field's curl, is computed first and names the point
        f = ck_field(bessel_j0_scalar(1.0), EZ, 1.0)
        with pytest.raises(ValueError, match="points and their stencil points"):
            f(np.array([np.inf, 0.0, 0.0]))

    def test_rejects_wrong_helmholtz_constant(self):
        psi = plane_wave_scalar((0.0, 0.0, 1.0))
        with pytest.raises(ValueError):
            ck_field(psi, EX, 2.0)
        with pytest.raises(ValueError):
            ck_field(psi, EX, 0.0)


class TestCKCircular:
    def test_reduces_to_lundquist(self):
        f = ck_circular(m=0, k=0.0, nu=1.0)
        ref = lundquist(-1.0, 1.0)
        rng = np.random.default_rng(32)
        for _ in range(5):
            x = rng.uniform(-2, 2, size=3)
            assert np.max(np.abs(f(x) - ref(x))) < 1e-12

    def test_eigenvalue_with_axial_wavenumber(self):
        f = ck_circular(m=1, k=0.5, nu=1.0)
        assert abs(f.eigenvalue - np.sqrt(1.25)) < 1e-15
        assert rel_curl_defect(f, np.array([0.6, -0.4, 0.3]), f.eigenvalue) < 1e-6

    def test_bounded_on_axis(self):
        f = ck_circular(m=1, k=0.0, nu=1.0)
        vals = f(np.array([[0.0, 0.0, 0.0], [1e-9, 0.0, 0.0]]))
        assert np.all(np.isfinite(vals))
        assert np.max(np.abs(vals[0] - vals[1])) < 1e-8

    def test_transverse_components_linear_near_axis_for_m2(self):
        # J_2(nu r)/r ~ nu^2 r / 8 and J_2'(nu r) ~ nu r / 4, so the
        # transverse components scale with r on both sides of the 1e-8
        # switch to the series term
        f = ck_circular(m=2, k=0.5, nu=1.0)
        near, far = f(np.array([[5e-9, 0.0, 0.0], [2e-8, 0.0, 0.0]]))
        assert np.max(np.abs(near[:2] / far[:2] - 0.25)) < 1e-12 * 0.25

    @pytest.mark.parametrize("k", [0.0, 0.5])
    @pytest.mark.parametrize("m", range(5))
    def test_matches_the_two_sided_derivative_form(self, m, k, monkeypatch):
        """J_m' = J_{m-1} - m J_m/x, from two Bessel calls per evaluation,
        gives the field of J_m' = (J_{m-1} - J_{m+1})/2 on a grid through
        the axis."""
        from scipy import special

        import trkalian.fields as fields_mod
        calls = []

        def counted(order, x):
            calls.append(order)
            return bessel_j(order, x)

        monkeypatch.setattr(fields_mod, "bessel_j", counted)
        nu, sigma = 1.3, np.hypot(1.3, k)
        field = ck_circular(m, k, nu)
        g = np.linspace(-2.0, 2.0, 9)
        pts = np.stack(np.meshgrid(g, g, g, indexing="ij"), axis=-1).reshape(-1, 3)
        got = field(pts)
        assert sorted(calls) == ([m - 1, m] if m else [0, 1])

        r, theta, z = np.hypot(pts[:, 0], pts[:, 1]), np.arctan2(pts[:, 1], pts[:, 0]), pts[:, 2]
        xr = nu * r
        dpsi = nu * special.jvp(m, xr)
        on_axis = nu / 2 if m == 1 else 0.0  # lim m J_m(nu r)/r
        m_over_r = np.where(r == 0, on_axis, m * special.jv(m, xr) / np.where(r == 0, 1, r))
        f_r = 1j * (k * dpsi - sigma * m_over_r)
        f_th = sigma * dpsi - k * m_over_r
        phase = np.exp(1j * (m * theta - k * z))
        ref = np.stack([(f_r * np.cos(theta) - f_th * np.sin(theta)) * phase,
                        (f_r * np.sin(theta) + f_th * np.cos(theta)) * phase,
                        -nu**2 * special.jv(m, xr) * phase], axis=-1)
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))

    def test_parameter_validation(self):
        with pytest.raises(ValueError, match="m must be a non-negative integer"):
            ck_circular(m=-1, k=0.0, nu=1.0)
        with pytest.raises(ValueError, match="nu must be finite and positive"):
            ck_circular(m=0, k=0.0, nu=0.0)

    @pytest.mark.parametrize("args, match", [
        ((1.5, 0.0, 1.0), "m must be a non-negative integer"),
        ((0, 0.0, -1.0), "nu must be finite and positive"),
        ((0, np.inf, 1.0), "k must be finite"),
        ((0, 0.0, 1.0, complex(np.nan, 0.0)), "amplitude must be finite"),
    ], ids=["fractional-m", "negative-nu", "infinite-k", "nan-amplitude"])
    def test_names_the_bad_parameter(self, args, match):
        with pytest.raises(ValueError, match=match):
            ck_circular(*args)

    def test_eigenvalue_is_even_in_k(self):
        # sigma = hypot(nu, k): the axial wave's direction leaves it unchanged
        up, down = ck_circular(2, 0.7, 1.3), ck_circular(2, -0.7, 1.3)
        assert up.eigenvalue == down.eigenvalue == np.hypot(1.3, 0.7)
        assert rel_curl_defect(down, np.array([0.4, 0.5, -0.2]), down.eigenvalue) < 1e-6

    def test_amplitude_scales_the_field(self):
        pts = np.random.default_rng(33).uniform(-1.5, 1.5, size=(6, 3))
        unit = ck_circular(1, 0.5, 1.0)(pts)
        scaled = ck_circular(1, 0.5, 1.0, amplitude=-2.5)(pts)
        assert np.max(np.abs(scaled - (-2.5) * unit)) <= 1e-15 * np.max(np.abs(unit))


class TestGaugeGradient:
    """The gauge gradient grad U, the curl-free part a field may gain, is
    fd_field's gradient of the scalar U."""

    def test_linear_function_gives_constant(self):
        v = np.array([1.0, -2.0, 0.5])
        f = fd_field(lambda x: np.asarray(x) @ v, "gradient")
        assert np.max(np.abs(f(np.array([0.3, 0.1, -0.7])) - v)) < 1e-10

    def test_output_is_curl_free(self):
        f = fd_field(gaussian_scalar((0.2, -0.1, 0.4), 1.3), "gradient")
        rng = np.random.default_rng(33)
        for _ in range(3):
            x = rng.uniform(-1, 1, size=3)
            assert np.max(np.abs(fd_derivative_oracle(f, x, "curl"))) < 1e-7

    def test_axial_wave(self):
        nu = 1.7
        f = fd_field(lambda x: np.exp(1j * nu * np.asarray(x)[..., 2]), "gradient")
        x = np.array([0.5, 0.2, 0.3])
        expected = np.array([0.0, 0.0, 1j * nu * np.exp(1j * nu * 0.3)])
        assert np.max(np.abs(f(x) - expected)) < 1e-9


class TestLundquistPotential:
    def test_curl_defect_is_constant(self):
        f0, nu = 1.3, 0.8
        a, residual = lundquist_potential(f0, nu)
        assert np.allclose(residual, [0, 0, f0])
        rng = np.random.default_rng(34)
        for _ in range(3):
            x = rng.uniform(-1, 1, size=3)
            curl = fd_derivative_oracle(a, x, "curl")
            defect = curl - nu * a(x)
            assert np.max(np.abs(defect - residual)) < 1e-7

    def test_gauge_term_matches_residual(self):
        g = 1.0
        nu = 2.0
        f0 = nu**2 / g
        # -(i/g) grad ln(e^{i nu z}) = (nu / g) e_z, equal to (1/nu) F0 e_z
        gauge_term = np.array([0.0, 0.0, nu / g])
        assert np.allclose(gauge_term, [0, 0, f0 / nu])
        field = lundquist(f0, nu)
        a, _ = lundquist_potential(f0, nu)
        x = np.array([0.4, -0.7, 1.1])
        assert np.max(np.abs(field(x) - nu * (a(x) + gauge_term))) < 1e-12

    def test_mass_quantization_on_fundamental_period(self):
        g = 1.0
        ell = 2 * np.pi / g**2
        nu = 2 * g**2  # n = 2
        z = 0.37
        u = lambda s: np.exp(1j * nu * s)
        assert abs(u(z + ell) - u(z)) < 1e-12
        # non-integer n breaks single-valuedness
        nu_bad = 2.5 * g**2
        assert abs(np.exp(1j * nu_bad * (z + ell)) - np.exp(1j * nu_bad * z)) > 0.1


class TestGaussianProbe:
    def test_value_at_center(self):
        pol = np.array([1.0, 2.0j, -0.5])
        f = gaussian_test_field((0.3, -0.2, 0.1), 0.7, pol)
        assert np.max(np.abs(f(np.array([0.3, -0.2, 0.1])) - pol)) < 1e-15

    def test_rapid_decay(self):
        f = gaussian_test_field((0.0, 0.0, 0.0), 1.0, (1.0, 0.0, 0.0))
        val = f(np.array([6.0, 0.0, 0.0]))
        assert np.max(np.abs(val)) < 1e-14

    def test_divergence_matches_closed_form(self):
        center = np.array([0.1, 0.0, -0.2])
        width = 1.2
        pol = np.array([0.7, -0.4, 1.1])
        f = gaussian_test_field(center, width, pol)
        x = np.array([0.5, 0.3, 0.2])
        div = fd_derivative_oracle(f, x, "divergence")
        d = x - center
        expected = -2.0 * (d @ pol) / width**2 * np.exp(-(d @ d) / width**2)
        assert abs(div - expected) < 1e-8

    def test_rejects_bad_width(self):
        with pytest.raises(ValueError):
            gaussian_test_field((0, 0, 0), -1.0, (1, 0, 0))

    @pytest.mark.parametrize("center, pol", [((1.0, 2.0), (1, 0, 0)), ((0, 0, 0), (1, 0)),
                                             ((0, 0, 0, 0), (1, 0, 0)), (0.0, (1, 0, 0))])
    def test_rejects_non_3_vectors(self, center, pol):
        with pytest.raises(ValueError, match="3-vectors"):
            gaussian_test_field(center, 1.0, pol)


def written_out_envelope(x, c, width):
    d = np.asarray(x, dtype=float) - c
    d0, d1, d2 = d[..., 0], d[..., 1], d[..., 2]
    return np.exp(-(d0 * d0 + d1 * d1 + d2 * d2) / width**2)


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("shape", [(3,), (50, 3), (4, 7, 3)])
def test_envelope_bitwise_equals_written_out_formula(shape, order):
    x = np.asarray(np.random.default_rng(31).normal(scale=2.0, size=shape), order=order)
    before = x.copy(order=order)
    c, width = np.array([0.3, -0.7, 1.1]), 1.3
    got = gaussian_scalar(c, width)(x)
    assert got.tobytes() == written_out_envelope(x, c, width).tobytes()
    assert x.tobytes(order="A") == before.tobytes(order="A")  # the input is only read
    assert type(got) is (np.float64 if shape == (3,) else np.ndarray)


def complex_product_probe(x, c, width, pol):
    """The Gaussian probe as the broadcast complex product g P."""
    return gaussian_scalar(c, width)(x)[..., None] * pol


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("shape", [(3,), (50, 3), (4, 7, 3)])
def test_gaussian_probe_bitwise_equals_complex_product(shape, order):
    x = np.asarray(np.random.default_rng(32).normal(scale=2.0, size=shape), order=order)
    c, width, pol = np.array([0.3, -0.7, 1.1]), 1.3, np.array([1.0 - 0.5j, -0.25 + 2.0j, 0.75])
    got = gaussian_test_field(c, width, pol)(x)
    assert got.tobytes() == complex_product_probe(x, c, width, pol).tobytes()
    assert got.shape == shape and got.dtype == complex and got.flags.c_contiguous


@pytest.mark.parametrize("pol", [(-1.0, 0.0, 0.0), (1.0 - 1.0j, -2.0 + 0.5j, -0.3 - 0.1j),
                                 (complex(-0.0, -1.0), complex(1.0, -0.0), 0.0),
                                 (0.0, 0.0, 0.0)],
                         ids=["real-negative", "complex", "signed-zero-parts", "zero"])
def test_gaussian_probe_keeps_the_signs_of_zero(pol):
    # where g p is zero (g underflows, or p = -0.0) the complex product
    # decides the sign of each zero part; the probe keeps it
    x = np.array([[0.0, 0.0, 0.0], [27.2, 0.0, 0.0], [30.0, 0.0, 0.0], [0.0, -60.0, 40.0]])
    pol = np.array(pol, dtype=complex)
    for pts in (x, x[0], x[1], x[1:3]):
        got = gaussian_test_field((0.0, 0.0, 0.0), 1.0, pol)(pts)
        assert got.tobytes() == complex_product_probe(pts, np.zeros(3), 1.0, pol).tobytes()


def complex_assignment_lundquist(x, f0, nu):
    """The Lundquist field with its components assigned into a complex array."""
    x = np.asarray(x, dtype=float)
    px, py = x[..., 0], x[..., 1]
    r = np.hypot(px, py)
    ratio = _jm_over_x(1, nu * r)
    out = np.empty(x.shape, dtype=complex)
    out[..., 0] = -f0 * nu * ratio * py
    out[..., 1] = f0 * nu * ratio * px
    out[..., 2] = f0 * bessel_j(0, np.abs(nu) * r)
    return out


def test_axis_series_term_keeps_its_bits_and_vanishes_past_the_float_factorials():
    # float(171!) overflowed; below, the term is x^(m-1) / (2^m m!) bit for bit
    x = np.array([0.0, 5e-324, 1e-300, 3e-150, 2e-9, 9.99e-9])
    for m in range(1, 171):
        expected = x ** (m - 1) / (2.0**m * math.factorial(m))
        assert _jm_over_x(m, x).tobytes() == expected.tobytes()
    for m in (171, 1024, 10**6):
        assert not _jm_over_x(m, x).any()


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("shape", [(3,), (50, 3), (4, 7, 3)])
def test_lundquist_bitwise_equals_complex_assignment(shape, order):
    x = np.random.default_rng(33).normal(scale=2.0, size=shape)
    flat = x.reshape(-1, 3)
    flat[-1, :2] = 0.0  # on the axis, r = 0
    if len(flat) > 1:
        flat[0, :2] = (-3e-9, 2e-9)  # nu r < 1e-8: the series branch of J1(nu r)/(nu r)
    x = np.asarray(x, order=order)
    for f0, nu in ((1.3, 0.9), (-0.7, -2.5)):
        got = lundquist(f0, nu)(x)
        assert got.tobytes() == complex_assignment_lundquist(x, f0, nu).tobytes()
        assert got.shape == shape and got.dtype == complex and got.flags.c_contiguous


def test_lundquist_is_zero_where_nu_r_overflows():
    # nu r = Inf, where J0 and J1 tend to 0; scipy's NaN there once came through
    with np.errstate(over="ignore"):  # numpy's own warning on nu r
        got = lundquist(1.0, 10.0)(np.array([[1e308, 0.0, 0.0], [0.0, -1e308, 5.0]]))
    assert np.all(got == 0.0)


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("build", [
    lambda: gaussian_test_field((0, NAN, 0), 1.0, (1, 0, 0)),
    lambda: gaussian_test_field((0, 0, 0), NAN, (1, 0, 0)),
    lambda: gaussian_test_field((0, 0, 0), INF, (1, 0, 0)),
    lambda: gaussian_test_field((0, 0, 0), 1.0, (1, complex(0, INF), 0)),
    lambda: lundquist(NAN, 1.0),
    lambda: lundquist(1.0, NAN),
    lambda: lundquist_potential(1.0, INF),
    lambda: abc_field(1.0, NAN, 1.0),
    lambda: abc_field(1.0, 1.0, 1.0, nu=-INF),
    lambda: ck_circular(m=0, k=NAN, nu=1.0),
    lambda: ck_circular(m=0, k=0.0, nu=NAN),
    lambda: ck_circular(m=1, k=0.0, nu=1.0, amplitude=INF),
    lambda: ModeField(modes=(HelicityMode(lam=1, nu=NAN, kappa0=EZ, amplitude=1.0),)),
    lambda: ModeField(modes=(HelicityMode(lam=1, nu=1.0, kappa0=EZ, amplitude=complex(NAN, 0.0)),)),
], ids=["gaussian-center", "gaussian-width-nan", "gaussian-width-inf", "gaussian-polarization",
        "lundquist-f0", "lundquist-nu", "lundquist-potential-nu", "abc-b", "abc-nu", "ck-k",
        "ck-nu", "ck-amplitude", "mode-nu", "mode-amplitude"])
def test_catalog_rejects_non_finite_parameters(build):
    with pytest.raises(ValueError, match="finite"):
        build()


def unevaluated_psi() -> ScalarField:
    """A Debye scalar that fails the test when it is evaluated."""
    def evaluator(x):
        raise AssertionError("psi evaluated before the parameters were checked")
    return ScalarField(name="unevaluated", evaluator=evaluator)


@pytest.mark.parametrize("build, match", [
    (lambda: ck_field(unevaluated_psi(), EZ, NAN), "nu must be finite"),
    (lambda: ck_field(unevaluated_psi(), EZ, INF), "nu must be finite"),
    (lambda: ck_field(unevaluated_psi(), (0, 1), 1.0), "omega takes 3-vectors only"),
    (lambda: ck_field(unevaluated_psi(), (0, NAN, 1), 1.0), "omega must be finite"),
    (lambda: ck_toroidal(unevaluated_psi(), (0, 0, 1, 0)), "omega takes 3-vectors only"),
    (lambda: ck_toroidal(unevaluated_psi(), (INF, 0, 0)), "omega must be finite"),
    (lambda: bessel_j0_scalar(NAN), "nu must be finite"),
], ids=["ck-nan-nu", "ck-inf-nu", "ck-short-omega", "ck-nan-omega", "toroidal-long-omega",
        "toroidal-inf-omega", "bessel-j0-nu"])
def test_debye_constructors_name_the_bad_parameter(build, match):
    # a ValueError before any evaluation, where NaN passed the Helmholtz
    # check and a 2-vector omega gave a wrong field without a word
    with pytest.raises(ValueError, match=match):
        build()


@pytest.mark.parametrize("build", [
    lambda: lundquist(1.0, 1.0),
    lambda: lundquist_potential(1.0, 1.0)[0],
    lambda: ck_circular(m=1, k=0.5, nu=1.0),
    lambda: abc_field(1.0, 0.5, 0.25),
    lambda: bessel_j0_scalar(1.0),
    lambda: bessel_j0_scalar(1.0).gradient,
    lambda: ck_toroidal(bessel_j0_scalar(1.0), EZ),
    lambda: mode_sampled_field(ModeField(modes=(HelicityMode(lam=1, nu=1.0, kappa0=EZ,
                                                             amplitude=1.0),))),
], ids=["lundquist", "lundquist-potential", "ck-circular", "abc", "bessel-j0",
        "bessel-j0-gradient", "ck-toroidal", "mode"])
@pytest.mark.parametrize("bad", [INF, -INF, NAN], ids=["inf", "-inf", "nan"])
def test_catalog_fields_name_non_finite_points(build, bad):
    # a ValueError, where the Bessel, trigonometric and phase factors gave NaN values
    f = build()
    with pytest.raises(ValueError, match=r"finite; 1 of 1 are not: \[\[0.0, [^]]+, 0.0\]\]"):
        f(np.array([0.0, bad, 0.0]))
    pts = np.zeros((5, 3))
    pts[1:, 2] = bad
    with pytest.raises(ValueError, match=r"4 of 5 are not: .* \.\.\.$"):
        f(pts)


@pytest.mark.parametrize("center, width, match", [
    ((1.0, 2.0), 1.0, "center takes 3-vectors"), (0.0, 1.0, "center takes 3-vectors"),
    ((0, NAN, 0), 1.0, "center must be finite"), ((0, 0, 0), NAN, "width must be finite"),
    ((0, 0, 0), INF, "width must be finite"), ((0, 0, 0), 0.0, "width must be finite and positive"),
    ((0, 0, 0), 1e-200, "width must square to a positive finite float, got 1e-200"),
    ((0, 0, 0), 1e200, r"width must square to a positive finite float, got 1e\+200"),
], ids=["short-center", "scalar-center", "nan-center", "nan-width", "inf-width", "zero-width",
        "underflowing-width", "overflowing-width"])
def test_gaussian_scalar_names_the_bad_parameter(center, width, match):
    # the probe field is built on the scalar envelope and fails the same way
    with pytest.raises(ValueError, match=match):
        gaussian_scalar(center, width)
    with pytest.raises(ValueError, match=match):
        gaussian_test_field(center, width, (1, 0, 0))


@pytest.mark.parametrize("n_points", [0, -1])
def test_certify_rejects_fewer_than_one_point(n_points):
    # a ValueError, where no points certified any field without evaluating it
    def never(x):
        raise AssertionError("field evaluated")

    f = SampledField(name="never", evaluator=never, eigenvalue=1.0)
    with pytest.raises(ValueError, match="^n_points must be an integer >= 1"):
        certify_trkalian(f, n_points=n_points)


class TestCatalogCertification:
    def test_all_catalog_members(self):
        rng = np.random.default_rng(35)
        modes = []
        for _ in range(16):
            k = rng.normal(size=3)
            k /= np.linalg.norm(k)
            modes.append(HelicityMode(lam=1, nu=1.0, kappa0=k,
                                      amplitude=complex(rng.normal(), rng.normal())))
        catalog = [
            lundquist(1.0, 1.0),
            ck_circular(m=1, k=0.5, nu=1.0),
            abc_field(1.0, 0.5, 0.25),
            mode_sampled_field(ModeField(modes=tuple(modes))),
        ]
        for f in catalog:
            assert certify_trkalian(f, n_points=10, rtol=1e-6) < 1e-6
