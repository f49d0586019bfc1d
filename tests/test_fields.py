import numpy as np
import pytest

from trkalian.core import bessel_j, bessel_j1_first_zero, fd_derivative_oracle
from trkalian.moses import frame_index_of, moses_frame
from trkalian.fields import (CKCircularParams, HelicityMode, ModeField,
                             abc_field, bessel_j0_scalar, certify_trkalian,
                             ck_circular, ck_field, ck_toroidal,
                             eval_mode_field, gauge_gradient_field,
                             gaussian_scalar, gaussian_test_field, lundquist,
                             lundquist_potential, mode_sampled_field,
                             plane_wave_scalar, ScalarField)

EZ = np.array([0.0, 0.0, 1.0])
EX = np.array([1.0, 0.0, 0.0])
EY = np.array([0.0, 1.0, 0.0])


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
        psi = bessel_j0_scalar(nu, amplitude=-nu)
        f = ck_field(psi, EZ, nu)
        ref = lundquist(-nu**2, nu)
        rng = np.random.default_rng(31)
        for _ in range(4):
            x = rng.uniform(-1.5, 1.5, size=3)
            assert np.max(np.abs(f(x) - ref(x))) < 1e-9

    def test_toroidal_part_is_divergence_free(self):
        psi = plane_wave_scalar((0.4, -0.3, 0.8))
        tor = ck_toroidal(psi, np.array([0.0, 1.0, 0.0]))
        div = fd_derivative_oracle(tor, np.array([0.1, 0.2, -0.3]), "divergence")
        assert abs(div) < 1e-7

    def test_rejects_wrong_helmholtz_constant(self):
        psi = plane_wave_scalar((0.0, 0.0, 1.0))
        with pytest.raises(ValueError):
            ck_field(psi, EX, 2.0)
        with pytest.raises(ValueError):
            ck_field(psi, EX, 0.0)


class TestCKCircular:
    def test_reduces_to_lundquist(self):
        f = ck_circular(CKCircularParams(m=0, k=0.0, nu=1.0))
        ref = lundquist(-1.0, 1.0)
        rng = np.random.default_rng(32)
        for _ in range(5):
            x = rng.uniform(-2, 2, size=3)
            assert np.max(np.abs(f(x) - ref(x))) < 1e-12

    def test_eigenvalue_with_axial_wavenumber(self):
        params = CKCircularParams(m=1, k=0.5, nu=1.0)
        assert abs(params.sigma - np.sqrt(1.25)) < 1e-15
        f = ck_circular(params)
        assert rel_curl_defect(f, np.array([0.6, -0.4, 0.3]), params.sigma) < 1e-6

    def test_bounded_on_axis(self):
        f = ck_circular(CKCircularParams(m=1, k=0.0, nu=1.0))
        vals = f(np.array([[0.0, 0.0, 0.0], [1e-9, 0.0, 0.0]]))
        assert np.all(np.isfinite(vals))
        assert np.max(np.abs(vals[0] - vals[1])) < 1e-8

    def test_transverse_components_linear_near_axis_for_m2(self):
        # J_2(nu r)/r ~ nu^2 r / 8 and J_2'(nu r) ~ nu r / 4, so the
        # transverse components scale with r on both sides of the 1e-8
        # switch to the series term
        f = ck_circular(CKCircularParams(m=2, k=0.5, nu=1.0))
        near, far = f(np.array([[5e-9, 0.0, 0.0], [2e-8, 0.0, 0.0]]))
        assert np.max(np.abs(near[:2] / far[:2] - 0.25)) < 1e-12 * 0.25

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            CKCircularParams(m=-1, k=0.0, nu=1.0)
        with pytest.raises(ValueError):
            CKCircularParams(m=0, k=0.0, nu=0.0)


class TestGaugeGradient:
    def test_linear_function_gives_constant(self):
        v = np.array([1.0, -2.0, 0.5])
        u = ScalarField(name="linear", evaluator=lambda x: np.asarray(x) @ v)
        f = gauge_gradient_field(u)
        assert np.max(np.abs(f(np.array([0.3, 0.1, -0.7])) - v)) < 1e-10

    def test_output_is_curl_free(self):
        u = gaussian_scalar((0.2, -0.1, 0.4), 1.3)
        f = gauge_gradient_field(u)
        rng = np.random.default_rng(33)
        for _ in range(3):
            x = rng.uniform(-1, 1, size=3)
            assert np.max(np.abs(fd_derivative_oracle(f, x, "curl"))) < 1e-7

    def test_axial_wave(self):
        nu = 1.7
        u = ScalarField(name="wave", evaluator=lambda x: np.exp(1j * nu * np.asarray(x)[..., 2]))
        f = gauge_gradient_field(u)
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
    lambda: ck_circular(CKCircularParams(m=0, k=NAN, nu=1.0)),
    lambda: ck_circular(CKCircularParams(m=0, k=0.0, nu=NAN)),
    lambda: ck_circular(CKCircularParams(m=1, k=0.0, nu=1.0, amplitude=INF)),
    lambda: ModeField(modes=(HelicityMode(lam=1, nu=NAN, kappa0=EZ, amplitude=1.0),)),
    lambda: ModeField(modes=(HelicityMode(lam=1, nu=1.0, kappa0=EZ, amplitude=complex(NAN, 0.0)),)),
], ids=["gaussian-center", "gaussian-width-nan", "gaussian-width-inf", "gaussian-polarization",
        "lundquist-f0", "lundquist-nu", "lundquist-potential-nu", "abc-b", "abc-nu", "ck-k",
        "ck-nu", "ck-amplitude", "mode-nu", "mode-amplitude"])
def test_catalog_rejects_non_finite_parameters(build):
    with pytest.raises(ValueError, match="finite"):
        build()


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
            ck_circular(CKCircularParams(m=1, k=0.5, nu=1.0)),
            abc_field(1.0, 0.5, 0.25),
            mode_sampled_field(ModeField(modes=tuple(modes))),
        ]
        for f in catalog:
            assert certify_trkalian(f, n_points=10, rtol=1e-6) < 1e-6
