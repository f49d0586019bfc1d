import warnings

import numpy as np
import pytest

from trkalian.core import PlaneQuadrature, sphere_quadrature
from trkalian.fields import (HelicityMode, ModeField, SampledField,
                             gaussian_scalar, gaussian_test_field)
from trkalian.radon import (AnalyticProfile, GridProfile, gamma_apply, lundquist_radon_profile,
                            radon_forward_grid, radon_forward_numeric,
                            radon_mode_analytic)
from trkalian.rbs import (fourier_slice_check, fourier_slice_pair,
                          gauge_atom, radon_riesz, rbs_apply,
                          rbs_eigendefect, rbs_left_inverse_check)

PLANE = PlaneQuadrature(half_width=8.0)
SQRT_2PI = np.sqrt(2 * np.pi)


def tone_grid(coefficients, sphere=None, n_p=64, period=2 * np.pi):
    """Vector grid profile sum_m c_m(kappa) e^{i m (2 pi / period) p}."""
    sphere = sphere or sphere_quadrature(4, 8, antipodal=True)
    p = period * np.arange(n_p) / n_p
    samples = np.zeros((n_p, sphere.n, 3), dtype=complex)
    for m, c in coefficients.items():
        samples += np.exp(1j * m * (2 * np.pi / period) * p)[:, None, None] * c
    return GridProfile(p=p, sphere=sphere, samples=samples)


def transverse_tone_grid(seed=0, n_p=64):
    """Zero-mean, kappa-transverse two-tone grid profile."""
    sphere = sphere_quadrature(4, 8, antipodal=True)
    rng = np.random.default_rng(seed)
    coeffs = {}
    for m in (1, 3):
        c = rng.normal(size=(sphere.n, 3)) + 1j * rng.normal(size=(sphere.n, 3))
        c -= np.einsum("jk,jk->j", sphere.nodes, c)[:, None] * sphere.nodes
        coeffs[m] = c
    return tone_grid(coeffs, sphere=sphere, n_p=n_p)


@pytest.mark.parametrize("call, match", [
    (lambda fn: fourier_slice_check(fn, np.array([0.0, 0.0, 1.0]), np.nan, PLANE),
     "^k must be finite, got nan"),
    (lambda fn: fourier_slice_pair(fn, np.array([0.0, 0.0, 1.0]), -np.inf, PLANE),
     "^k must be finite"),
    (lambda fn: rbs_eigendefect(AnalyticProfile([[0.0, 0.0, 1.0]], [1.0], [[1.0, 1j, 0.0]],
                                                [1.0], nu=0.0)),
     "^nu must be finite and nonzero"),
    (lambda fn: rbs_eigendefect(AnalyticProfile([[0.0, 0.0, 1.0]], [1.0], [[1.0, 1j, 0.0]],
                                                [1.0], nu=np.nan)),
     "^nu must be finite and nonzero"),
], ids=["slice-check-nan-k", "slice-pair-inf-k", "eigendefect-nu-zero", "eigendefect-nu-nan"])
def test_names_a_bad_scalar_parameter_before_any_work(call, match):
    # a ValueError naming the parameter, where NaN gave a NaN residual and
    # nu = 0 a bare ZeroDivisionError
    calls = []

    def fn(x):
        calls.append(len(x))
        return gaussian_scalar()(x)

    with pytest.raises(ValueError, match=match):
        call(fn)
    assert calls == []


class TestFourierSlice:
    def test_gaussian_scalar_closed_form(self):
        g = gaussian_scalar()
        k = 1.0
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            lhs, rhs = fourier_slice_pair(g, np.array([0.0, 0.0, 1.0]), k, PLANE)
        # both sides equal 2 pi (2 pi)^{-3/2} pi^{3/2} e^{-k^2/4}
        target = np.pi**1.5 / SQRT_2PI * np.exp(-k * k / 4)
        assert abs(lhs - target) / target < 5e-15
        assert abs(rhs - target) / target < 1e-13
        assert abs(lhs - rhs) / target < 1e-13

    def test_zero_frequency_reduces_to_space_integral(self):
        g = gaussian_scalar()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            lhs, rhs = fourier_slice_pair(g, np.array([0.0, 0.0, 1.0]), 0.0, PLANE)
        target = np.pi**1.5 / SQRT_2PI  # (2 pi)^{-1/2} int F d^3x
        assert abs(lhs - target) / target < 5e-15
        assert abs(rhs - target) / target < 5e-15

    def test_polarization_carried_componentwise(self):
        pol = np.array([1.0, -0.5, 0.25])
        f = gaussian_test_field((0.0, 0.0, 0.0), 1.0, pol)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            lhs, rhs = fourier_slice_pair(f, np.array([0.0, 0.0, 1.0]), 0.7, PLANE)
        assert np.max(np.abs(lhs / lhs[0] - pol / pol[0])) < 1e-10
        assert np.max(np.abs(lhs - rhs)) / np.max(np.abs(lhs)) < 2e-13

    def test_residual_api(self):
        g = gaussian_scalar()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            res = fourier_slice_check(g, np.array([0.0, 0.0, 1.0]), 1.0, PLANE)
        assert res < 1e-13


class TestRadonRiesz:
    def test_pure_tone_is_scaled_by_inverse_frequency_squared(self):
        nu = 1.0
        sphere = sphere_quadrature(4, 8, antipodal=True)
        c = np.ones((sphere.n, 3), dtype=complex)
        grid = tone_grid({1: c}, sphere=sphere)
        out = radon_riesz(grid)
        expected = grid.samples / nu**2
        assert np.max(np.abs(out.samples - expected)) < 1e-14

    def test_negative_gamma_squared_is_left_inverse(self):
        grid = transverse_tone_grid(seed=1)
        # Gamma x Gamma x = -d^2/dp^2 on transverse profiles
        back = gamma_apply(gamma_apply(radon_riesz(grid), "cross"), "cross")
        assert np.max(np.abs(back.samples - grid.samples)) < 1e-9

    def test_linearity_on_two_tones(self):
        sphere = sphere_quadrature(4, 8, antipodal=True)
        rng = np.random.default_rng(2)
        c1 = rng.normal(size=(sphere.n, 3)) + 0j
        c2 = rng.normal(size=(sphere.n, 3)) + 0j
        out_sum = radon_riesz(tone_grid({1: c1, 2: c2}, sphere=sphere))
        out_1 = radon_riesz(tone_grid({1: c1}, sphere=sphere))
        out_2 = radon_riesz(tone_grid({2: c2}, sphere=sphere))
        assert np.max(np.abs(out_sum.samples - out_1.samples - out_2.samples)) < 1e-13

    def test_rejects_dc_content(self):
        sphere = sphere_quadrature(4, 8, antipodal=True)
        c = np.ones((sphere.n, 3), dtype=complex)
        grid = tone_grid({0: c, 1: c}, sphere=sphere)
        with pytest.raises(ValueError):
            radon_riesz(grid)

    def test_lundquist_ring_atoms_are_divided_by_frequency_squared(self):
        prof = lundquist_radon_profile(1.0, 1.3)
        out = radon_riesz(prof)
        expected = prof.amplitudes / prof.frequencies[:, None] ** 2
        assert np.array_equal(out.directions, prof.directions)
        assert np.array_equal(out.frequencies, prof.frequencies)
        assert np.max(np.abs(out.amplitudes - expected)) <= 1e-15 * np.max(np.abs(expected))

    def test_names_a_frequency_whose_kernel_overflows_before_dividing(self):
        ez = [0.0, 0.0, 1.0]
        tiny = AnalyticProfile([ez, ez, ez], [0.0, 1.0, -1e-200], [[0, 0, 0], [1, 0, 0], [1, 0, 0]],
                               np.ones(3), nu=1.0)  # omega = 0 is dropped, not named
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no division warning comes first
            with pytest.raises(ValueError, match=r"frequency -1e-200 .* 1/omega\^2 kernel"):
                radon_riesz(tiny)
        for omega in (1e-150, 2.0**-512 * (1 + 2.0**-52)):  # the smallest |omega| kept
            out = radon_riesz(AnalyticProfile([ez], [omega], [[1.0, 0.0, 0.0]], [1.0], nu=1.0))
            assert out.amplitudes[0, 0] == 1.0 / omega**2 < np.inf


class TestRBS:
    def test_trkalian_eigenrelation_exact(self):
        rng = np.random.default_rng(3)
        modes = []
        for _ in range(3):
            k = rng.normal(size=3)
            k /= np.linalg.norm(k)
            modes.append(HelicityMode(lam=1, nu=1.0, kappa0=k,
                                      amplitude=complex(rng.normal(), rng.normal())))
        prof = radon_mode_analytic(ModeField(modes=tuple(modes)))
        assert rbs_eigendefect(prof) < 1e-14

    def test_lundquist_ring_eigenrelation(self):
        prof = lundquist_radon_profile(1.0, 1.0)
        assert rbs_eigendefect(prof) < 1e-14

    def test_gauge_profile_maps_to_zero(self):
        k0 = np.array([0.0, 1.0, 0.0])
        gauge = radon_mode_analytic(
            ModeField(modes=(HelicityMode(lam=1, nu=1.0, kappa0=k0, amplitude=1.0),)))
        gauge = type(gauge).from_atoms((gauge_atom(k0, 1.0, 0.3 - 0.4j),
                                        gauge_atom(-k0, -1.0, 0.3 - 0.4j)), nu=1.0)
        out = rbs_apply(gauge)
        for a in out.atoms:
            assert np.max(np.abs(a.amplitude)) < 1e-15

    def test_atoms_match_the_written_out_formula(self):
        rng = np.random.default_rng(12)
        k0 = rng.normal(size=(5, 3))
        modes = tuple(HelicityMode(lam=1, nu=1.37, kappa0=k / np.linalg.norm(k),
                                   amplitude=complex(rng.normal(), rng.normal())) for k in k0)
        prof = radon_mode_analytic(ModeField(modes=modes))
        # the atom formula of RBS: amplitude -> (i / frequency) kappa x amplitude
        ref = (1j / prof.frequencies)[:, None] * np.cross(prof.directions, prof.amplitudes)
        out = rbs_apply(prof)
        assert np.max(np.abs(out.amplitudes - ref)) <= 1e-15 * np.max(np.abs(ref))

    @pytest.mark.parametrize("apply", [radon_riesz, rbs_apply])
    def test_zero_frequency_atom_is_dropped_or_rejected(self, apply):
        k0 = np.array([0.0, 0.6, 0.8])
        a = np.array([1.0, 0.8j, -0.6j])

        def profile(dc_amplitude):
            return AnalyticProfile([k0, -k0, k0], [1.2, -1.2, 0.0], [a, a, dc_amplitude],
                                   [1.0, 1.0, 1.0], nu=1.2)

        with pytest.raises(ValueError, match="DC content"):
            apply(profile([0.0, 1e-3, 0.0]))
        out = apply(profile(np.zeros(3)))
        two = apply(AnalyticProfile([k0, -k0], [1.2, -1.2], [a, a], [1.0, 1.0], nu=1.2))
        assert out.amplitudes[:2].tobytes() == two.amplitudes.tobytes()
        assert not np.any(out.amplitudes[2])

    def test_gamma_cross_is_left_inverse_on_grid(self):
        grid = transverse_tone_grid(seed=4)
        back = gamma_apply(rbs_apply(grid), "cross")
        assert np.max(np.abs(back.samples - grid.samples)) < 1e-9

    def test_left_inverse_check_transverse(self):
        assert rbs_left_inverse_check(transverse_tone_grid(seed=5)) < 1e-9

    def test_left_inverse_check_rejects_normal_content(self):
        sphere = sphere_quadrature(4, 8, antipodal=True)
        c = sphere.nodes.astype(complex)  # amplitude parallel to kappa
        grid = tone_grid({1: c}, sphere=sphere)
        with pytest.raises(ValueError):
            rbs_left_inverse_check(grid)

    def test_consistency_with_physical_space(self):
        # transform of the induced field equals RBS of the transform; the
        # probe has vanishing dipole moment so the induced field decays fast
        # enough for the periodic grid to represent its transform
        from trkalian.biotsavart import bs_integral

        def solenoidal(x):
            x = np.asarray(x, dtype=float)
            env = np.exp(-np.sum(x * x, axis=-1))
            out = np.empty(x.shape, dtype=complex)
            out[..., 0] = -2.0 * x[..., 1] * x[..., 2] * env
            out[..., 1] = 2.0 * x[..., 0] * x[..., 2] * env
            out[..., 2] = 0.0
            return out

        from trkalian.biotsavart import ball_quadrature

        f = SampledField(name="solenoidal", evaluator=solenoidal)
        sphere = sphere_quadrature(4, 8, antipodal=True)
        n_p = 32
        period = 20.0
        p = -10.0 + period * np.arange(n_p) / n_p
        plane = PlaneQuadrature(half_width=8.0)
        quad = ball_quadrature(6.0, n_radial=32, n_polar=12, n_azimuth=24)
        j = 5
        kappa = sphere.nodes[j]
        i = 18
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            grid = radon_forward_grid(f, p, sphere, plane)
            # numeric profiles carry quadrature-level DC noise
            rbs_grid = rbs_apply(grid, dc_tol=1e-5)

            def induced(pts):
                pts = np.atleast_2d(np.asarray(pts, dtype=float))
                return np.stack([bs_integral(f, q, quad) for q in pts])

            direct = radon_forward_numeric(induced, float(p[i]), kappa, plane)
        scale = np.max(np.abs(rbs_grid.samples))
        assert np.max(np.abs(rbs_grid.samples[i, j] - direct)) / scale < 2e-2
