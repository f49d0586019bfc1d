import warnings
from dataclasses import replace

import numpy as np
import pytest

from trkalian.cktransform import abc_omega_atoms, reconstruct_physical
from trkalian.core import PlaneQuadrature, plane_basis, sphere_quadrature
from trkalian.fields import (HelicityMode, ModeField, eval_mode_field,
                             gaussian_scalar, gaussian_test_field, lundquist)
from trkalian.moses import frame_antipodal_phase, moses_frame
from trkalian.radon import (AnalyticProfile, GridProfile, Hemisphere, RadonAtom,
                            TruncationWarning, adjoint_radon,
                            antipodal_profile, canonical_hemisphere,
                            cap_swapped_hemisphere, gamma_apply,
                            gamma_cross_eigendefect, grid_from_csv,
                            grid_to_csv, hemisphere_inverse,
                            intertwining_check, inverse_radon,
                            lundquist_radon_profile, profile_from_json,
                            profile_to_json, radon_forward_grid,
                            radon_forward_numeric, radon_mode_analytic,
                            radon_of_hemisphere_inverse, scalar_wave_profile,
                            spherical_curl_transform, transform_radon_linear)
from trkalian.rbs import radon_riesz

EZ = np.array([0.0, 0.0, 1.0])
PLANE = PlaneQuadrature(half_width=8.0, n_per_axis=48)


def random_direction(seed):
    rng = np.random.default_rng(seed)
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def single_mode(kappa0=EZ, lam=1, nu=1.0, mu=1, amplitude=None, g=1.0):
    if amplitude is None:
        amplitude = (2 * np.pi) ** 1.5 * g
    return ModeField(modes=(HelicityMode(lam=lam, nu=nu, kappa0=kappa0,
                                         amplitude=amplitude, mu=mu, g=g),))


def random_mode_field(n, seed, nu=1.0, mu=1, g=1.0):
    rng = np.random.default_rng(seed)
    lam = mu if nu > 0 else -mu
    modes = []
    for _ in range(n):
        k = rng.normal(size=3)
        k /= np.linalg.norm(k)
        modes.append(HelicityMode(lam=lam, nu=nu, kappa0=k,
                                  amplitude=complex(rng.normal(), rng.normal()),
                                  mu=mu, g=g))
    return ModeField(modes=tuple(modes))


def plane_values(field, p, kappa, quad=PLANE):
    """Field values (nodes, ...) and tensor weights (nodes,) on one plane."""
    x1, w1 = quad.nodes_1d()
    e1, e2 = plane_basis(kappa)
    pts = p * kappa + x1[:, None, None] * e1 + x1[None, :, None] * e2
    return field(pts.reshape(-1, 3)), (w1[:, None] * w1[None, :]).reshape(-1)


class TestForwardNumeric:
    def test_gaussian_scalar_closed_form(self):
        g = gaussian_scalar()
        for p in (0.0, 0.5, -1.2):
            val = radon_forward_numeric(g, p, EZ, PLANE)
            assert abs(val - np.pi * np.exp(-p * p)) / (np.pi * np.exp(-p * p)) < 1e-8

    def test_radial_field_is_direction_independent(self):
        g = gaussian_scalar()
        a = radon_forward_numeric(g, 0.7, EZ, PLANE)
        b = radon_forward_numeric(g, 0.7, random_direction(5), PLANE)
        assert abs(a - b) < 1e-10

    def test_parity(self):
        f = gaussian_test_field((0.3, -0.2, 0.1), 1.0, (1.0, 0.5j, -0.25))
        k = random_direction(6)
        a = radon_forward_numeric(f, 0.4, k, PLANE)
        b = radon_forward_numeric(f, -0.4, -k, PLANE)
        assert np.max(np.abs(a - b)) < 1e-10

    def test_truncation_warning(self):
        f = gaussian_test_field((0.0, 0.0, 0.0), 2.0, (1.0, 0.0, 0.0))
        small = PlaneQuadrature(half_width=5.0, n_per_axis=32)
        with pytest.warns(TruncationWarning):
            radon_forward_numeric(f, 0.0, EZ, small)

    @pytest.mark.parametrize("field", [
        gaussian_test_field((0.3, -0.2, 0.1), 1.0, (1.0, 0.5j, -0.25)),
        gaussian_scalar((0.0, 0.2, 0.1), 1.0),
    ], ids=["vector", "scalar"])
    def test_batch_equals_single_planes_bitwise(self, field):
        # 5 x 4 planes of 48^2 points span three field calls, the last partial
        p = np.array([-1.5, -0.2, 0.0, 0.7, 2.0])
        kappa = np.stack([EZ, -EZ] + [random_direction(s) for s in (21, 22)])
        batch = radon_forward_numeric(field, p[:, None], kappa, PLANE)
        single = radon_forward_numeric(field, 0.7, kappa[2], PLANE)
        assert batch.shape == (5, 4) + np.shape(single)
        for i, j in np.ndindex(5, 4):
            one = radon_forward_numeric(field, float(p[i]), kappa[j], PLANE)
            assert np.asarray(one).tobytes() == batch[i, j].tobytes()

    def test_grid_warns_once_with_worst_ratio(self):
        # 448 of the 512 planes are truncated; one warning counts them all
        sphere = sphere_quadrature(4, 8, antipodal=True)
        p = -8.0 + np.arange(16.0)
        plane = PlaneQuadrature(half_width=8.0, n_per_axis=40)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            radon_forward_grid(gaussian_test_field((7.0, 0.0, 0.0), 1.0, (1.0, 0.0, 0.0)),
                               p, sphere, plane)
            assert len(caught) == 1 and caught[0].category is TruncationWarning
            assert "on 448 of 512 planes (worst ratio 3.80e-01)" in str(caught[0].message)
            radon_forward_grid(gaussian_test_field((0.0, 0.0, 0.0), 1.0, (1.0, 0.0, 0.0)),
                               p, sphere, plane)
            assert len(caught) == 1

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_field(self, bad):
        f = gaussian_test_field((0.0, 0.0, 0.0), 1.0, (1.0, 0.0, 0.0))

        def spoiled(x):
            out = f(x)
            out[np.linalg.norm(x, axis=-1) < 1.0, 1] = bad
            return out

        with pytest.raises(ValueError, match="not finite"):
            radon_forward_numeric(spoiled, np.array([3.0, 0.0]), EZ, PLANE)

    @pytest.mark.parametrize("field", [
        gaussian_test_field((0.3, -0.2, 0.1), 1.0, (1.0, 0.5j, -0.25)),
        gaussian_scalar((0.0, 0.2, 0.1), 1.0),
    ], ids=["vector", "scalar"])
    def test_matches_pairwise_sum_reference(self, field):
        # the weighted sum is a BLAS contraction; only its summation order
        # differs from numpy's pairwise sum
        for p, kappa in ((0.7, EZ), (-1.2, random_direction(24))):
            vals, w = plane_values(field, p, kappa)
            ref = np.sum(w.reshape((-1,) + (1,) * (vals.ndim - 1)) * vals, axis=0)
            np.testing.assert_allclose(radon_forward_numeric(field, p, kappa, PLANE), ref,
                                       rtol=1e-14, atol=0.0)

    def test_rejects_nan_in_one_imaginary_part(self):
        f = gaussian_test_field((0.0, 0.0, 0.0), 1.0, (1.0, 0.5j, 0.0))

        def spoiled(x):
            out = f(x)
            out.imag[np.linalg.norm(x, axis=-1) < 1.0, 2] = np.nan
            return out

        with pytest.raises(ValueError, match="not finite"):
            radon_forward_numeric(spoiled, np.array([3.0, 0.0]), EZ, PLANE)

    def test_rejects_empty_batch_before_calling_the_field(self):
        def never(x):
            raise AssertionError("field called on an empty batch")

        for p, kappa in ((np.zeros(0), EZ), (0.5, np.zeros((0, 3))),
                         (np.zeros((3, 1)), np.zeros((0, 3)))):
            with pytest.raises(ValueError, match="empty plane batch"):
                radon_forward_numeric(never, p, kappa, PLANE)

    def test_real_field_integrates_to_real_part_of_complex_field(self):
        g = gaussian_scalar((0.3, -0.2, 0.1), 1.0)
        p = np.array([-1.0, 0.0, 0.4])
        kappa = np.stack([EZ, random_direction(23)])
        real = radon_forward_numeric(g, p[:, None], kappa, PLANE)
        cplx = radon_forward_numeric(lambda x: g(x).astype(complex), p[:, None], kappa, PLANE)
        assert real.dtype == np.float64 and cplx.dtype == np.complex128
        assert real.shape == cplx.shape == (3, 2)
        # equal up to the order in which BLAS sums one or two columns
        np.testing.assert_allclose(real, cplx.real, rtol=1e-14, atol=0.0)
        assert np.all(cplx.imag == 0.0)

    def test_warning_quotes_largest_real_or_imaginary_ratio(self):
        # peak from a real centred Gaussian, edge from an imaginary-plus-real
        # bump at the boundary: the two components have different envelopes
        def field(x):
            r0 = np.sum(x * x, axis=-1)
            r1 = np.sum((x - [8.0, 0.0, 0.0]) ** 2, axis=-1)
            return np.stack([2.0 * np.exp(-r0), (0.5 + 0.25j) * np.exp(-r1)], axis=-1)

        n = PLANE.n_per_axis
        vals = plane_values(field, 0.0, EZ)[0]
        mag = np.maximum(np.abs(vals.real), np.abs(vals.imag)).max(axis=-1).reshape(n, n)
        edge = max(mag[[0, -1]].max(), mag[:, [0, -1]].max())
        modulus = np.abs(vals).max(axis=-1).reshape(n, n)
        modulus_ratio = max(modulus[[0, -1]].max(), modulus[:, [0, -1]].max()) / modulus.max()
        assert f"{edge / mag.max():.2e}" != f"{modulus_ratio:.2e}"
        with pytest.warns(TruncationWarning) as caught:
            radon_forward_numeric(field, 0.0, EZ, PLANE)
        assert len(caught) == 1
        assert f"on 1 of 1 planes (worst ratio {edge / mag.max():.2e})" in str(caught[0].message)


class TestForwardGrid:
    # 16 antipodal pairs x 16 p; every p but -8 has its negation on the grid
    SPHERE = sphere_quadrature(4, 8, antipodal=True)
    P = -8.0 + np.arange(16.0)
    QUAD = PlaneQuadrature(half_width=8.0, n_per_axis=40)
    FIELD = gaussian_test_field((0.3, -0.2, 0.1), 1.0, (1.0, 0.5j, -0.25))

    def direct(self, sphere=SPHERE, p=P):
        return radon_forward_numeric(self.FIELD, p[:, None], sphere.nodes, self.QUAD)

    def test_shared_grid_matches_direct_planes(self):
        grid = radon_forward_grid(self.FIELD, self.P, self.SPHERE, self.QUAD).samples
        direct = self.direct()
        assert np.max(np.abs(grid - direct)) <= 1e-15 * np.max(np.abs(direct))
        # the planes that are integrated: all p on the first node of each
        # pair, and p = -8 (no negation on the grid) on its partner
        anti = self.SPHERE.antipode_index
        lead = np.flatnonzero(anti > np.arange(self.SPHERE.n))
        assert grid[:, lead].tobytes() == direct[:, lead].tobytes()
        assert grid[0, anti[lead]].tobytes() == direct[0, anti[lead]].tobytes()
        # the rest are filled by parity, exactly
        assert np.array_equal(grid[1:, anti[lead]], grid[:0:-1, lead])

    def test_unshared_grids_equal_the_direct_call_bitwise(self):
        plain = sphere_quadrature(4, 8)
        grid = radon_forward_grid(self.FIELD, self.P, plain, self.QUAD)
        assert grid.samples.tobytes() == self.direct(plain).tobytes()
        p = -7.9 + np.arange(16.0)  # no p has its negation on the grid
        grid = radon_forward_grid(self.FIELD, p, self.SPHERE, self.QUAD)
        assert grid.samples.tobytes() == self.direct(p=p).tobytes()

    def test_each_plane_is_evaluated_once(self):
        points = []

        def counted(x):
            points.append(len(x))
            return self.FIELD(x)

        radon_forward_grid(counted, self.P, self.SPHERE, self.QUAD)
        # 16 x 16 planes on the first nodes of the pairs, 16 at p = -8 on
        # their partners, instead of 16 x 32
        assert sum(points) == 272 * self.QUAD.n_per_axis**2

    def test_rejects_bad_grid_before_calling_the_field(self):
        def never(x):
            raise AssertionError("field called on a bad p-grid")

        for p in (np.arange(12) * 0.1, np.arange(16.0)[::-1], np.array([0.0, 1.0, 3.0, 4.0])):
            with pytest.raises(ValueError, match="p-grid"):
                radon_forward_grid(never, p, self.SPHERE, self.QUAD)

    def test_warning_carries_counts(self):
        edge_field = gaussian_test_field((7.0, 0.0, 0.0), 1.0, (1.0, 0.0, 0.0))
        with pytest.warns(TruncationWarning) as grid_caught:
            radon_forward_grid(edge_field, self.P, self.SPHERE, self.QUAD)
        with pytest.warns(TruncationWarning) as direct_caught:
            radon_forward_numeric(edge_field, self.P[:, None], self.SPHERE.nodes, self.QUAD)
        for caught in (grid_caught, direct_caught):
            assert len(caught) == 1
            w = caught[0].message
            assert (w.n_truncated, w.n_planes) == (448, 512)
            assert f"{w.worst_ratio:.2e}" == "3.80e-01"
        assert grid_caught[0].message.worst_ratio == direct_caught[0].message.worst_ratio


class TestModeProfile:
    def test_single_mode_atom_coefficients(self):
        prof = radon_mode_analytic(single_mode())
        assert len(prof.atoms) == 2
        coeff = (2 * np.pi) ** 2
        q1 = moses_frame(EZ, 1)
        by_freq = {a.frequency: a for a in prof.atoms}
        plus, minus = by_freq[1.0], by_freq[-1.0]
        assert np.allclose(plus.direction, EZ)
        assert np.allclose(minus.direction, -EZ)
        assert np.max(np.abs(plus.amplitude - coeff * q1)) < 1e-12
        assert np.max(np.abs(minus.amplitude - coeff * q1)) < 1e-12

    def test_anti_self_dual_atoms_swap_antipodally(self):
        # the dual partner of the mode at kappa0 is the opposite-helicity
        # mode at -kappa0; its positive-frequency atom lands at -kappa0
        k0 = random_direction(7)
        sd = radon_mode_analytic(single_mode(k0, lam=1, mu=1))
        asd = radon_mode_analytic(single_mode(-k0, lam=-1, mu=-1))
        sd_plus = [a for a in sd.atoms if a.frequency > 0][0]
        asd_plus = [a for a in asd.atoms if a.frequency > 0][0]
        assert np.allclose(sd_plus.direction, k0)
        assert np.allclose(asd_plus.direction, -k0)

    def test_parity_atomwise(self):
        prof = radon_mode_analytic(random_mode_field(4, seed=8))
        assert prof.parity_defect() < 1e-15

    def test_transversality(self):
        prof = radon_mode_analytic(random_mode_field(4, seed=9))
        assert prof.transverse_defect() < 1e-12


class TestGamma:
    def test_trkalian_eigenrelation_exact(self):
        for mu in (1, -1):
            prof = radon_mode_analytic(random_mode_field(3, seed=10, mu=mu))
            assert gamma_cross_eigendefect(prof) < 1e-14

    def test_gamma_cross_of_gamma_grad_vanishes(self):
        sphere = sphere_quadrature(4, 8)
        n_p = 32
        p = 2 * np.pi * np.arange(n_p) / n_p
        rng = np.random.default_rng(11)
        coeffs = rng.normal(size=(3, sphere.n)) + 1j * rng.normal(size=(3, sphere.n))
        samples = sum(coeffs[m][None, :] * np.exp(1j * (m + 1) * p)[:, None] for m in range(3))
        scalar = GridProfile(p=p, sphere=sphere, samples=samples)
        grad = gamma_apply(scalar, "grad")
        curl_grad = gamma_apply(grad, "cross")
        assert np.max(np.abs(curl_grad.samples)) < 1e-10

    def test_gamma_dot_of_gamma_cross_vanishes(self):
        sphere = sphere_quadrature(4, 8)
        n_p = 32
        p = 2 * np.pi * np.arange(n_p) / n_p
        rng = np.random.default_rng(12)
        samples = (rng.normal(size=(n_p, sphere.n, 3))
                   + 1j * rng.normal(size=(n_p, sphere.n, 3)))
        # keep it periodic-smooth: filter to a few harmonics
        coeffs = np.fft.fft(samples, axis=0)
        coeffs[6:-5] = 0.0
        vector = GridProfile(p=p, sphere=sphere, samples=np.fft.ifft(coeffs, axis=0))
        div_curl = gamma_apply(gamma_apply(vector, "cross"), "dot")
        assert np.max(np.abs(div_curl.samples)) < 1e-10

    def test_grid_rejects_wrong_shapes(self):
        sphere = sphere_quadrature(4, 8)
        p = np.arange(32) * 0.1
        scalar = GridProfile(p=p, sphere=sphere, samples=np.zeros((32, sphere.n)))
        with pytest.raises(ValueError):
            gamma_apply(scalar, "cross")
        with pytest.raises(ValueError):
            gamma_apply(scalar, "dot")


class TestIntertwining:
    def test_curl(self):
        f = gaussian_test_field((0.1, 0.0, -0.2), 1.0, (0.8, -0.3, 0.5))
        res = intertwining_check(f, random_direction(13), 0.3, "curl", PLANE)
        assert res < 1e-4

    def test_divergence_free_field_gives_zero_both_sides(self):
        def solenoidal(x):
            x = np.asarray(x, dtype=float)
            env = np.exp(-np.sum(x * x, axis=-1))
            out = np.empty(x.shape, dtype=complex)
            out[..., 0] = -2 * x[..., 1] * env
            out[..., 1] = 2 * x[..., 0] * env
            out[..., 2] = 0.0
            return out

        res = intertwining_check(solenoidal, random_direction(14), 0.2, "div", PLANE)
        assert res < 1e-6

    def test_gradient(self):
        g = gaussian_scalar((0.0, 0.2, 0.1), 1.0)
        res = intertwining_check(g, random_direction(15), 0.1, "grad", PLANE)
        assert res < 1e-4


class TestAdjoint:
    def test_constant_gives_total_solid_angle(self):
        sphere = sphere_quadrature(8, 16)
        c = 2.5 - 1.0j
        val = adjoint_radon(lambda p, k: c, np.array([0.3, 0.1, -0.2]), sphere)
        assert abs(val - 4 * np.pi * c) < 1e-10

    def test_trkalian_eigenrelation(self):
        mf = random_mode_field(3, seed=16)
        prof = radon_mode_analytic(mf)
        rng = np.random.default_rng(17)
        for _ in range(5):
            x = rng.uniform(-2, 2, size=3)
            lhs = adjoint_radon(prof, x)
            rhs = 8 * np.pi**2 * eval_mode_field(mf, x)
            assert np.linalg.norm(lhs - rhs) / np.linalg.norm(rhs) < 1e-10

    def test_gaussian_against_riesz_potential(self):
        from trkalian.biotsavart import ball_quadrature, riesz_potential
        f = gaussian_test_field((0.0, 0.0, 0.0), 1.0, (1.0, 0.0, 0.5))
        sphere = sphere_quadrature(8, 16, antipodal=True)
        x = np.zeros(3)
        lhs = adjoint_radon(lambda p, k: radon_forward_numeric(f, p, k, PLANE), x, sphere)
        rhs = 8 * np.pi**2 * riesz_potential(f, x, ball_quadrature(9.0))
        assert np.linalg.norm(lhs - rhs) / np.linalg.norm(rhs) < 2e-2


class TestInverse:
    def test_single_mode(self):
        k0 = random_direction(18)
        mf = single_mode(k0)
        prof = radon_mode_analytic(mf)
        x = np.array([0.4, -0.2, 0.9])
        rec = inverse_radon(prof, x)
        expected = np.exp(1j * (k0 @ x)) * moses_frame(k0, 1)
        assert np.max(np.abs(rec - expected)) < 1e-10

    def test_multimode_roundtrip(self):
        mf = random_mode_field(5, seed=19)
        prof = radon_mode_analytic(mf)
        rng = np.random.default_rng(20)
        for _ in range(20):
            x = rng.uniform(-2, 2, size=3)
            rec = inverse_radon(prof, x)
            ref = eval_mode_field(mf, x)
            assert np.linalg.norm(rec - ref) / np.linalg.norm(ref) < 1e-9

    def test_lundquist_ring_reconstruction(self):
        prof = lundquist_radon_profile(1.0, 1.0, n_ring=64)
        field = lundquist(1.0, 1.0)
        rng = np.random.default_rng(21)
        for _ in range(5):
            x = rng.uniform(-2, 2, size=3)
            rec = inverse_radon(prof, x)
            ref = field(x)
            assert np.linalg.norm(rec - ref) / np.linalg.norm(ref) < 1e-8

    def test_grid_profile_inverse(self):
        # grid realization of a two-mode transform reconstructs the field;
        # the mode directions must be quadrature nodes for exact placement
        sphere = sphere_quadrature(6, 8, antipodal=True)
        mf = ModeField(modes=(
            HelicityMode(lam=1, nu=1.0, kappa0=sphere.nodes[3], amplitude=1.0),
            HelicityMode(lam=1, nu=1.0, kappa0=sphere.nodes[17], amplitude=0.5j),
        ))
        prof = radon_mode_analytic(mf)
        n_p = 32
        x = np.array([0.3, -0.6, 0.2])
        ref = eval_mode_field(mf, x)

        def on_grid(profile, p):
            samples = np.zeros((n_p, sphere.n, 3), dtype=complex)
            for atom in profile.atoms:
                j = int(np.argmin(np.linalg.norm(sphere.nodes - atom.direction, axis=1)))
                assert np.linalg.norm(sphere.nodes[j] - atom.direction) < 1e-12
                samples[:, j] += (atom.weight / sphere.weights[j]
                                  * np.exp(1j * atom.frequency * p)[:, None] * atom.amplitude)
            return GridProfile(p=p, sphere=sphere, samples=samples)

        # the atom operators: Gamma x, and the 1/k^2 kernel as 1/omega^2
        riesz = replace(prof, amplitudes=prof.amplitudes / prof.frequencies[:, None] ** 2)
        # the same profile on a grid starting at 0 and on one starting at -pi
        for p0 in (0.0, -np.pi):
            p = p0 + 2 * np.pi * np.arange(n_p) / n_p
            grid = on_grid(prof, p)
            rec = inverse_radon(grid, x)
            assert np.linalg.norm(rec - ref) / np.linalg.norm(ref) < 1e-12, p0
            scale = np.max(np.abs(grid.samples))
            expected = on_grid(gamma_apply(prof, "cross"), p).samples
            assert np.max(np.abs(gamma_apply(grid, "cross").samples - expected)) < 1e-13 * scale
            expected = on_grid(riesz, p).samples
            assert np.max(np.abs(radon_riesz(grid).samples - expected)) < 1e-13 * scale

    def test_grid_inverse_takes_a_batch_of_points(self):
        sphere = sphere_quadrature(4, 8, antipodal=True)
        rng = np.random.default_rng(22)
        p = -8.0 + 16.0 * np.arange(32) / 32
        samples = rng.normal(size=(32, sphere.n, 3)) + 1j * rng.normal(size=(32, sphere.n, 3))
        grid = GridProfile(p=p, sphere=sphere, samples=samples)
        x = rng.uniform(-2.0, 2.0, size=(8, 3))
        batch = inverse_radon(grid, x)
        single = np.array([inverse_radon(grid, xi) for xi in x])
        assert batch.shape == (8, 3)
        assert np.max(np.abs(batch - single)) < 1e-14 * np.max(np.abs(single))
        # the same points as a (2, 4, 3) batch
        assert np.array_equal(inverse_radon(grid, x.reshape(2, 4, 3)), batch.reshape(2, 4, 3))


def loop_atom_sum(profile, x, scale):
    """Reference: the atom sum one row at a time, skipping zero scales."""
    out = 0.0
    for j in np.flatnonzero(scale):
        phase = np.exp(1j * profile.frequencies[j] * (x @ profile.directions[j]))
        if profile.is_vector:
            phase = phase[..., None]
        out = out + scale[j] * phase * profile.amplitudes[j]
    return out


def random_scalar_profile(n, seed):
    rng = np.random.default_rng(seed)
    d = rng.normal(size=(n, 3))
    d /= np.linalg.norm(d, axis=-1)[:, None]
    return AnalyticProfile(directions=d, frequencies=rng.uniform(-2.0, 2.0, n),
                           amplitudes=rng.normal(size=n) + 1j * rng.normal(size=n),
                           weights=rng.uniform(0.5, 1.5, n), nu=1.0)


ATOM_PROFILES = {
    "modes": lambda: radon_mode_analytic(random_mode_field(6, seed=40)),
    "south-pole-mode": lambda: radon_mode_analytic(single_mode(-EZ, amplitude=0.3 - 0.8j)),
    "ring": lambda: lundquist_radon_profile(1.3, 0.8, n_ring=32),
    "scalar": lambda: random_scalar_profile(24, seed=41),
}


class TestAtomSums:
    """The inverse, the adjoint and the hemisphere inverse of atom profiles
    against the atom-by-atom sum."""

    X = np.random.default_rng(42).uniform(-2.0, 2.0, size=(6, 3))

    @pytest.mark.parametrize("name", ATOM_PROFILES)
    def test_match_loop_over_atoms(self, name):
        prof = ATOM_PROFILES[name]()
        w, f = prof.weights, prof.frequencies
        inside = canonical_hemisphere().members(prof.directions)
        cases = [
            (inverse_radon(prof, self.X), w * f**2 / (8.0 * np.pi**2)),
            (adjoint_radon(prof, self.X), w),
            (hemisphere_inverse(prof, canonical_hemisphere(), self.X),
             np.where(inside, w * f**2 / (4.0 * np.pi**2), 0.0)),
        ]
        for out, scale in cases:
            ref = loop_atom_sum(prof, self.X, scale)
            assert out.shape == ref.shape == (6,) + prof.amplitudes.shape[1:]
            assert np.max(np.abs(out - ref)) <= 1e-13 * np.max(np.abs(ref))

    @pytest.mark.parametrize("entry, bad", [
        (lambda x: inverse_radon(lundquist_radon_profile(1.0, 1.0), x), np.nan),
        (lambda x: hemisphere_inverse(lundquist_radon_profile(1.0, 1.0),
                                      canonical_hemisphere(), x), np.nan),
        (lambda x: eval_mode_field(single_mode(), x), np.nan),
        (lambda x: adjoint_radon(lundquist_radon_profile(1.0, 1.0), x), np.inf),
        (lambda x: reconstruct_physical(*abc_omega_atoms(1.0, 0.5, 0.3, 1, 1.0), 1, 1.0, x),
         np.inf),
    ], ids=["inverse", "hemisphere", "modes", "adjoint", "ck"])
    def test_rejects_non_finite_point(self, entry, bad):
        with pytest.raises(ValueError, match="points must be finite"):
            entry(np.array([[0.1, 0.2, 0.3], [bad, 0.0, 0.0]]))

    def test_empty_sum_keeps_its_shape(self):
        x = np.zeros((5, 3))
        nowhere = Hemisphere(indicator=lambda k: np.zeros(k.shape[:-1], dtype=bool))
        out = hemisphere_inverse(lundquist_radon_profile(1.0, 1.0, n_ring=8), nowhere, x)
        assert isinstance(out, np.ndarray) and out.shape == (5, 3) and not np.any(out)
        # tones of frequency 0 carry no inverse
        still = AnalyticProfile(directions=np.stack([EZ, -EZ]), frequencies=np.zeros(2),
                                amplitudes=np.ones(2), weights=np.ones(2), nu=1.0)
        out = inverse_radon(still, x)
        assert isinstance(out, np.ndarray) and out.shape == (5,) and not np.any(out)


def keeps_one_of_each_pair(hemi) -> bool:
    """Whether ``hemi`` holds exactly one node of each antipodal pair."""
    quad = sphere_quadrature(6, 8, antipodal=True)
    inside = hemi.members(quad.nodes)
    return bool(np.all(inside != inside[quad.antipode_index]))


class TestHemisphere:
    def test_canonical_hemisphere_validates(self):
        assert keeps_one_of_each_pair(canonical_hemisphere())

    def test_disconnected_hemisphere_validates(self):
        assert keeps_one_of_each_pair(cap_swapped_hemisphere(np.array([0.0, 0.0, 1.0]), 0.7))

    def test_non_canonical_indicator_rejected(self):
        assert not keeps_one_of_each_pair(Hemisphere(indicator=lambda k: np.ones(len(k), bool)))

    def test_mode_reconstruction_on_both_hemispheres(self):
        k0 = random_direction(22)
        mf = single_mode(k0)
        prof = radon_mode_analytic(mf)
        hemi = canonical_hemisphere()
        x = np.array([0.7, 0.1, -0.4])
        full = inverse_radon(prof, x)
        on_h = hemisphere_inverse(prof, hemi, x)
        on_hp = hemisphere_inverse(prof, hemi.complement(), x)
        assert np.max(np.abs(on_h - on_hp)) < 1e-15
        assert np.max(np.abs(on_h - full)) < 1e-15
        expected = np.exp(1j * (k0 @ x)) * moses_frame(k0, 1)
        assert np.max(np.abs(on_h - expected)) < 1e-10

    def test_disconnected_hemisphere_gives_same_reconstruction(self):
        mf = random_mode_field(3, seed=23)
        prof = radon_mode_analytic(mf)
        hemi = cap_swapped_hemisphere(random_direction(24), 0.8)
        x = np.array([-0.3, 0.5, 0.2])
        assert np.max(np.abs(hemisphere_inverse(prof, hemi, x)
                             - inverse_radon(prof, x))) < 1e-12

    def test_left_inverse_failure_witness(self):
        # a single unpaired atom is not a transform of anything; the
        # round trip plants its parity image on the complementary side
        k0 = random_direction(25)
        hemi = canonical_hemisphere()
        if not hemi.members(k0[None])[0]:
            k0 = -k0
        amp = np.cross(k0, [0.0, 0.7, 0.2]) + 0j
        unpaired = AnalyticProfile.from_atoms((RadonAtom(k0, 1.3, amp),), nu=1.3)
        out = radon_of_hemisphere_inverse(unpaired, hemi)
        assert len(out.atoms) == 2
        kept, image = out.atoms
        assert np.allclose(kept.direction, k0)
        assert kept.frequency == 1.3
        # on H' the output is V(-p, -kappa): tone e^{-i omega p}, same amplitude
        assert np.allclose(image.direction, -k0)
        assert image.frequency == -1.3
        assert np.max(np.abs(image.amplitude - amp)) < 1e-15

    def test_round_trip_reproduces_genuine_transforms(self):
        prof = radon_mode_analytic(random_mode_field(2, seed=26))
        hemi = canonical_hemisphere()
        out = radon_of_hemisphere_inverse(prof, hemi)
        # same atom set (possibly reordered)
        assert len(out.atoms) == len(prof.atoms)
        for a in prof.atoms:
            match = [b for b in out.atoms
                     if np.linalg.norm(b.direction - a.direction) < 1e-12
                     and abs(b.frequency - a.frequency) < 1e-12]
            assert len(match) == 1
            assert np.max(np.abs(match[0].amplitude - a.amplitude)) < 1e-15


class TestLinearTransform:
    def test_identity(self):
        prof = radon_mode_analytic(random_mode_field(2, seed=27))
        out = transform_radon_linear(prof, np.eye(3))
        for a, b in zip(prof.atoms, out.atoms):
            assert np.allclose(a.direction, b.direction)
            assert np.allclose(a.amplitude, b.amplitude)

    def test_inversion_matches_anti_self_dual_catalog(self):
        # transform of F(-x) for a self-dual mode == transform of the
        # anti-self-dual catalog mode with the antipodally recoded amplitude
        k0 = random_direction(28)
        s = 1.0 + 0.0j
        sd = radon_mode_analytic(single_mode(k0, lam=1, mu=1, amplitude=s))
        inverted = transform_radon_linear(sd, -np.eye(3))

        # Q_1(k0) = -phase * Q_2(-k0) recodes the amplitude across the map
        phase = frame_antipodal_phase(-k0, 1)
        s_prime = -phase * s
        asd = radon_mode_analytic(single_mode(-k0, lam=-1, mu=-1, amplitude=s_prime))

        for a in inverted.atoms:
            match = [b for b in asd.atoms
                     if np.linalg.norm(b.direction - a.direction) < 1e-12
                     and abs(b.frequency - a.frequency) < 1e-12]
            assert len(match) == 1
            assert np.max(np.abs(match[0].amplitude - a.amplitude)) < 1e-12

    def test_antipodal_map_flips_eigenvalue(self):
        prof = radon_mode_analytic(random_mode_field(3, seed=29))
        mapped = antipodal_profile(prof)
        curl = gamma_apply(mapped, "cross")
        for a, b in zip(mapped.atoms, curl.atoms):
            assert np.max(np.abs(b.amplitude + prof.nu * a.amplitude)) < 1e-12

    def test_rejects_non_orthogonal(self):
        prof = radon_mode_analytic(random_mode_field(1, seed=30))
        with pytest.raises(ValueError):
            transform_radon_linear(prof, 2.0 * np.eye(3))


class TestLundquistProfile:
    def test_eigenrelation_atomwise(self):
        prof = lundquist_radon_profile(1.0, 1.0)
        assert gamma_cross_eigendefect(prof) < 1e-14

    def test_ring_amplitudes_are_transverse(self):
        prof = lundquist_radon_profile(2.0, 1.5, n_ring=32)
        assert prof.transverse_defect() < 1e-15

    def test_probe_density_matches_closed_form(self):
        f0, g = 1.0, 1.0
        prof = lundquist_radon_profile(f0, 1.0, n_ring=16)
        for j in (0, 3, 11):
            psi = 2 * np.pi * j / 16
            k = np.array([np.cos(psi), np.sin(psi), 0.0])
            s1, _ = spherical_curl_transform(prof, k)
            target = -np.sqrt(2) * np.sqrt(2 * np.pi) * g * f0 * np.exp(-1j * psi)
            assert abs(s1 - target) < 1e-12

    def test_parity(self):
        prof = lundquist_radon_profile(1.0, 1.0, n_ring=16)
        assert prof.parity_defect() < 1e-14


class TestSphericalCurlTransform:
    def test_recovers_mode_amplitude(self):
        amp = 1.3 - 0.4j
        k0 = random_direction(31)
        prof = radon_mode_analytic(single_mode(k0, amplitude=amp))
        s1, s2 = spherical_curl_transform(prof, k0)
        assert abs(s1 - amp) < 1e-12
        assert abs(s2) < 1e-12  # helicity exclusivity

    def test_p_independence(self):
        k0 = random_direction(32)
        prof = radon_mode_analytic(single_mode(k0, amplitude=0.7 + 0.1j))
        a = spherical_curl_transform(prof, k0, p=0.0)
        b = spherical_curl_transform(prof, k0, p=0.7)
        assert abs(a[0] - b[0]) < 1e-12

    def test_zero_away_from_support(self):
        prof = radon_mode_analytic(single_mode(EZ))
        s1, s2 = spherical_curl_transform(prof, np.array([1.0, 0.0, 0.0]))
        assert s1 == 0 and s2 == 0

    def test_anti_self_dual_probe(self):
        amp = 0.9 + 0.2j
        k0 = random_direction(33)
        prof = radon_mode_analytic(single_mode(k0, lam=-1, mu=-1, amplitude=amp))
        s1, s2 = spherical_curl_transform(prof, k0)
        assert abs(s2 - amp) < 1e-12
        a = spherical_curl_transform(prof, k0, p=0.4)
        assert abs(a[1] - s2) < 1e-12


class TestGaugeNormality:
    def test_gradient_profile_parallel_to_direction(self):
        u = scalar_wave_profile(random_direction(34), 1.3, 0.8 + 0.2j)
        grad = gamma_apply(u, "grad")
        for a in grad.atoms:
            tangential = a.amplitude - (a.direction @ a.amplitude) * a.direction
            assert np.max(np.abs(tangential)) < 1e-10


class TestSerialization:
    def test_profile_json_roundtrip(self):
        prof = radon_mode_analytic(random_mode_field(3, seed=35))
        text = profile_to_json(prof)
        back = profile_from_json(text)
        assert back.nu == prof.nu and back.mu == prof.mu and back.g == prof.g
        for a, b in zip(prof.atoms, back.atoms):
            assert np.allclose(a.direction, b.direction)
            assert a.frequency == b.frequency
            assert np.allclose(a.amplitude, b.amplitude)

    def test_profile_json_golden(self):
        prof = AnalyticProfile(directions=[[0.6, 0.0, 0.8], [-0.6, -0.0, -0.8]],
                               frequencies=[1.5, -1.5],
                               amplitudes=[[0.1 + 1e-20j, -0.0 - 2.5j, 1 / 3],
                                           [1e300, 0.0, -7.0j]],
                               weights=[1.0, 0.5], nu=1.5, mu=-1, g=0.25)
        assert profile_to_json(prof) == GOLDEN_JSON

    def test_grid_csv_roundtrip(self):
        sphere = sphere_quadrature(4, 8, antipodal=True)
        f = gaussian_test_field((0.0, 0.0, 0.0), 1.0, (1.0, 0.5j, 0.0))
        p = -4.0 + 8.0 * np.arange(16) / 16
        small = PlaneQuadrature(half_width=8.0, n_per_axis=24)
        grid = radon_forward_grid(f, p, sphere, small)
        text = grid_to_csv(grid)
        back = grid_from_csv(text, sphere)
        assert np.allclose(back.p, grid.p)
        assert np.max(np.abs(back.samples - grid.samples)) < 1e-16
        # a different sphere with the same node count, and a truncated file
        other = sphere_quadrature(2, 16, antipodal=True)
        assert other.n == sphere.n
        with pytest.raises(ValueError, match="directions"):
            grid_from_csv(text, other)
        with pytest.raises(ValueError, match="rows"):
            grid_from_csv(text.rsplit("\n", 2)[0] + "\n", sphere)

    @pytest.mark.filterwarnings("error")
    def test_grid_csv_rejects_header_only_and_ragged_text(self):
        sphere = sphere_quadrature(4, 8, antipodal=True)
        p = -4.0 + 8.0 * np.arange(16) / 16
        text = grid_to_csv(GridProfile(p=p, sphere=sphere,
                                       samples=np.ones((16, sphere.n, 3), dtype=complex)))
        header = text.split("\n", 1)[0]
        for short in (header, header + "\n"):
            with pytest.raises(ValueError, match="rows"):
                grid_from_csv(short, sphere)
        lines = text.splitlines()
        lines[7] = lines[7].rsplit(",", 1)[0]
        with pytest.raises(ValueError):
            grid_from_csv("\n".join(lines) + "\n", sphere)

    def test_grid_requires_power_of_two(self):
        sphere = sphere_quadrature(4, 8)
        with pytest.raises(ValueError):
            GridProfile(p=np.arange(12) * 0.1, sphere=sphere,
                        samples=np.zeros((12, sphere.n, 3)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
    def test_grid_rejects_non_finite_samples(self, bad):
        sphere = sphere_quadrature(4, 8, antipodal=True)
        p = -4.0 + 8.0 * np.arange(16) / 16
        samples = np.ones((16, sphere.n, 3), dtype=complex)
        samples[5, 7, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            GridProfile(p=p, sphere=sphere, samples=samples)
        with pytest.raises(ValueError, match="finite"):
            GridProfile(p=p, sphere=sphere, samples=samples[..., 1])
        # a nan CSV cell is rejected on reading
        samples[5, 7, 1] = 1.0
        lines = grid_to_csv(GridProfile(p=p, sphere=sphere, samples=samples)).splitlines()
        row = lines[1 + 5 * sphere.n + 7].split(",")
        row[6] = "nan"  # re_fy
        lines[1 + 5 * sphere.n + 7] = ",".join(row)
        with pytest.raises(ValueError, match="finite"):
            grid_from_csv("\n".join(lines) + "\n", sphere)


class TestTransformSpaceAmpere:
    def test_flux_functional_scales_with_eigenvalue(self):
        # any discrete flux functional applied to Gamma x F equals nu times
        # the functional of F, because the eigenrelation holds atom-wise
        prof = radon_mode_analytic(random_mode_field(3, seed=36))
        curl = gamma_apply(prof, "cross")
        rng = np.random.default_rng(37)
        normals = rng.normal(size=(6, 3))
        weights = rng.uniform(0.5, 1.5, size=6)
        ps = rng.uniform(-1, 1, size=6)

        def flux(profile):
            total = 0.0
            for n_vec, w, p in zip(normals, weights, ps):
                for a in profile.atoms:
                    total += w * a.weight * np.exp(1j * a.frequency * p) * (n_vec @ a.amplitude)
            return total

        assert abs(flux(curl) - prof.nu * flux(prof)) < 1e-10


GOLDEN_JSON = """{
  "atoms": [
    {
      "amplitude_im": [
        1e-20,
        -2.5,
        0.0
      ],
      "amplitude_re": [
        0.1,
        -0.0,
        0.3333333333333333
      ],
      "direction": [
        0.6,
        0.0,
        0.8
      ],
      "frequency": 1.5,
      "weight": 1.0
    },
    {
      "amplitude_im": [
        0.0,
        0.0,
        -7.0
      ],
      "amplitude_re": [
        1e+300,
        0.0,
        -0.0
      ],
      "direction": [
        -0.6,
        -0.0,
        -0.8
      ],
      "frequency": -1.5,
      "weight": 0.5
    }
  ],
  "g": 0.25,
  "mu": -1,
  "nu": 1.5
}"""
