import warnings

import numpy as np
import pytest

from trkalian.core import PlaneQuadrature, sphere_quadrature
from trkalian.fields import (HelicityMode, ModeField, eval_mode_field,
                             gaussian_scalar, gaussian_test_field, lundquist)
from trkalian.moses import frame_antipodal_phase, moses_frame
from trkalian.radon import (AnalyticProfile, GridProfile, RadonAtom,
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
        # the same profile on a grid starting at 0 and on one starting at -pi
        for p0 in (0.0, -np.pi):
            p = p0 + 2 * np.pi * np.arange(n_p) / n_p
            samples = np.zeros((n_p, sphere.n, 3), dtype=complex)
            for atom in prof.atoms:
                j = int(np.argmin(np.linalg.norm(sphere.nodes - atom.direction, axis=1)))
                assert np.linalg.norm(sphere.nodes[j] - atom.direction) < 1e-12
                samples[:, j] += (atom.weight / sphere.weights[j]
                                  * np.exp(1j * atom.frequency * p)[:, None] * atom.amplitude)
            grid = GridProfile(p=p, sphere=sphere, samples=samples)
            rec = inverse_radon(grid, x)
            assert np.linalg.norm(rec - ref) / np.linalg.norm(ref) < 1e-12, p0


class TestHemisphere:
    def test_canonical_hemisphere_validates(self):
        quad = sphere_quadrature(6, 8, antipodal=True)
        canonical_hemisphere().validate_on(quad)

    def test_disconnected_hemisphere_validates(self):
        quad = sphere_quadrature(6, 8, antipodal=True)
        cap_swapped_hemisphere(np.array([0.0, 0.0, 1.0]), 0.7).validate_on(quad)

    def test_non_canonical_indicator_rejected(self):
        quad = sphere_quadrature(6, 8, antipodal=True)
        from trkalian.radon import Hemisphere
        with pytest.raises(ValueError):
            Hemisphere(indicator=lambda k: True).validate_on(quad)

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
        if not hemi.contains(k0):
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

    def test_grid_requires_power_of_two(self):
        sphere = sphere_quadrature(4, 8)
        with pytest.raises(ValueError):
            GridProfile(p=np.arange(12) * 0.1, sphere=sphere,
                        samples=np.zeros((12, sphere.n, 3)))


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
