import numpy as np
import pytest

from trkalian.cktransform import (DebyeChoice, OmegaAtom, ScalarTone,
                                  abc_omega_atoms, ck_integral_profile,
                                  ck_transform_potential,
                                  ck_transform_potential_check,
                                  ck_transform_solution,
                                  oscillator_contour_numeric,
                                  oscillator_residue, reconstruct_physical)
from trkalian.core import fd_derivative_oracle, sphere_quadrature
from trkalian.fields import HelicityMode, ModeField, abc_field, eval_mode_field
from trkalian.moses import moses_frame
from trkalian.radon import (gamma_apply, gamma_cross_eigendefect,
                            lundquist_radon_profile, radon_mode_analytic)
from trkalian.rbs import rbs_apply


def random_direction(seed):
    rng = np.random.default_rng(seed)
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def match_atom(profile, direction, frequency):
    hits = [a for a in profile.atoms
            if np.linalg.norm(a.direction - direction) < 1e-12
            and abs(a.frequency - frequency) < 1e-12]
    assert len(hits) == 1
    return hits[0]


class TestDebyeSolution:
    def test_single_mode_reproduction(self):
        lam, nu = 1, 1.0
        k0 = random_direction(40)
        coeff = (2 * np.pi) ** 2 / nu**3
        choice = DebyeChoice(
            tones=(ScalarTone(k0, lam * nu, coeff),
                   ScalarTone(-k0, -lam * nu, coeff)),
            omega=moses_frame(k0, 1),
            nu=nu)
        # the toroidal term alone already carries the mode profile
        sol = ck_transform_solution(choice, include_poloidal=False)
        target = radon_mode_analytic(
            ModeField(modes=(HelicityMode(lam, nu, k0, (2 * np.pi) ** 1.5),)))
        for a in sol.atoms:
            ref = match_atom(target, a.direction, a.frequency)
            assert np.max(np.abs(a.amplitude - ref.amplitude)) < 1e-12

    def test_full_solution_satisfies_eigenrelation(self):
        lam, nu = 1, 1.3
        k0 = random_direction(41)
        choice = DebyeChoice(
            tones=(ScalarTone(k0, lam * nu, 0.7 - 0.2j),
                   ScalarTone(-k0, -lam * nu, 0.7 - 0.2j)),
            omega=np.array([0.3, -1.0, 0.4]),
            nu=nu)
        for poloidal in (True, False):
            sol = ck_transform_solution(choice, include_poloidal=poloidal)
            curl = gamma_apply(sol, "cross")
            if poloidal:
                for a, b in zip(sol.atoms, curl.atoms):
                    assert np.max(np.abs(b.amplitude - nu * a.amplitude)) < 1e-12

    def test_lundquist_reproduction(self):
        f0, nu = 1.0, 1.0
        n_ring = 16
        target = lundquist_radon_profile(f0, nu, n_ring=n_ring)
        w = 2 * np.pi / n_ring
        coeff = 2 * np.pi * 1j * f0 / nu**3
        for j in range(n_ring):
            psi = 2 * np.pi * j / n_ring
            k = np.array([np.cos(psi), np.sin(psi), 0.0])
            ell = np.array([np.sin(psi), -np.cos(psi), -1j])
            ellp = np.array([-np.sin(psi), np.cos(psi), -1j])
            for freq, omega in ((nu, ell), (-nu, ellp)):
                choice = DebyeChoice(tones=(ScalarTone(k, freq, coeff, weight=w),),
                                     omega=omega, nu=nu)
                sol = ck_transform_solution(choice, include_poloidal=False)
                ref = match_atom(target, k, freq)
                assert np.max(np.abs(sol.atoms[0].amplitude - ref.amplitude)) < 1e-12

    def test_axial_debye_reproduces_ring_profile(self):
        # the symmetric tone pair with omega = e_z splits cleanly: the
        # toroidal term carries the azimuthal component, the poloidal term
        # the axial one, and their sum is the full ring profile
        f0, nu = 1.0, 1.0
        target = lundquist_radon_profile(f0, nu, n_ring=16)
        coeff = 2 * np.pi * f0 / nu**3
        for j in range(16):
            psi = 2 * np.pi * j / 16
            k = np.array([np.cos(psi), np.sin(psi), 0.0])
            choice = DebyeChoice(
                tones=(ScalarTone(k, nu, coeff, weight=2 * np.pi / 16),
                       ScalarTone(k, -nu, coeff, weight=2 * np.pi / 16)),
                omega=np.array([0.0, 0.0, 1.0]),
                nu=nu)
            toroidal = ck_transform_solution(choice, include_poloidal=False)
            full = ck_transform_solution(choice, include_poloidal=True)
            for a_tor, a_full in zip(toroidal.atoms, full.atoms):
                ref = match_atom(target, a_tor.direction, a_tor.frequency)
                planar = ref.amplitude.copy()
                planar[2] = 0.0
                axial = ref.amplitude - planar
                assert np.max(np.abs(a_tor.amplitude - planar)) < 1e-12
                assert np.max(np.abs(a_full.amplitude - a_tor.amplitude - axial)) < 1e-12
                assert np.max(np.abs(a_full.amplitude - ref.amplitude)) < 1e-12

    def test_oscillator_constraint_enforced(self):
        with pytest.raises(ValueError):
            DebyeChoice(tones=(ScalarTone(np.array([0.0, 0.0, 1.0]), 2.0, 1.0),),
                        omega=np.array([1.0, 0.0, 0.0]), nu=1.0)

    def test_p_dependent_omega_rejected(self):
        with pytest.raises(ValueError):
            DebyeChoice(tones=(ScalarTone(np.array([0.0, 0.0, 1.0]), 1.0, 1.0),),
                        omega=lambda p, kappa: kappa, nu=1.0)

    def test_omega_of_any_signature_taking_kappa_is_allowed(self):
        # called on the tone directions, not judged by its signature
        choice = DebyeChoice(tones=(ScalarTone(np.array([0.0, 0.0, 1.0]), 1.0, 1.0),),
                             omega=lambda *k: np.cross(k[0], [1.0, 0.0, 0.0]), nu=1.0)
        assert choice.omega.tolist() == [[0.0, 1.0, 0.0]]
        assert gamma_cross_eigendefect(ck_transform_solution(choice)) < 1e-14

    def test_omega_is_called_once_at_construction(self):
        calls = []

        def omega(kappa):
            calls.append(kappa.shape)
            return np.cross(kappa, [1.0, 0.5, 0.0])

        k0 = random_direction(51)
        choice = DebyeChoice(tones=(ScalarTone(k0, 1.0, 1.0), ScalarTone(-k0, -1.0, 1.0)),
                             omega=omega, nu=1.0)
        assert calls == [(2, 3)]
        curl_res, rbs_res = ck_transform_potential_check(choice)
        assert calls == [(2, 3)] and curl_res < 1e-14 and rbs_res < 1e-14

    @pytest.mark.parametrize("bad", [
        {"nu": np.nan}, {"nu": np.inf}, {"frequency": np.nan},
        {"coefficient": complex(np.nan, 0.0)}, {"weight": 0.0}, {"weight": -2.0},
        {"coefficient": [1.0, 0.5j, 0.0]}, {"direction": [0.0, 0.0, 1.1]},
        {"omega": [np.nan, 0.0, 0.0]}, {"omega": lambda k: k + np.inf},
        {"omega": [1.0, 0.0]},
    ], ids=["nan-nu", "infinite-nu", "nan-frequency", "nan-coefficient", "zero-weight",
            "negative-weight", "vector-coefficient", "non-unit-direction", "nan-omega",
            "infinite-omega-of-kappa", "short-omega"])
    def test_bad_tones_rejected_at_construction(self, bad):
        a = {"direction": [0.0, 0.0, 1.0], "frequency": 1.0, "coefficient": 1.0,
             "weight": 1.0, "nu": 1.0, "omega": np.array([1.0, 0.0, 0.0])} | bad
        with pytest.raises(ValueError):
            DebyeChoice(tones=(ScalarTone(a["direction"], a["frequency"], a["coefficient"],
                                          a["weight"]),),
                        omega=a["omega"], nu=a["nu"])

    def test_kappa_dependent_omega_allowed(self):
        shapes = []

        def omega(kappa):
            shapes.append(kappa.shape)
            return np.cross(kappa, [1.0, 0.0, 0.0])

        k0 = random_direction(50)
        choice = DebyeChoice(tones=(ScalarTone(np.array([0.0, 0.0, 1.0]), 1.0, 1.0),
                                    ScalarTone(k0, -1.0, 0.5j)),
                             omega=omega, nu=1.0)
        sol = ck_transform_solution(choice)
        assert gamma_cross_eigendefect(sol) < 1e-14
        # one call on all the tone directions, not one per tone
        assert shapes == [(2, 3)]


class TestPotentialCheck:
    def test_exact_zero_residuals(self):
        k0 = random_direction(42)
        choice = DebyeChoice(
            tones=(ScalarTone(k0, 1.0, 1.0 + 0.5j), ScalarTone(-k0, -1.0, 1.0 + 0.5j)),
            omega=moses_frame(k0, 1),
            nu=1.0)
        curl_res, rbs_res = ck_transform_potential_check(choice)
        assert curl_res < 1e-14
        assert rbs_res < 1e-14

    def test_potential_curl_is_solution(self):
        k0 = random_direction(43)
        choice = DebyeChoice(
            tones=(ScalarTone(k0, -2.0, 0.3),),
            omega=np.array([1.0, 0.5, -0.2]),
            nu=2.0)
        h = ck_transform_potential(choice)
        g = ck_transform_solution(choice)
        curl_h = gamma_apply(h, "cross")
        for a, b in zip(curl_h.atoms, g.atoms):
            assert np.max(np.abs(a.amplitude - b.amplitude)) < 1e-14

    def test_grid_tone_realization(self):
        # the same construction realized spectrally on a commensurate grid
        nu = 1.0
        sphere = sphere_quadrature(4, 8, antipodal=True)
        n_p = 32
        p = 2 * np.pi * np.arange(n_p) / n_p
        omega = np.array([0.2, 1.0, -0.5])
        from trkalian.radon import GridProfile
        tone = np.exp(1j * nu * p)[:, None, None]
        psi_omega = tone * np.broadcast_to(omega, (n_p, sphere.n, 3))
        base = GridProfile(p=p, sphere=sphere, samples=psi_omega.astype(complex))
        toroidal = gamma_apply(base, "cross")
        poloidal = gamma_apply(toroidal, "cross")
        g = GridProfile(p=p, sphere=sphere,
                        samples=toroidal.samples + poloidal.samples / nu)
        curl_g = gamma_apply(g, "cross")
        assert np.max(np.abs(curl_g.samples - nu * g.samples)) < 1e-9
        rbs_g = rbs_apply(g)
        assert np.max(np.abs(rbs_g.samples - g.samples / nu)) < 1e-9


class TestOscillatorContour:
    def test_residue_value(self):
        for lam in (1, -1):
            for p in (0.0, 0.3, -1.2):
                val = oscillator_residue(p, lam, 1.0, "plus")
                assert abs(val - 2j * np.pi * np.exp(1j * lam * p)) < 1e-14

    def test_at_origin(self):
        assert abs(oscillator_residue(0.0, 1, 1.0, "plus") - 2j * np.pi) < 1e-15
        assert abs(oscillator_residue(0.0, 1, 1.0, "minus") - 2j * np.pi) < 1e-15

    def test_numeric_contour_agrees(self):
        for p in (-5.0, 0.3, 5.0):
            for nu in (0.5, 1.0, 3.0):
                for branch in ("plus", "minus"):
                    a = oscillator_residue(p, 1, nu, branch)
                    b = oscillator_contour_numeric(p, 1, nu, branch)
                    assert abs(a - b) / abs(a) < 1e-12

    def test_scaled_normalization(self):
        p, lam, nu = 0.4, 1, 2.0
        val = oscillator_residue(p, lam, nu, "plus") / (4j * np.pi * nu)
        assert abs(val - np.exp(1j * lam * nu * p) / (2 * nu)) < 1e-15

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            oscillator_residue(0.0, 2, 1.0, "plus")
        with pytest.raises(ValueError):
            oscillator_residue(0.0, 1, 1.0, "around")

    @pytest.mark.parametrize("loop", [oscillator_residue, oscillator_contour_numeric])
    @pytest.mark.parametrize("p, lam, nu, branch", [
        (0.3, 5, 1.0, "plus"), (0.3, 0, 1.0, "minus"), (0.3, 1, 0.0, "plus"),
        (0.3, -1, 0.0, "minus"), (0.3, 1, 1.0, "around"), (0.3, 1, np.nan, "plus"),
        (0.3, 1, np.inf, "plus"), (0.3, -1, -np.inf, "minus"), (np.nan, 1, 1.0, "plus"),
        (np.inf, 1, 1.0, "minus"), (-np.inf, 1, 1.0, "plus"),
    ], ids=["lam-5", "lam-0", "nu-0-plus", "nu-0-minus", "bad-branch", "nu-nan", "nu-inf",
            "nu-minus-inf", "p-nan", "p-inf", "p-minus-inf"])
    def test_both_loops_reject_the_same_poles(self, loop, p, lam, nu, branch):
        with pytest.raises(ValueError):
            loop(p, lam, nu, branch)

    @pytest.mark.parametrize("nu", [5e-324, -5e-324])
    def test_contour_rejects_a_nu_whose_radius_rounds_to_zero(self, nu):
        # the smallest subnormals pass the nonzero check, and |nu| / 2 is 0
        with pytest.raises(ValueError, match="radius must be finite and positive, got 0.0"):
            oscillator_contour_numeric(0.3, 1, nu, "plus")


class TestIntegralRepresentation:
    def test_moses_choice_recovers_mode_profile(self):
        lam, nu, g = 1, 1.0, 1.0
        k0 = random_direction(44)
        s = (2 * np.pi) ** 1.5 * g
        # omega densities on the two atoms of the transform support
        scale = np.sqrt(2 * np.pi) / (g * nu**2) * s
        omega1 = [OmegaAtom(k0, scale * moses_frame(k0, 1))]
        omega2 = [OmegaAtom(-k0, scale * moses_frame(k0, 1))]
        prof = ck_integral_profile(omega1, omega2, lam, nu)
        target = radon_mode_analytic(
            ModeField(modes=(HelicityMode(lam, nu, k0, s, g=g),)))
        for a in prof.atoms:
            ref = match_atom(target, a.direction, a.frequency)
            assert np.max(np.abs(a.amplitude - ref.amplitude)) < 1e-12

    def test_axial_density_gives_ring_tangential_part(self):
        nu, f0 = 1.0, 1.0
        n_ring = 16
        w = 2 * np.pi / n_ring
        scale = 4 * np.pi * f0 / nu**2
        omega1 = []
        omega2 = []
        for j in range(n_ring):
            psi = 2 * np.pi * j / n_ring
            k = np.array([np.cos(psi), np.sin(psi), 0.0])
            # the ring's line measure w in each vector: atoms of weight 1
            omega1.append(OmegaAtom(k, w * scale * np.array([0.0, 0.0, 1.0])))
            omega2.append(OmegaAtom(k, w * scale * np.array([0.0, 0.0, 1.0])))
        prof = ck_integral_profile(omega1, omega2, 1, nu)
        assert gamma_cross_eigendefect(prof) < 1e-13

    def test_eigenrelation_for_arbitrary_densities(self):
        rng = np.random.default_rng(45)
        omega1 = []
        omega2 = []
        for _ in range(4):
            k = rng.normal(size=3)
            k /= np.linalg.norm(k)
            omega1.append(OmegaAtom(k, rng.normal(size=3) + 1j * rng.normal(size=3)))
            omega2.append(OmegaAtom(-k, rng.normal(size=3) + 1j * rng.normal(size=3)))
        prof = ck_integral_profile(omega1, omega2, 1, 0.8)
        assert gamma_cross_eigendefect(prof) < 1e-13
        # emitted profiles are transverse by construction
        assert prof.transverse_defect() < 1e-13

    @pytest.mark.parametrize("nu", [np.nan, np.inf, 0.0])
    def test_rejects_a_bad_nu_by_name(self, nu):
        atoms = [OmegaAtom(random_direction(50), np.array([1.0, 0.5j, 0.0]))]
        for omega1, omega2 in (([], []), (atoms, atoms)):
            with pytest.raises(ValueError, match="nu must be finite and nonzero"):
                ck_integral_profile(omega1, omega2, 1, nu)

    def test_emitted_debye_profiles_are_transverse(self):
        k0 = random_direction(49)
        choice = DebyeChoice(
            tones=(ScalarTone(k0, 1.0, 0.4 - 0.9j), ScalarTone(-k0, -1.0, 0.4 - 0.9j)),
            omega=np.array([0.1, 0.7, -0.4]),
            nu=1.0)
        for poloidal in (True, False):
            sol = ck_transform_solution(choice, include_poloidal=poloidal)
            assert sol.transverse_defect() < 1e-13


class TestReconstruction:
    def test_abc_field(self):
        lam, nu = 1, 1.0
        omega1, omega2 = abc_omega_atoms(1.0, 1.0, 1.0, lam, nu)
        ref = abc_field(1.0, 1.0, 1.0, nu=nu)
        evaluator = lambda y: reconstruct_physical(omega1, omega2, lam, nu, y)
        rng = np.random.default_rng(46)
        for _ in range(5):
            x = rng.uniform(-2, 2, size=3)
            rec = evaluator(x)
            assert np.max(np.abs(rec.real - ref(x).real)) < 1e-13
            curl = fd_derivative_oracle(evaluator, x, "curl")
            assert (np.linalg.norm(curl - lam * nu * rec)
                    / np.linalg.norm(rec)) < 1e-7

    def test_polarization_eigencondition(self):
        for lam in (1, -1):
            kappas = (np.array([0.0, 0.0, 1.0]), np.array([1.0, 0.0, 0.0]),
                      np.array([0.0, 1.0, 0.0]))
            es = (np.array([1.0, 1j * lam, 0.0]), np.array([0.0, 1.0, 1j * lam]),
                  np.array([1j * lam, 0.0, 1.0]))
            for k, e in zip(kappas, es):
                assert np.max(np.abs(1j * lam * np.cross(k, e) - e)) < 1e-15
                assert abs(k @ e) < 1e-15

    def test_single_delta_roundtrip(self):
        lam, nu = 1, 1.0
        k0 = random_direction(47)
        s = (2 * np.pi) ** 1.5
        scale = np.sqrt(2 * np.pi) / nu**2 * s
        omega1 = [OmegaAtom(k0, scale * moses_frame(k0, 1))]
        omega2 = [OmegaAtom(-k0, scale * moses_frame(k0, 1))]
        mf = ModeField(modes=(HelicityMode(lam, nu, k0, s),))
        rng = np.random.default_rng(48)
        for _ in range(5):
            x = rng.uniform(-2, 2, size=3)
            rec = reconstruct_physical(omega1, omega2, lam, nu, x)
            ref = eval_mode_field(mf, x)
            assert np.linalg.norm(rec - ref) / np.linalg.norm(ref) < 1e-9
