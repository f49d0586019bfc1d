import functools
import json
import re
import tracemalloc
import warnings
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

from trkalian import radon, rbs, verify
from trkalian.cktransform import (DebyeChoice, OmegaAtom, ScalarTone, abc_omega_atoms,
                                  ck_transform_potential, ck_transform_solution,
                                  reconstruct_physical)
from trkalian.core import (PlaneQuadrature, _tensor_boundary, as_direction, plane_basis,
                           sphere_quadrature)
from trkalian.fields import (HelicityMode, ModeField, eval_mode_field,
                             gaussian_scalar, gaussian_test_field, lundquist)
from trkalian.moses import frame_antipodal_phase, moses_frame
from trkalian.radon import (TRUNCATION_THRESHOLD, AnalyticProfile, GridProfile,
                            Hemisphere, RadonAtom, TruncationWarning, _plane_sums, adjoint_radon,
                            antipodal_profile, canonical_hemisphere, gamma_apply,
                            gamma_cross_eigendefect, grid_from_csv,
                            grid_to_csv, hemisphere_inverse,
                            intertwining_check, inverse_radon,
                            lundquist_radon_profile, profile_from_json,
                            profile_to_json, radon_forward_grid,
                            radon_forward_numeric, radon_mode_analytic,
                            radon_of_hemisphere_inverse, scalar_wave_profile,
                            spherical_curl_transform, transform_radon_linear)
from trkalian.rbs import radon_riesz, rbs_apply, rbs_eigendefect

EZ = np.array([0.0, 0.0, 1.0])
PLANE = PlaneQuadrature(half_width=8.0)


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
        small = PlaneQuadrature(half_width=5.0)
        with pytest.warns(TruncationWarning):
            radon_forward_numeric(f, 0.0, EZ, small)

    @pytest.mark.parametrize("field", [
        gaussian_test_field((0.3, -0.2, 0.1), 1.0, (1.0, 0.5j, -0.25)),
        gaussian_scalar((0.0, 0.2, 0.1), 1.0),
    ], ids=["vector", "scalar"])
    def test_batch_equals_single_planes_bitwise(self, field, monkeypatch):
        # 5 x 4 planes of 32^2 points span three field calls, the last partial
        monkeypatch.setattr(radon, "_CHUNK_POINTS", 7 * 32**2)
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
        plane = PlaneQuadrature(half_width=8.0)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            radon_forward_grid(gaussian_test_field((7.0, 0.0, 0.0), 1.0, (1.0, 0.0, 0.0)),
                               p, sphere, plane)
            assert len(caught) == 1 and caught[0].category is TruncationWarning
            assert "on 448 of 512 planes (worst ratio 3.68e-01)" in str(caught[0].message)
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


class TestReusedPointBuffer:
    # 32^2 nodes make 16 planes a chunk: 40 planes are chunks of 16, 16 and 8
    QUAD = PlaneQuadrature(half_width=8.0)
    P = np.linspace(-3.0, 3.0, 40)
    K = np.stack([random_direction(s) for s in range(40)])

    def transform(self, field):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            out = radon_forward_numeric(field, self.P, self.K, self.QUAD)
        return out, [(w.message.n_truncated, w.message.worst_ratio) for w in caught]

    @pytest.mark.parametrize("view", [lambda x: x, lambda x: x[..., 0]], ids=["x", "x0"])
    def test_field_returning_a_view_of_its_points(self, view):
        # each chunk is reduced before the next one overwrites the points
        def copy(x):
            return view(x).copy()

        for got, ref in zip(_plane_sums(view, self.P, self.K, self.QUAD),
                            _plane_sums(copy, self.P, self.K, self.QUAD)):
            assert got.tobytes() == ref.tobytes()
        (got, got_warned), (ref, ref_warned) = self.transform(view), self.transform(copy)
        assert got.tobytes() == ref.tobytes()
        assert got_warned == ref_warned and got_warned[0][0] > 0

    def test_nan_in_the_last_chunk_only(self):
        g, calls = gaussian_scalar((0.1, 0.2, -0.3), 1.0), []

        def spoiled(x):
            calls.append(x.shape[0])
            out = g(x)
            if len(calls) == 3:
                out[-1] = np.nan
            return out

        with pytest.raises(ValueError, match="not finite"):
            radon_forward_numeric(spoiled, self.P, self.K, self.QUAD)
        assert calls == [16 * 32**2, 16 * 32**2, 8 * 32**2]

    def test_complex_worst_ratio_matches_max_min_reference(self):
        def field(x):
            r0 = np.sum(x * x, axis=-1)
            r1 = np.sum((x - [6.0, 1.0, 0.0]) ** 2, axis=-1)
            return np.stack([2.0 * np.exp(-r0), (-0.5 + 0.25j) * np.exp(-0.5 * r1),
                             (0.1 - 1j) * np.exp(-r1)], axis=-1)

        seen = []
        _, warned = self.transform(lambda x: seen.append(field(x)) or seen[-1])
        vf = np.concatenate(seen).view(float).reshape(self.P.size, 32**2, -1)
        ring = np.take(vf, _tensor_boundary(32), axis=1)
        peak = np.maximum(vf.max(axis=(1, 2)), -vf.min(axis=(1, 2)))
        edge = np.maximum(ring.max(axis=(1, 2)), -ring.min(axis=(1, 2)))
        truncated = edge > TRUNCATION_THRESHOLD * peak
        assert 0 < np.count_nonzero(truncated) < self.P.size
        assert warned == [(np.count_nonzero(truncated), np.max(edge[truncated] / peak[truncated]))]


class TestPlanePoints:
    # 40 planes, chunks of 16, 16 and 8 of 32^2 points.  Planes 0-27 are generic;
    # 28-39 have p = +-0.0, where -0.0 + -0.0 can occur, or kappa along an axis
    # or with one zero component
    P = np.concatenate([np.random.default_rng(20).uniform(-6.0, 6.0, 28),
                        [0.0, -0.0, -0.0, 0.0, -0.0, 0.0, 2.5, -1.5, -3.0, 4.0, -0.5, 1.0]])
    K = np.concatenate([np.stack([random_direction(s) for s in range(100, 130)]),
                        [EZ, -EZ, [-1.0, 0.0, 0.0], [0.0, -0.6, 0.8], EZ, [0.0, -1.0, 0.0],
                         [0.6, 0.0, -0.8], [-0.8, 0.6, 0.0], [0.0, 0.6, 0.8], -EZ]])

    def test_points_are_the_written_out_sums(self):
        n, quad, seen = 32, PlaneQuadrature(half_width=8.0), []
        _plane_sums(lambda x: seen.append(x.copy()) or x[..., 0], self.P, self.K, quad)
        assert [s.shape[0] for s in seen] == [16 * n**2, 16 * n**2, 8 * n**2]
        got = np.concatenate(seen).reshape(40, n, n, 3)  # (plane, a, b, component)
        e1, e2 = plane_basis(self.K)
        x, _ = quad.nodes_1d()
        ref = ((self.P[:, None, None, None] * self.K[:, None, None] + x[:, None, None] * e1[:, None, None])
               + x[:, None] * e2[:, None, None])
        assert got[:28].tobytes() == ref[:28].tobytes()
        nonzero = ref != 0.0
        assert got[nonzero].tobytes() == ref[nonzero].tobytes()
        # a coordinate that is -0.0 in ref may be +0.0 in got, on planes 28-39 only
        assert np.array_equal(got, ref)


class TestForwardGrid:
    # 16 antipodal pairs x 16 p; every p but -8 has its negation on the grid
    SPHERE = sphere_quadrature(4, 8, antipodal=True)
    P = -8.0 + np.arange(16.0)
    QUAD = PlaneQuadrature(half_width=8.0)
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
            assert f"{w.worst_ratio:.2e}" == "3.68e-01"
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


@pytest.mark.parametrize("shape", [(16,), (16, 32, 2), (16, 32, 3, 1), (16, 31), (8, 32, 3), ()],
                         ids=["no-directions", "two-components", "trailing-axis",
                              "direction-count", "p-count", "scalar"])
def test_grid_profile_refuses_samples_of_another_shape(shape):
    # (n_p,) raised IndexError, and (n_p, n_dir, 2) or (n_p, n_dir, 3, 1) failed
    # only later, in gamma_apply or grid_to_csv
    sphere = sphere_quadrature(4, 8)  # 32 directions
    with pytest.raises(ValueError, match=r"^samples must be shaped \(n_p, n_dir\[, 3\]\)$"):
        GridProfile(p=np.arange(16) * 0.1, sphere=sphere, samples=np.zeros(shape))


class TestIntertwining:
    def test_curl(self):
        f = gaussian_test_field((0.1, 0.0, -0.2), 1.0, (0.8, -0.3, 0.5))
        res = intertwining_check(f, random_direction(13), 0.3, "curl", PLANE)
        assert res < 2e-11

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
        assert res < 1e-12

    def test_gradient(self):
        g = gaussian_scalar((0.0, 0.2, 0.1), 1.0)
        res = intertwining_check(g, random_direction(15), 0.1, "grad", PLANE)
        assert res < 2e-11


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
            # measured 7.1e-16: the 64-point ring is exact to rounding at |x| <= 2
            assert np.linalg.norm(rec - ref) / np.linalg.norm(ref) < 1e-14

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


GAUSS_CENTER = np.array([0.3, -0.2, 0.1])


def numeric_gaussian_grid(sphere):
    """Numeric transform of a unit Gaussian centred off the origin, on 32
    points of [-8, 8)."""
    field = gaussian_test_field(GAUSS_CENTER, 1.0, (1.0, -0.5, 0.25))
    p = -8.0 + 0.5 * np.arange(32)
    return radon_forward_grid(field, p, sphere, PlaneQuadrature(half_width=8.0))


def grid_atoms(grid: GridProfile) -> AnalyticProfile:
    """Reference: the grid's trigonometric interpolant as atoms, by one FFT
    along p: row i n_dir + j is frequency i at node j, with that node's weight
    and amplitude c_ij e^{-i omega_i p[0]} / n_p.  Frequencies i < n_p are 2 pi
    ``np.fft.fftfreq``; the Nyquist term is halved between -pi/dp (i = n_p / 2)
    and +pi/dp (i = n_p)."""
    n_p, nodes = grid.p.size, grid.sphere.nodes
    omega = 2.0 * np.pi * np.fft.fftfreq(n_p, d=grid.p[1] - grid.p[0])
    omega = np.append(omega, -omega[n_p // 2])
    scale = np.exp(-1j * omega * grid.p[0]) / np.where(np.abs(omega) == omega[-1], 2 * n_p, n_p)
    coeffs = (scale * np.fft.fft(grid.samples, axis=0)[np.r_[:n_p, n_p // 2]].T).T
    return AnalyticProfile(np.tile(nodes, (n_p + 1, 1)), np.repeat(omega, len(nodes)),
                           coeffs.reshape((-1,) + coeffs.shape[2:]),
                           np.tile(grid.sphere.weights, n_p + 1), nu=1.0)


def sample_atoms(grid: GridProfile, atoms: AnalyticProfile) -> GridProfile:
    """Reference: ``grid`` resampled from atoms laid out as by :func:`grid_atoms`,
    the Nyquist halves folded back, then one inverse FFT along p."""
    n_p = grid.p.size
    coeffs = atoms.amplitudes.reshape((n_p + 1, grid.sphere.n) + atoms.amplitudes.shape[1:])
    coeffs = (np.exp(1j * atoms.frequencies[::grid.sphere.n] * grid.p[0]) * n_p * coeffs.T).T
    coeffs[n_p // 2] += coeffs[n_p]
    return replace(grid, samples=np.fft.ifft(coeffs[:n_p], axis=0))


def atom_riesz(atoms: AnalyticProfile) -> AnalyticProfile:
    """Reference: the 1/k^2 kernel on atoms, omega = 0 dropped."""
    kern = np.divide(1.0, atoms.frequencies**2, out=np.zeros(atoms.frequencies.size),
                     where=atoms.frequencies != 0.0)
    return replace(atoms, amplitudes=(kern * atoms.amplitudes.T).T)


@functools.lru_cache(maxsize=1)
def cli_default_grid() -> GridProfile:
    """The grid of ``trk radon --field gaussian`` at its defaults (8 x 16
    antipodal sphere, 64 p on [-8, 8), 32 trapezoid nodes per plane axis) for
    the field with a nonzero centre and a complex polarization."""
    field = gaussian_test_field(GAUSS_CENTER, 1.0, (1.0, -0.5j, 0.25 + 0.1j))
    p = -8.0 + 16.0 * np.arange(64) / 64
    return radon_forward_grid(field, p, sphere_quadrature(8, 16, antipodal=True),
                              PlaneQuadrature(half_width=8.0))


def noise_grid(sphere, seed=0, n_p=32):
    """Complex Gaussian noise on n_p points of [-3, 3), with its p-mean removed
    (the 1/k^2 kernel refuses DC content)."""
    rng = np.random.default_rng(seed)
    samples = rng.normal(size=(n_p, sphere.n, 3)) + 1j * rng.normal(size=(n_p, sphere.n, 3))
    return GridProfile(p=-3.0 + 6.0 * np.arange(n_p) / n_p, sphere=sphere,
                       samples=samples - samples.mean(axis=0))


GRIDS = {"cli-default": cli_default_grid,
         "non-antipodal": lambda: noise_grid(sphere_quadrature(4, 8)),
         "no-antipodes": lambda: noise_grid(sphere_quadrature(4, 5))}


class TestGridTable:
    """The table operators against the atom reference :func:`grid_atoms`."""

    @pytest.fixture(scope="class", params=sorted(GRIDS))
    def grid(self, request):
        return GRIDS[request.param]()

    def test_table_is_the_reference_atoms(self, grid):
        omega, coeffs = grid.table
        atoms = grid_atoms(grid)
        assert np.repeat(omega, grid.sphere.n).tobytes() == atoms.frequencies.tobytes()
        assert coeffs.reshape(atoms.amplitudes.shape).tobytes() == atoms.amplitudes.tobytes()

    @pytest.mark.parametrize("kind", ["cross", "dot", "grad"])
    def test_gamma_is_the_reference_bit_for_bit(self, grid, kind):
        if kind == "grad":  # a scalar grid: one component of the vector one
            grid = replace(grid, samples=grid.samples[..., 1])
        expected = sample_atoms(grid, gamma_apply(grid_atoms(grid), kind)).samples
        assert gamma_apply(grid, kind).samples.tobytes() == expected.tobytes()

    def test_riesz_and_rbs_are_the_reference_bit_for_bit(self, grid):
        zero_mean = replace(grid, samples=grid.samples - grid.samples.mean(axis=0))
        riesz = sample_atoms(zero_mean, atom_riesz(grid_atoms(zero_mean)))
        assert radon_riesz(zero_mean).samples.tobytes() == riesz.samples.tobytes()
        rbs = sample_atoms(riesz, gamma_apply(grid_atoms(riesz), "cross"))
        assert rbs_apply(zero_mean).samples.tobytes() == rbs.samples.tobytes()

    def test_parity_and_dc_are_the_reference_bit_for_bit(self, grid):
        for g in (grid, replace(grid, samples=grid.samples[..., 0])):
            atoms = grid_atoms(g)
            assert g.parity_defect() == atoms.parity_defect()
            assert g.dc_content() == atoms.dc_content()

    def test_reconstruction_is_the_reference_to_rounding(self, grid):
        # points out to |x| = 16, with the phase out to 16 pi / dp
        rng = np.random.default_rng(7)
        v = rng.normal(size=(64, 3))
        x = v / np.linalg.norm(v, axis=1, keepdims=True) * np.linspace(0.0, 16.0, 64)[:, None]
        atoms = grid_atoms(grid)
        expected = inverse_radon(atoms, x)
        tol = 1e-14 if grid.sphere.n == 128 else 1e-13  # noise tables: phases up to 270 rad
        assert np.max(np.abs(inverse_radon(grid, x) - expected)) <= tol * np.max(np.abs(expected))
        for half in (canonical_hemisphere(), canonical_hemisphere().complement()):
            ref = hemisphere_inverse(atoms, half, x)
            assert np.max(np.abs(hemisphere_inverse(grid, half, x) - ref)) <= tol * np.max(np.abs(ref))

    @pytest.mark.parametrize("n_p", [2, 4, 8])
    def test_reconstruction_of_short_grids(self, n_p):
        # p0 = 0.3: the Nyquist halves carry different shifts e^{-+i pi p0 / dp}
        grid = replace(noise_grid(sphere_quadrature(4, 8, antipodal=True), seed=n_p, n_p=n_p),
                       p=0.3 + 0.5 * np.arange(n_p))
        x = np.random.default_rng(11).uniform(-4.0, 4.0, size=(16, 3))
        expected = inverse_radon(grid_atoms(grid), x)
        assert np.max(np.abs(inverse_radon(grid, x) - expected)) <= (
            1e-14 * np.max(np.abs(expected)))

    def test_batch_rows_are_their_one_point_calls_bit_for_bit(self, grid):
        # 300 points span four point chunks of the default grid
        x = np.random.default_rng(8).uniform(-16.0, 16.0, size=(300, 3))
        half = canonical_hemisphere()
        for g in (grid, replace(grid, samples=grid.samples[..., 2])):
            for call in (lambda y: inverse_radon(g, y), lambda y: hemisphere_inverse(g, half, y)):
                single = np.array([call(xi) for xi in x])
                for n in (1, 2, 85, 86, 300):
                    assert call(x[:n]).tobytes() == single[:n].tobytes(), n

    def test_hemisphere_inverse_is_the_full_inverse_to_rounding(self):
        grid = cli_default_grid()
        x = GAUSS_CENTER + np.random.default_rng(9).uniform(-1.0, 1.0, size=(64, 3))
        full = inverse_radon(grid, x)
        for half in (canonical_hemisphere(), canonical_hemisphere().complement()):
            assert np.max(np.abs(hemisphere_inverse(grid, half, x) - full)) <= (
                1e-14 * np.max(np.abs(full)))


class TestGridView:
    def test_grid_view_is_closed_under_parity_on_antipodal_spheres(self):
        grid = numeric_gaussian_grid(sphere_quadrature(4, 8, antipodal=True))
        view = grid_atoms(grid)
        assert view.frequencies.size == (32 + 1) * grid.sphere.n
        assert grid.table[0].size == 32 + 1
        assert grid.parity_defect() == view.parity_defect() < 1e-15 * np.max(np.abs(grid.samples))
        # an odd azimuth count leaves nodes without an antipode
        sphere = sphere_quadrature(4, 5)
        odd = GridProfile(p=grid.p, sphere=sphere, samples=np.ones((32, sphere.n, 3)))
        assert odd.parity_defect() == grid_atoms(odd).parity_defect() == np.inf

    def test_grid_arrays_are_read_only_copies_and_the_table_is_cached(self):
        sphere = sphere_quadrature(4, 8, antipodal=True)
        p, samples = -4.0 + 8.0 * np.arange(16) / 16, np.ones((16, sphere.n, 3), dtype=complex)
        grid = GridProfile(p=p, sphere=sphere, samples=samples)
        p[3], samples[2, 1, 0] = 9.0, 5.0  # the caller's arrays are not the grid's
        assert grid.p[3] == -2.5 and grid.samples[2, 1, 0] == 1.0
        table = grid.table
        assert grid.table is table
        for value in (grid.p, grid.samples) + table:
            with pytest.raises(ValueError, match="read-only"):
                value[0] = 0.0
        # a resampled grid is a new grid with its own table
        assert replace(grid, samples=2.0 * grid.samples).table is not table

    def test_an_interpolant_that_overflows_is_refused(self):
        sphere = sphere_quadrature(4, 8, antipodal=True)
        p = -4.0 + 8.0 * np.arange(16) / 16
        grid = GridProfile(p=p, sphere=sphere, samples=np.full((16, sphere.n, 3), 1e308))
        with np.errstate(over="ignore", invalid="ignore"):
            for call in (grid.parity_defect, lambda: gamma_apply(grid, "cross"),
                         lambda: inverse_radon(grid, EZ)):
                with pytest.raises(ValueError, match="interpolant is not finite"):
                    call()

    def test_hemisphere_inverse_of_a_numeric_grid(self):
        grid = numeric_gaussian_grid(sphere_quadrature(6, 12, antipodal=True))
        x = GAUSS_CENTER + np.random.default_rng(40).uniform(-0.5, 0.5, size=(4, 3))
        full = inverse_radon(grid, x)
        scale = np.max(np.abs(full))
        hemi = canonical_hemisphere()
        for half in (hemi, hemi.complement()):
            assert np.max(np.abs(hemisphere_inverse(grid, half, x) - full)) < 1e-14 * scale
        exact = gaussian_test_field(GAUSS_CENTER, 1.0, (1.0, -0.5, 0.25))(x)
        assert np.max(np.abs(full - exact)) < 5e-4 * scale  # the sphere rule limits it

    def test_gamma_is_zero_in_the_nyquist_bin(self):
        sphere = sphere_quadrature(4, 8, antipodal=True)
        v = np.random.default_rng(41).normal(size=(sphere.n, 3))
        for p0 in (-8.0, 0.3):
            p = p0 + 0.5 * np.arange(32)
            grid = GridProfile(p=p, sphere=sphere,
                               samples=(-1.0) ** np.arange(32)[:, None, None] * v)
            assert np.max(np.abs(gamma_apply(grid, "cross").samples)) < 1e-13


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
        # a grid with no node in the hemisphere, and a grid at no points
        grid = noise_grid(sphere_quadrature(4, 8, antipodal=True), n_p=8)
        out = hemisphere_inverse(grid, nowhere, x)
        assert out.shape == (5, 3) and not np.any(out)
        assert inverse_radon(grid, np.zeros((0, 3))).shape == (0, 3)


def cap_swapped_hemisphere(axis, cos_cap) -> Hemisphere:
    """A disconnected hemisphere: the canonical one with membership flipped
    inside the antipodally symmetric double cap |kappa . axis| > cos_cap,
    which keeps one of each antipodal pair."""
    base, ax = canonical_hemisphere().indicator, as_direction(axis)
    return Hemisphere(indicator=lambda k: base(k) ^ (np.abs(k @ ax) > cos_cap))


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
        assert (inverted.nu, inverted.mu, inverted.g) == (asd.nu, asd.mu, asd.g)

    @pytest.mark.parametrize("mu", [1, -1], ids=["self-dual", "anti-self-dual"])
    def test_antipodal_image_is_an_eigenprofile_of_its_own_mu(self, mu):
        # the mode field of the duality_antipodal record; the image of a
        # self-dual transform is anti-self-dual, and the reverse
        mapped = antipodal_profile(radon_mode_analytic(
            verify._mode_field(3, seed=verify.SEED + 28, mu=mu)))
        assert mapped.mu == -mu
        scale = np.max(np.abs(mapped.amplitudes))
        assert gamma_cross_eigendefect(mapped) <= 1e-14 * scale
        assert rbs_eigendefect(mapped) <= 1e-14 * scale

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

    @pytest.mark.parametrize("n_ring", [6.0, 8.5, "8", None, True, 2, 7, -4])
    def test_rejects_ring_size_that_is_not_an_even_integer_of_at_least_4(self, n_ring):
        # a float reached np.full as a shape, and numpy raised TypeError
        with pytest.raises(ValueError, match="^n_ring must be an even integer >= 4, got"):
            lundquist_radon_profile(1.0, 1.0, n_ring=n_ring)

    @pytest.mark.parametrize("f0, nu", [(1.0, 1e-170), (1.0, 1e200), (0.0, -1e-170),
                                        (1e-300, 1e100), (1e300, 1e-10)])
    def test_refuses_nu_whose_inverse_square_leaves_the_floats(self, f0, nu):
        # the float nu**2 underflowed to a ZeroDivisionError, or overflowed
        with pytest.raises(ValueError, match=re.escape(f"nu = {nu!r} leaves f0 / nu^2 outside")):
            lundquist_radon_profile(f0, nu)

    @pytest.mark.parametrize("nu", [1e-200, 1e-160, 1e200])
    def test_mode_transform_refuses_nu_whose_square_leaves_the_floats(self, nu):
        # numpy's divide-by-zero and overflow warnings came first at 1e-200
        with pytest.raises(ValueError, match=re.escape(f"nu = {nu!r} leaves sqrt(2 pi)")):
            radon_mode_analytic(single_mode(nu=nu))

    def test_accepts_numpy_integer_ring_size(self):
        prof = lundquist_radon_profile(1.0, 1.0, n_ring=np.int64(8))
        assert profile_to_json(prof) == profile_to_json(lundquist_radon_profile(1.0, 1.0, n_ring=8))


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

    @pytest.mark.parametrize("omega", [0.0, np.nan, np.inf])
    def test_scalar_wave_needs_finite_nonzero_omega(self, omega):
        # a ValueError, where omega = 0 divided by zero
        with pytest.raises(ValueError, match="omega must be finite and nonzero"):
            scalar_wave_profile(random_direction(34), omega)


@pytest.mark.parametrize("call, match", [
    (lambda fn: radon.validate_p_grid([0.0, np.inf]), "^p must be finite, got array"),
    (lambda fn: radon_forward_grid(fn, [0.0, np.nan], sphere_quadrature(2, 4), PLANE),
     "^p must be finite"),
    (lambda fn: radon_forward_numeric(fn, np.nan, EZ, PLANE), "^p must be finite, got nan"),
    (lambda fn: radon_forward_numeric(fn, [0.5, -np.inf], EZ, PLANE), "^p must be finite"),
    (lambda fn: spherical_curl_transform(radon_mode_analytic(single_mode()), EZ, p=np.nan),
     "^p must be finite"),
    (lambda fn: lundquist_radon_profile(1.0, np.nan), "^nu must be finite and nonzero"),
    (lambda fn: lundquist_radon_profile(1.0, 0.0), "^nu must be finite and nonzero"),
    (lambda fn: lundquist_radon_profile(np.inf, 1.0), "^f0 must be finite"),
    (lambda fn: gamma_cross_eigendefect(replace(lundquist_radon_profile(1.0, 1.0), nu=np.nan)),
     "^nu must be finite and nonzero"),
    (lambda fn: gamma_cross_eigendefect(replace(lundquist_radon_profile(1.0, 1.0), nu=0.0)),
     "^nu must be finite and nonzero"),
], ids=["p-grid-inf", "forward-grid-nan", "forward-nan", "forward-minus-inf",
        "curl-transform-p", "lundquist-nu-nan", "lundquist-nu-zero", "lundquist-f0",
        "eigendefect-nu-nan", "eigendefect-nu-zero"])
def test_names_a_bad_scalar_parameter_before_any_work(call, match):
    # a ValueError through the one check, naming the parameter, where the p-grid
    # passed with a RuntimeWarning, NaN gave NaN results or a whole plane was
    # evaluated first, and NaN frequencies were reported as bad atoms
    calls = []

    def fn(x):
        calls.append(len(x))
        return gaussian_scalar()(x)

    with pytest.raises(ValueError, match=match):
        call(fn)
    assert calls == []


ATOM_ARRAYS = ("directions", "frequencies", "amplitudes", "weights")


def _debye_choice():
    ring = lundquist_radon_profile(1.0, 1.3, n_ring=8)
    tones = [ScalarTone(d, f, 0.5 - 0.25j) for d, f in zip(ring.directions, ring.frequencies)]
    return DebyeChoice(tones, (0.3, -0.2, 0.9), 1.3)


class TestDerivedProfiles:
    # each operator with the parent profile it derives from and the arrays it computes
    OPERATORS = {
        "gamma_apply": (lambda p: gamma_apply(p, "cross"), None, ("amplitudes",)),
        "radon_riesz": (radon_riesz, None, ("amplitudes",)),
        "rbs_apply": (rbs_apply, None, ("amplitudes",)),
        "antipodal_profile": (antipodal_profile, None, ("directions",)),
        "radon_of_hemisphere_inverse": (
            lambda p: radon_of_hemisphere_inverse(p, canonical_hemisphere()), None, ATOM_ARRAYS),
        "ck_transform_solution": (ck_transform_solution, "tones", ("amplitudes",)),
        "ck_transform_potential": (ck_transform_potential, "tones", ("amplitudes",)),
    }

    @pytest.mark.parametrize("name", OPERATORS)
    def test_computed_arrays_are_read_only_and_the_others_shared(self, name):
        operator, parent_of, computed = self.OPERATORS[name]
        arg = _debye_choice() if parent_of else lundquist_radon_profile(1.0, 1.3, n_ring=8)
        parent = getattr(arg, parent_of) if parent_of else arg
        derived = operator(arg)
        mu = -parent.mu if name == "antipodal_profile" else parent.mu  # the map is improper
        assert (derived.nu, derived.mu, derived.g) == (parent.nu, mu, parent.g)
        for array in ATOM_ARRAYS:
            value = getattr(derived, array)
            assert not value.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                value[0] = 0.0
            assert (value is getattr(parent, array)) == (array not in computed)

    def test_a_derived_profile_rejects_what_it_computes(self):
        # the products overflow: i omega kappa x a, and a / omega^2 at omega = 1e-5
        huge = AnalyticProfile([EZ], [1e10], [[1e300, 0.0, 0.0]], [1.0], nu=1.0)
        slow = AnalyticProfile([EZ], [1e-5], [[1e300, 2.0, 0.0]], [1.0], nu=1.0)
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            for call in (lambda: gamma_apply(huge, "cross"), lambda: rbs_apply(slow)):
                with pytest.raises(ValueError, match="frequencies and amplitudes must be finite"):
                    call()

    def test_row_classes_are_frozen_slots(self):
        rows = (lundquist_radon_profile(1.0, 1.3, n_ring=4).atoms[0], OmegaAtom(EZ, EZ),
                HelicityMode(lam=1, nu=1.0, kappa0=EZ, amplitude=1.0))
        for row, field in zip(rows, ("frequency", "vector", "nu")):
            assert not hasattr(row, "__dict__")
            with pytest.raises(FrozenInstanceError):
                setattr(row, field, 0.0)
            # a name that is no field: TypeError on Python 3.11, whose frozen
            # __setattr__ calls super() with the class slots=True replaced
            with pytest.raises((FrozenInstanceError, TypeError)):
                row.new_attribute = 0.0
            assert not hasattr(row, "new_attribute")


@pytest.mark.parametrize("call", [
    lambda profile: spherical_curl_transform(profile, [1.0, 0.0, 0.0]),
    gamma_cross_eigendefect, rbs_eigendefect], ids=["curl-transform", "gamma", "rbs"])
@pytest.mark.parametrize("name, value, match", [
    ("nu", np.nan, "^nu must be finite and nonzero"), ("nu", 0.0, "^nu must be finite and nonzero"),
    ("mu", 7, r"^mu must be \+1 or -1, got 7"), ("mu", 0, r"^mu must be \+1 or -1, got 0"),
    ("g", np.inf, "^g must be finite and positive"), ("g", -1.0, "^g must be finite and positive")])
def test_readers_of_nu_mu_and_g_check_them_before_any_work(monkeypatch, call, name, value, match):
    # NaN results, a RuntimeWarning, finite values for mu = 7 or a bare
    # ZeroDivisionError before, as the constructor checks none of the three
    profile = replace(lundquist_radon_profile(1.0, 1.0, n_ring=8), **{name: value})
    work = []
    for module, attr in ((radon, "as_direction"), (radon, "gamma_apply"), (rbs, "rbs_apply")):
        monkeypatch.setattr(module, attr, lambda *args, attr=attr: work.append(attr))
    with pytest.raises(ValueError, match=match):
        call(profile)
    assert work == []


def _to_per_atom_records(payload):
    """Rewrite a vector profile payload in the older layout of one record per atom."""
    columns = {key: payload.pop(key) for key in
               ("amplitude_im", "amplitude_re", "direction", "frequency", "weight")}
    payload["atoms"] = [{"amplitude_im": columns["amplitude_im"][3 * i:3 * i + 3],
                         "amplitude_re": columns["amplitude_re"][3 * i:3 * i + 3],
                         "direction": columns["direction"][3 * i:3 * i + 3],
                         "frequency": f, "weight": w}
                        for i, (f, w) in enumerate(zip(columns["frequency"], columns["weight"]))]


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

    @pytest.mark.parametrize("name, value", [
        ("nu", float("nan")), ("nu", 0.0), ("nu", float("inf")), ("mu", 0), ("mu", 2),
        ("g", 0.0), ("g", -1.0), ("g", float("nan"))])
    def test_profile_json_rejects_bad_scalars_by_name(self, name, value):
        payload = json.loads(profile_to_json(lundquist_radon_profile(1.0, 1.3, n_ring=4)))
        payload[name] = value
        with pytest.raises(ValueError, match=f"^{name} must be"):
            profile_from_json(json.dumps(payload))

    @pytest.mark.parametrize("edit, match", [
        (lambda p: p.pop("weight"), "^weight must be a flat list of numbers, got None$"),
        (lambda p: p.update(frequency=1.5), "^frequency must be a flat list of numbers, got 1.5$"),
        (lambda p: p["direction"].__setitem__(2, "x"),
         r"^direction must be a flat list of numbers, got \[.*'x'"),
        (lambda p: p["weight"].__setitem__(0, None),
         r"^weight must be a flat list of numbers, got \[None"),
        (lambda p: p.update(amplitude_re=[p["amplitude_re"][:3], p["amplitude_re"][3:6]]),
         r"^amplitude_re must be a flat list of numbers, got \[\["),
        (lambda p: p.update(direction=[p["direction"][:3], p["direction"][3:5]]),
         r"^direction must be a flat list of numbers, got \[\["),
        (lambda p: p["direction"].pop(), "^direction must hold 3 n numbers, got 23 for n = 8"),
        (lambda p: p["weight"].append(1.0), "^weight must hold n numbers, got 9 for n = 8"),
        (lambda p: p["amplitude_im"].pop(),
         "^amplitude_im must hold as many numbers as amplitude_re"),
        (lambda p: p.update(amplitude_re=p["amplitude_re"][:16],
                            amplitude_im=p["amplitude_im"][:16]),
         "^amplitude_re must hold n or 3 n numbers, got 16 for n = 8"),
        (lambda p: _to_per_atom_records(p),
         "^atoms: the text holds per-atom 'atoms' records, not the columns"),
    ], ids=["missing", "non-list", "string", "null", "nested", "nested-ragged",
            "direction-short", "weight-long", "amplitude-parts", "width-2", "per-atom-file"])
    def test_profile_json_names_a_malformed_column(self, edit, match):
        # a bare KeyError or numpy's "inhomogeneous shape" message otherwise
        payload = json.loads(profile_to_json(lundquist_radon_profile(1.0, 1.3, n_ring=4)))
        assert len(payload["frequency"]) == 8
        edit(payload)
        with pytest.raises(ValueError, match=match):
            profile_from_json(json.dumps(payload))

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
        grid = radon_forward_grid(f, p, sphere, PLANE)
        text = grid_to_csv(grid)
        # %.17g round-trips every float exactly, and CRLF line ends read the same
        for csv in (text, text.replace("\n", "\r\n")):
            back = grid_from_csv(csv, sphere)
            assert back.p.tobytes() == grid.p.tobytes()
            assert back.samples.tobytes() == grid.samples.tobytes()
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

    @pytest.mark.parametrize("case", ["swapped", "empty", "cr_line_ends"])
    def test_grid_csv_reads_its_header(self, case):
        # a 10-column text under another header is no grid: here re_fx and im_fx
        # are swapped and relabelled, which the data rows alone cannot show
        sphere = sphere_quadrature(4, 8, antipodal=True)
        p = -4.0 + 8.0 * np.arange(16) / 16
        rng = np.random.default_rng(31)
        samples = rng.normal(size=(16, sphere.n, 3)) + 1j * rng.normal(size=(16, sphere.n, 3))
        text = grid_to_csv(GridProfile(p=p, sphere=sphere, samples=samples))
        if case == "swapped":
            rows = [line.split(",") for line in text.splitlines()]
            text = "\n".join(",".join(r[:4] + [r[5], r[4]] + r[6:]) for r in rows) + "\n"
            assert text.startswith("p,kx,ky,kz,im_fx,re_fx,")
        else:
            text = {"empty": "", "cr_line_ends": text.replace("\n", "\r")}[case]
        with pytest.raises(ValueError, match="header"):
            grid_from_csv(text, sphere)

    def test_grid_csv_read_peaks_near_twice_the_text(self):
        # the reader holds the text's lines and the parsed table, about 1.8x
        # the text; a 4-byte-per-character copy of the text would take 4.5x
        sphere = sphere_quadrature(8, 16, antipodal=True)
        assert sphere.n == 128
        p = -8.0 + 16.0 * np.arange(64) / 64
        rng = np.random.default_rng(64)
        samples = rng.normal(size=(64, sphere.n, 3)) + 1j * rng.normal(size=(64, sphere.n, 3))
        text = grid_to_csv(GridProfile(p=p, sphere=sphere, samples=samples))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            back = grid_from_csv(text, sphere)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert back.samples.tobytes() == samples.tobytes()
        assert peak <= 2.5 * len(text)

    @pytest.mark.parametrize("row, cell", [(2, "123.5"), (3, "nan"), (8 * 32 + 3, "-0")])
    def test_grid_csv_rejects_a_row_off_its_blocks_p(self, row, cell):
        # every p cell is read, not only each block's first; -0 is not 0 bit for bit
        sphere = sphere_quadrature(4, 8, antipodal=True)
        p = -4.0 + 8.0 * np.arange(16) / 16
        lines = grid_to_csv(GridProfile(p=p, sphere=sphere,
                                        samples=np.ones((16, sphere.n, 3)))).splitlines()
        assert sphere.n == 32 and lines[1 + 8 * 32 + 3].startswith("0,")  # block 8, p = 0.0
        cells = lines[1 + row].split(",")
        cells[0] = cell
        lines[1 + row] = ",".join(cells)
        with pytest.raises(ValueError, match=f"CSV row {row} has p = "):
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
  "amplitude_im": [
    1e-20,
    -2.5,
    0.0,
    0.0,
    0.0,
    -7.0
  ],
  "amplitude_re": [
    0.1,
    -0.0,
    0.3333333333333333,
    1e+300,
    0.0,
    -0.0
  ],
  "direction": [
    0.6,
    0.0,
    0.8,
    -0.6,
    -0.0,
    -0.8
  ],
  "frequency": [
    1.5,
    -1.5
  ],
  "g": 0.25,
  "mu": -1,
  "nu": 1.5,
  "weight": [
    1.0,
    0.5
  ]
}"""
