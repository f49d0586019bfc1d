"""Numerical toolkit for constant-curl (Trkalian) vector fields: helicity
frames, Radon transforms and their transform-space calculus, Biot-Savart
operators, and Debye-potential constructions in both spaces."""

from .core import (PlaneQuadrature, SphereQuadrature, as_direction, bessel_j,
                   bessel_j1_first_zero, fd_derivative_oracle, fd_field,
                   plane_basis, sphere_quadrature)
from .moses import (eigenfunction, frame_antipodal_phase, frame_completeness,
                    frame_index_of, frame_metric, helicity_of, moses_frame)
from .fields import (HelicityMode, ModeField, SampledField, ScalarField, abc_field,
                     bessel_j0_scalar, certify_trkalian, ck_circular, ck_field,
                     ck_toroidal, eval_mode_field, gaussian_scalar, gaussian_test_field,
                     lundquist, lundquist_potential, mode_sampled_field)
from .radon import (AnalyticProfile, GridProfile, Hemisphere, RadonAtom,
                    TruncationWarning, adjoint_radon, antipodal_profile,
                    canonical_hemisphere, gamma_apply, gamma_cross_eigendefect,
                    grid_atoms, grid_from_csv, grid_to_csv, hemisphere_inverse,
                    intertwining_check, inverse_radon, lundquist_radon_profile,
                    profile_from_json, profile_to_json, radon_forward_grid,
                    radon_forward_numeric, radon_mode_analytic,
                    radon_of_hemisphere_inverse, scalar_wave_profile,
                    spherical_curl_transform, transform_radon_linear)
from .biotsavart import (BallQuadrature, BoundaryContributionWarning, BoxQuadrature,
                         LundquistBSTerms, TailTruncationWarning, ampere_fluxes,
                         ball_quadrature, box_quadrature, bs_integral,
                         bs_lundquist_semianalytic, bs_lundquist_terms,
                         poisson_angular_moments, poisson_region_match,
                         riesz_potential)
from .rbs import (fourier_slice_check, fourier_slice_pair, gauge_atom, radon_riesz,
                  rbs_apply, rbs_eigendefect, rbs_left_inverse_check)
from .cktransform import (DebyeChoice, OmegaAtom, ScalarTone, abc_omega_atoms,
                          ck_integral_profile, ck_transform_potential,
                          ck_transform_potential_check, ck_transform_solution,
                          oscillator_contour_numeric, oscillator_residue,
                          reconstruct_physical)

__version__ = "0.1.0"
