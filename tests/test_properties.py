"""Property tests of the atom identities over random mode and ring profiles.

Examples are derandomized and no example database is written, so the suite
stays deterministic.  Directions include the band 1 + kz < POLE_TOL where the
helicity frame switches branch.  Where a vectorized routine replaced a
loop or a library encoder, the replaced version is kept here as the
reference.
"""

import json
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.configuration import set_hypothesis_home_dir
from test_radon import cap_swapped_hemisphere

from trkalian.cktransform import (DebyeChoice, OmegaAtom, ScalarTone, ck_transform_potential,
                                  ck_transform_solution, reconstruct_physical)
from trkalian.core import PlaneQuadrature, as_direction, cross, plane_wave_sum, sphere_quadrature
from trkalian.fields import HelicityMode, ModeField, eval_mode_field, gaussian_test_field
from trkalian.moses import POLE_TOL, frame_index_of, moses_frame
from trkalian.radon import (FLOAT_FMT, GRID_CSV_HEADER, AnalyticProfile, antipodal_profile,
                            canonical_hemisphere, format_csv, gamma_apply,
                            gamma_cross_eigendefect, grid_to_csv,
                            hemisphere_inverse, inverse_radon, lundquist_radon_profile,
                            profile_from_json, profile_to_json, radon_forward_grid,
                            radon_mode_analytic, radon_of_hemisphere_inverse)
from trkalian.rbs import rbs_eigendefect

SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=40)
EXACT = 1e-12

# Hypothesis caches the constants of the source files it sees while pytest
# collects the tests; keep that cache in a directory removed at exit instead
# of writing .hypothesis/ into the checkout.
_HYPOTHESIS_HOME = tempfile.TemporaryDirectory(prefix="hypothesis-")
set_hypothesis_home_dir(_HYPOTHESIS_HOME.name)


def _direction(kz, phi):
    s = np.sqrt(max(0.0, 1.0 - kz * kz))
    return np.array([s * np.cos(phi), s * np.sin(phi), kz])


kz_values = st.one_of(st.floats(-1.0, 1.0),
                      st.floats(0.0, 0.9 * POLE_TOL).map(lambda d: -1.0 + d))
directions = st.builds(_direction, kz_values, st.floats(0.0, 2.0 * np.pi))
complex_amplitudes = st.builds(complex, st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)).filter(
    lambda z: abs(z) > 1e-3)
eigenvalues = st.one_of(st.floats(0.3, 3.0), st.floats(-3.0, -0.3))


@st.composite
def mode_profiles(draw):
    nu = draw(eigenvalues)
    mu = draw(st.sampled_from([1, -1]))
    lam = 1 if mu * nu > 0 else -1
    kappas = []
    for k in draw(st.lists(directions, min_size=1, max_size=8)):
        # distinct modes, so that every atom is a distinct (direction, tone)
        if all(np.linalg.norm(k - other) > 1e-6 for other in kappas):
            kappas.append(k)
    modes = tuple(HelicityMode(lam=lam, nu=nu, kappa0=k,
                               amplitude=draw(complex_amplitudes), mu=mu)
                  for k in kappas)
    return radon_mode_analytic(ModeField(modes=modes))


@st.composite
def ring_profiles(draw):
    return lundquist_radon_profile(draw(st.floats(0.2, 2.0)), draw(eigenvalues),
                                   n_ring=2 * draw(st.integers(2, 24)))


profiles = st.one_of(mode_profiles(), ring_profiles())


def amplitude_scale(profile):
    return float(np.max(np.abs(profile.amplitudes)))


@SETTINGS
@given(profiles)
def test_transversality(profile):
    assert profile.transverse_defect() <= EXACT * amplitude_scale(profile)


@SETTINGS
@given(profiles)
def test_gamma_eigenrelation(profile):
    scale = abs(profile.nu) * amplitude_scale(profile)
    assert gamma_cross_eigendefect(profile) <= EXACT * scale


@SETTINGS
@given(profiles)
def test_rbs_reciprocal_eigenvalue(profile):
    scale = amplitude_scale(profile) / abs(profile.nu)
    assert rbs_eigendefect(profile) <= EXACT * scale


@SETTINGS
@given(profiles)
def test_antipodal_duality(profile):
    mapped = antipodal_profile(profile)
    assert np.array_equal(mapped.directions, -profile.directions)
    assert np.array_equal(mapped.frequencies, profile.frequencies)
    assert np.array_equal(mapped.amplitudes, profile.amplitudes)
    # the antipodal map flips the transform-space eigenvalue
    flipped = gamma_apply(mapped, "cross").amplitude_distance(
        mapped, -profile.mu * profile.nu)
    assert flipped <= EXACT * abs(profile.nu) * amplitude_scale(profile)


@SETTINGS
@given(profiles, directions, st.lists(st.floats(-2.0, 2.0), min_size=3, max_size=3))
def test_hemisphere_refinement(profile, axis, point):
    x = np.array(point) / abs(profile.nu)
    scale = float(np.sum(profile.weights * profile.frequencies**2
                         * np.max(np.abs(profile.amplitudes), axis=1))) / (4.0 * np.pi**2)
    full = inverse_radon(profile, x)
    for hemi in (canonical_hemisphere(), cap_swapped_hemisphere(axis, 0.8)):
        for half in (hemi, hemi.complement()):
            assert np.max(np.abs(hemisphere_inverse(profile, half, x) - full)) <= EXACT * scale
        # genuine transforms come back as the same atom set
        back = radon_of_hemisphere_inverse(profile, hemi)
        assert len(back.atoms) == len(profile.atoms)
        index = back.index_of(profile.directions, profile.frequencies)
        assert np.all(index >= 0)
        assert np.max(np.abs(back.amplitudes[index] - profile.amplitudes)) <= EXACT * scale


@SETTINGS
@given(profiles)
def test_json_round_trip(profile):
    text = profile_to_json(profile)
    back = profile_from_json(text)
    assert (back.nu, back.mu, back.g) == (profile.nu, profile.mu, profile.g)
    for name in ("directions", "frequencies", "amplitudes", "weights"):
        assert np.array_equal(getattr(back, name), getattr(profile, name))
    assert profile_to_json(back) == text  # signed zeros survive too


# ---------------------------------------------------------------------------
# the JSON template writer against the encoder it replaced
# ---------------------------------------------------------------------------

def profile_to_json_reference(profile):
    """json.dumps(indent=2, sort_keys=True) over the flat row-major columns."""
    payload = {
        "nu": profile.nu,
        "mu": profile.mu,
        "g": profile.g,
        "direction": profile.directions.ravel().tolist(),
        "frequency": profile.frequencies.tolist(),
        "weight": profile.weights.tolist(),
        "amplitude_re": profile.amplitudes.real.ravel().tolist(),
        "amplitude_im": profile.amplitudes.imag.ravel().tolist(),
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def _profile(directions, frequencies, amplitudes, weights=None, nu=1.0, **scalars):
    n = len(frequencies)
    return AnalyticProfile(directions=np.reshape(directions, (n, 3)), frequencies=frequencies,
                           amplitudes=amplitudes,
                           weights=np.ones(n) if weights is None else weights, nu=nu, **scalars)


SOUTH = np.array([0.0, -0.0, -1.0])
JSON_CASES = {
    "vector": lambda: lundquist_radon_profile(1.1, -0.7, n_ring=8),
    "scalar": lambda: _profile([[0.6, 0.0, 0.8], [-0.6, 0.0, -0.8]], [2.5, -2.5],
                               [1.5 - 0.25j, 1e-300 + 3e17j], [0.5, 1e-7], nu=2.5, g=4),
    "empty-vector": lambda: _profile([], [], np.zeros((0, 3))),
    "empty-scalar": lambda: _profile([], [], np.zeros(0), mu=-1),
    "signed-zeros": lambda: _profile([SOUTH, -SOUTH], [-0.0, 0.0],
                                     [[complex(-0.0, 0.0), complex(0.0, -0.0), -0.0 - 0.0j]] * 2,
                                     nu=-0.0, g=-0.0),
    "south-pole-modes": lambda: radon_mode_analytic(ModeField(modes=(
        HelicityMode(lam=-1, nu=-1.3, kappa0=SOUTH, amplitude=0.5 - 2j),
        HelicityMode(lam=-1, nu=-1.3, kappa0=[np.sqrt(1 - 0.9999**2), 0.0, -0.9999],
                     amplitude=1 / 3)))),
}


@pytest.mark.parametrize("name", JSON_CASES)
def test_json_round_trip_is_bit_exact_on_every_shape(name):
    profile = JSON_CASES[name]()
    if name == "signed-zeros":  # the reader refuses its nu = g = -0.0, not its arrays
        profile = _profile(profile.directions, profile.frequencies, profile.amplitudes)
    text = profile_to_json(profile)
    back = profile_from_json(text)
    assert profile_to_json(back) == text
    # the width is len(amplitude_re) / len(frequency); no atoms read back as width 3
    assert back.amplitudes.shape == (profile.amplitudes.shape if profile.frequencies.size
                                     else (0, 3))
    for attr in ("directions", "frequencies", "amplitudes", "weights"):
        assert getattr(back, attr).tobytes() == getattr(profile, attr).tobytes()


@pytest.mark.parametrize("name", JSON_CASES)
def test_json_text_equals_reference_encoder(name):
    profile = JSON_CASES[name]()
    assert profile_to_json(profile) == profile_to_json_reference(profile)


finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def any_profiles(draw):
    n = draw(st.integers(0, 6))
    width = draw(st.sampled_from([3, 1]))
    amplitudes = draw(st.lists(st.builds(complex, finite, finite),
                               min_size=n * width, max_size=n * width))
    return AnalyticProfile(
        directions=np.reshape([draw(directions) for _ in range(n)], (n, 3)),
        frequencies=draw(st.lists(finite, min_size=n, max_size=n)),
        amplitudes=np.reshape(np.array(amplitudes, dtype=complex), (n, 3) if width == 3 else n),
        weights=draw(st.lists(st.floats(5e-324, 1e300), min_size=n, max_size=n)),
        nu=draw(finite), mu=draw(st.sampled_from([1, -1])), g=draw(finite))


@SETTINGS
@given(st.one_of(profiles, any_profiles()))
def test_json_text_equals_reference_encoder_on_any_profile(profile):
    assert profile_to_json(profile) == profile_to_json_reference(profile)


# ---------------------------------------------------------------------------
# the CSV template writer against the per-row writer it replaced
# ---------------------------------------------------------------------------

def format_csv_reference(header, columns, values):
    """FLOAT_FMT applied to every cell, one row at a time."""
    table, values = np.asarray(columns, dtype=float), np.asarray(values)
    table = np.column_stack([table, np.stack([values.real, values.imag], axis=-1)
                             .reshape(len(table), 2 * values.shape[1])])
    row = ",".join([FLOAT_FMT] * table.shape[1])
    return "\n".join([header] + [row % tuple(r) for r in table.tolist()]) + "\n"


def _bits(*words):
    return np.array(words, dtype=np.uint64).view(float).tolist()


# signed zeros, subnormals, infinities, NaNs with other sign and payload bits,
# the extreme exponents and values whose 17-digit text is long
SPECIAL_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, np.inf, -np.inf,
                  np.nan, *_bits(0xFFF8000000000000, 0x7FF8000000000001, 0x7FF0000000000001),
                  1.7976931348623157e308, -1e-300, 1e300, 0.1, -1 / 3, 1.0, 2.0**-1074 * 3]
csv_floats = st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats())


@st.composite
def csv_tables(draw):
    """(columns, values): a small pool of floats drawn many times, so that
    values repeat, with no value columns, real values or complex values."""
    n = draw(st.integers(0, 12))
    m = draw(st.integers(1, 4))
    k = draw(st.integers(0, 3))
    specials = draw(st.permutations(SPECIAL_FLOATS))
    pool = draw(st.lists(csv_floats, min_size=1, max_size=6)) + specials[
        :draw(st.integers(0, len(specials)))]
    cells = st.lists(st.sampled_from(pool), min_size=n * m + 2 * n * k,
                     max_size=n * m + 2 * n * k)
    flat = np.array(draw(cells), dtype=float)
    columns = flat[:n * m].reshape(n, m)
    if k == 0:
        return columns, np.zeros((n, 0), dtype=complex)
    values = np.empty((n, k), dtype=complex)
    values.real = flat[n * m:n * m + n * k].reshape(n, k)
    values.imag = flat[n * m + n * k:].reshape(n, k)
    return columns, values if draw(st.booleans()) else values.real


@SETTINGS
@given(csv_tables())
def test_csv_text_equals_per_row_writer(table):
    columns, values = table
    assert format_csv("a,b", columns, values) == format_csv_reference("a,b", columns, values)


@pytest.mark.parametrize("center", [(0.0, 0.0, 0.0), (0.5, -0.25, 0.1)],
                         ids=["centred", "interior"])
def test_grid_csv_equals_per_row_writer(center):
    sphere = sphere_quadrature(4, 8, antipodal=True)
    grid = radon_forward_grid(gaussian_test_field(center, 1.0, (1.0, 0.0, 0.0)),
                              -8.0 + np.arange(16), sphere, PlaneQuadrature(8.0))
    directions = np.column_stack([np.repeat(grid.p, sphere.n), np.tile(sphere.nodes, (16, 1))])
    samples = grid.samples.reshape(-1, 3)
    cells = np.column_stack([directions, samples.real, samples.imag])
    assert np.unique(cells).size < cells.size / 2  # the shared planes repeat values
    assert grid_to_csv(grid) == format_csv_reference(GRID_CSV_HEADER, directions, samples)


@pytest.mark.parametrize("values", [np.zeros((0, 0), complex), np.zeros((0, 3), complex),
                                    np.zeros((0, 2))],
                         ids=["columns", "complex", "real"])
def test_csv_of_no_rows_is_the_header_line(values):
    assert format_csv("a,b,c", np.zeros((0, 3)), values) == "a,b,c\n"
    assert format_csv_reference("a,b,c", np.zeros((0, 3)), values) == "a,b,c\n"


def test_csv_columns_are_told_apart_by_bits_not_shared_across_columns():
    """One float in several columns and one column of signed zeros and NaNs of
    both signs: each column's distinct values are its own."""
    rng = np.random.default_rng(5)
    n = 3000
    columns = rng.choice([0.25, -1 / 3, 1e-300], size=(n, 3))
    columns[::7] = 0.25  # the same float in every column of these rows
    signed = np.array([0.0, -0.0, *_bits(0x7FF8000000000000, 0xFFF8000000000000), 0.25])
    values = np.empty((n, 2), complex)
    values.real = signed[rng.integers(0, len(signed), size=(n, 2))]
    values.imag = rng.choice([0.25, -0.0, 1.0], size=(n, 2))
    assert np.signbit(values.real[np.isnan(values.real)]).any()
    assert not np.signbit(values.real[np.isnan(values.real)]).all()
    expected = format_csv_reference("a,b,c,d,e,f,g", columns, values)
    assert format_csv("a,b,c,d,e,f,g", columns, values) == expected
    assert ",-0," in expected and ",0," in expected and ",nan," in expected


# ---------------------------------------------------------------------------
# atom matching against the pairwise search it replaced
# ---------------------------------------------------------------------------

def find_atom_reference(atoms, direction, frequency, tol=1e-9):
    """The first atom within tol, by a linear search over the rows."""
    for j, a in enumerate(atoms):
        if (abs(a.frequency - frequency) < tol
                and np.linalg.norm(a.direction - direction) < tol):
            return j
    return -1


def parity_defect_reference(profile):
    worst = 0.0
    for a in profile.atoms:
        j = find_atom_reference(profile.atoms, -a.direction, -a.frequency)
        if j < 0:
            return np.inf
        worst = max(worst, float(np.max(np.abs(a.amplitude - profile.atoms[j].amplitude))))
    return worst


offsets = st.sampled_from([0.0, 1e-11, 3e-10, 3e-8, 1e-3])


@SETTINGS
@given(profiles, st.lists(st.tuples(st.integers(0, 10**6), offsets, directions), max_size=12),
       st.sampled_from([1e-9, 1e-12]), st.booleans())
def test_index_of_matches_pairwise_search(profile, queries, tol, doubled):
    if doubled:  # every query then has two matches; the lower index wins
        profile = AnalyticProfile(*(np.concatenate([a, a]) for a in (
            profile.directions, profile.frequencies, profile.amplitudes, profile.weights)),
            nu=profile.nu)
    n = len(profile.atoms)
    q_dirs, q_freqs = [], []
    for row, offset, shift in queries:
        atom = profile.atoms[row % n]
        d = atom.direction + offset * shift
        q_dirs.append(d / np.linalg.norm(d))
        q_freqs.append(atom.frequency - offset)
    q_dirs += list(-profile.directions)
    q_freqs += list(-profile.frequencies)
    found = profile.index_of(np.array(q_dirs), np.array(q_freqs), tol=tol)
    expected = [find_atom_reference(profile.atoms, d, f, tol) for d, f in zip(q_dirs, q_freqs)]
    assert found.tolist() == expected


@SETTINGS
@given(profiles, st.integers(0, 10**6))
def test_parity_defect_matches_pairwise_search(profile, drop):
    assert profile.parity_defect() == parity_defect_reference(profile)
    # without one atom its partner is unpaired
    keep = np.arange(len(profile.atoms)) != drop % len(profile.atoms)
    partial = AnalyticProfile(profile.directions[keep], profile.frequencies[keep],
                              profile.amplitudes[keep], profile.weights[keep], nu=profile.nu)
    assert partial.parity_defect() == parity_defect_reference(partial) == np.inf


# ---------------------------------------------------------------------------
# validation at construction
# ---------------------------------------------------------------------------

def corrupt(profile, field, row, value):
    arrays = {name: getattr(profile, name).copy()
              for name in ("directions", "frequencies", "amplitudes", "weights")}
    arrays[field][row % len(profile.frequencies)] = value
    return AnalyticProfile(**arrays, nu=profile.nu, mu=profile.mu, g=profile.g)


@SETTINGS
@given(profiles, st.integers(0, 10**6), st.sampled_from([
    ("frequencies", np.nan), ("frequencies", np.inf), ("amplitudes", np.nan),
    ("amplitudes", complex(0.0, np.inf)), ("directions", np.array([1.0, 1e-5, 0.0])),
    ("directions", np.array([np.nan, 0.0, 1.0])), ("weights", 0.0), ("weights", -1.0),
    ("weights", np.nan), ("weights", np.inf)]))
def test_rejects_invalid_atoms(profile, row, bad):
    field, value = bad
    with pytest.raises(ValueError):
        corrupt(profile, field, row, value)


def test_from_atoms_rebuilds_the_rows():
    profile = lundquist_radon_profile(1.0, 1.3, n_ring=8)
    back = AnalyticProfile.from_atoms(profile.atoms, nu=profile.nu)
    for name in ("directions", "frequencies", "amplitudes", "weights"):
        assert np.array_equal(getattr(back, name), getattr(profile, name))
    assert len(AnalyticProfile.from_atoms((), nu=1.0).atoms) == 0


# ---------------------------------------------------------------------------
# the Debye tone profile against the per-tone stacking it replaced
# ---------------------------------------------------------------------------

def tone_profile_reference(tones, omega, nu, kind):
    """One omega call and one row read per tone, then the Debye amplitude of
    ``kind`` ("toroidal", "solution" or "potential") on the stacked rows."""

    def omega_at(direction):
        if callable(omega):
            return np.asarray(omega(as_direction(direction)), dtype=complex)
        return np.asarray(omega, dtype=complex)

    def amplitude(d, freq, w):
        if kind == "potential":
            return w + (1j * freq / nu) * np.cross(d, w)
        toroidal = 1j * freq * np.cross(d, w)
        if kind == "toroidal":
            return toroidal
        return toroidal - (freq**2 / nu) * np.cross(d, np.cross(d, w))

    d = np.reshape([as_direction(t.direction) for t in tones], (-1, 3))
    f = np.array([t.frequency for t in tones], dtype=float)
    w = np.reshape([omega_at(t.direction) for t in tones], (-1, 3))
    c = np.array([complex(t.amplitude) for t in tones], dtype=complex)[:, None]
    return AnalyticProfile(d, f, c * amplitude(d, f[:, None], w), [t.weight for t in tones],
                           nu=nu)


def assert_same_bits(profile, reference):
    assert (profile.nu, profile.mu, profile.g) == (reference.nu, reference.mu, reference.g)
    for name in ("directions", "frequencies", "amplitudes", "weights"):
        got, want = getattr(profile, name), getattr(reference, name)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


moderate = st.floats(-1e3, 1e3)
complex_vectors = st.lists(st.builds(complex, moderate, moderate), min_size=3, max_size=3)


@st.composite
def debye_inputs(draw):
    nu = draw(eigenvalues)
    n = draw(st.integers(0, 8))
    tones = [ScalarTone(draw(directions), draw(st.sampled_from([nu, -nu])),
                        draw(st.builds(complex, moderate, moderate)),
                        draw(st.floats(1e-3, 10.0)))
             for _ in range(n)]
    a, b = np.array(draw(complex_vectors)), np.array(draw(complex_vectors))
    # a constant omega, or a kappa-dependent one written for one direction
    # (3,) and for the batch (n, 3) alike
    omega = draw(st.sampled_from([a, lambda kappa: np.cross(kappa, a) + kappa[..., 2:] * b]))
    return tones, omega, nu


@SETTINGS
@given(debye_inputs())
def test_debye_profiles_equal_per_tone_reference(inputs):
    tones, omega, nu = inputs
    choice = DebyeChoice(tones, omega, nu)
    assert_same_bits(ck_transform_solution(choice, include_poloidal=False),
                     tone_profile_reference(tones, omega, nu, "toroidal"))
    assert_same_bits(ck_transform_solution(choice),
                     tone_profile_reference(tones, omega, nu, "solution"))
    assert_same_bits(ck_transform_potential(choice),
                     tone_profile_reference(tones, omega, nu, "potential"))


def test_positional_row_constructors():
    # the benchmark workloads build both row types by position
    d = np.array([0.0, 0.6, -0.8])
    tone = ScalarTone(d, -1.5, 0.25 - 2j)
    assert (tone.frequency, tone.amplitude, tone.weight) == (-1.5, 0.25 - 2j, 1.0)
    assert tone.direction is d
    choice = DebyeChoice([tone, ScalarTone(-d, 1.5, 3.0, 0.5)], np.array([1.0, 0.0, 0.0]), 1.5)
    assert np.array_equal(choice.tones.directions, [d, -d])
    assert np.array_equal(choice.tones.frequencies, [-1.5, 1.5])
    assert np.array_equal(choice.tones.amplitudes, [0.25 - 2j, 3.0])
    assert np.array_equal(choice.tones.weights, [1.0, 0.5])
    v = np.array([1.0, 1j, 0.0])
    atom = OmegaAtom(d, v)
    assert atom.direction is d and atom.vector is v


def test_non_unit_omega_direction_rejected_by_reconstruction():
    omega1 = [OmegaAtom([0.0, 0.0, 1.0], [1.0, 1j, 0.0])]
    omega2 = [OmegaAtom([0.0, 0.0, -1.001], [1.0, 1j, 0.0])]
    with pytest.raises(ValueError, match="not unit"):
        reconstruct_physical(omega1, omega2, 1, 1.0, np.zeros(3))


# ---------------------------------------------------------------------------
# mode sums: the stacked arrays of ModeField against one row read per mode
# ---------------------------------------------------------------------------

def _mode_rows_reference(modes):
    """The shared (lam, nu, mu, g) and the kappa0 and amplitude columns read
    mode by mode, as the mode sums read them from the rows."""
    m0 = modes[0]
    kappa0 = np.array([as_direction(m.kappa0) for m in modes])
    amplitudes = np.array([complex(m.amplitude) for m in modes])
    return m0.lam, m0.nu, m0.mu, m0.g, kappa0, amplitudes


def mode_profile_reference(modes):
    lam, nu, mu, g, kappa0, amplitudes = _mode_rows_reference(modes)
    coeff = np.sqrt(2.0 * np.pi) / (g * nu**2) * amplitudes
    amp = coeff[:, None] * moses_frame(kappa0, frame_index_of(lam))
    return AnalyticProfile(
        directions=np.stack([mu * kappa0, -mu * kappa0], axis=1).reshape(-1, 3),
        frequencies=np.tile([lam * nu, -lam * nu], len(modes)),
        amplitudes=np.repeat(amp, 2, axis=0), weights=np.ones(2 * len(modes)),
        nu=nu, mu=mu, g=g)


def mode_field_reference(modes, x):
    lam, nu, mu, g, kappa0, amplitudes = _mode_rows_reference(modes)
    waves = amplitudes[:, None] * moses_frame(kappa0, frame_index_of(lam))
    tones = np.full(len(modes), mu * lam * nu)
    return (2.0 * np.pi) ** -1.5 / g * plane_wave_sum(x, kappa0, tones, waves)


@st.composite
def mode_inputs(draw):
    nu = draw(eigenvalues)
    mu = draw(st.sampled_from([1, -1]))
    lam = 1 if mu * nu > 0 else -1
    g = draw(st.floats(0.1, 10.0))
    kappas = draw(st.lists(st.one_of(directions, st.just(SOUTH)), min_size=1, max_size=8))
    # by position, as the benchmark workloads build them
    modes = tuple(HelicityMode(lam, nu, k, draw(complex_amplitudes), mu, g) for k in kappas)
    x = np.array(draw(st.lists(st.tuples(moderate, moderate, moderate), min_size=1, max_size=6)))
    return modes, x


@SETTINGS
@given(mode_inputs())
def test_mode_sums_equal_per_mode_reference(inputs):
    modes, x = inputs
    field = ModeField(modes=modes)
    assert_same_bits(radon_mode_analytic(field), mode_profile_reference(modes))
    got, want = eval_mode_field(field, x), mode_field_reference(modes, x)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# the componentwise cross product against the np.cross it replaced
# ---------------------------------------------------------------------------

any_floats = st.one_of(st.floats(), st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan]))
any_complex = st.builds(complex, any_floats, any_floats)


@st.composite
def cross_operands(draw):
    """Two operands of shapes (n, 3) or (3,), each real or complex, whose
    entries include signed zeros, infinities and NaN."""
    n = draw(st.integers(1, 5))
    operands = []
    for shape in draw(st.sampled_from([((n, 3), (n, 3)), ((n, 3), (3,)), ((3,), (n, 3)),
                                       ((3,), (3,))])):
        dtype = draw(st.sampled_from([float, complex]))
        size = int(np.prod(shape))
        values = draw(st.lists(any_floats if dtype is float else any_complex,
                               min_size=size, max_size=size))
        operands.append(np.array(values, dtype=dtype).reshape(shape))
    return operands


@settings(SETTINGS, max_examples=100)
@given(cross_operands())
def test_cross_equals_np_cross_bit_for_bit(operands):
    with np.errstate(all="ignore"):  # inf * 0 and inf - inf are NaN in both
        got, want = cross(*operands), np.cross(*operands)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()
