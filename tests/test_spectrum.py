import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kkbec.errors import DegenerateModeError, StabilityError
from kkbec.model import ModelParams, derive_scales, kk_label, normalized_params
from kkbec.spectrum import (
    bogoliubov_amplitudes,
    continuum_mass_sq,
    dispersion,
    energy_sq,
    kk_tower,
    nonrel_dispersion,
    p5,
    rest_energy_sq,
    rest_energy_sq_mono,
    sound_speed_sq,
    validity_constraint,
)

random_params = st.builds(
    ModelParams,
    st.sampled_from([3, 5, 7, 9, 11]),
    st.floats(0.5, 2.0),
    st.floats(0.5, 2.0),
    st.floats(0.5, 2.0),
    st.floats(-0.5, 0.5),
    st.floats(-0.5, -0.01),
)

mono_random = st.builds(
    lambda n_sp, m, n, u, om: ModelParams(n_sp, m, n, u, -om / n, om),
    st.sampled_from([3, 5, 7, 9, 11]),
    st.floats(0.5, 2.0),
    st.floats(0.5, 2.0),
    st.floats(0.5, 2.0),
    st.floats(-0.5, -0.01),
)


def literal_gap_sq(params, j):
    """The printed quartic-in-cos form, transcribed term by term."""
    om, n_u, n_up = params.rabi, params.nU, params.nUprime
    c = math.cos(2.0 * math.pi * j / params.species_count)
    return 4.0 * (
        om**2
        - n_u * om
        + (n_u * om - 2.0 * n_up * om - 2.0 * om**2) * c
        + (2.0 * n_up * om + om**2) * c * c
    )


class TestRestEnergy:
    def test_gapless_mode_exact_zero(self, standard_params):
        assert rest_energy_sq(standard_params, 0) == 0.0
        assert rest_energy_sq_mono(standard_params, 0) == 0.0

    @settings(max_examples=80, deadline=None)
    @given(random_params)
    def test_gapless_for_all_params(self, params):
        assert rest_energy_sq(params, 0) == 0.0
        assert rest_energy_sq_mono(params, 0) == 0.0

    def test_first_gap_value(self, standard_params):
        assert rest_energy_sq(standard_params, 1) == pytest.approx(0.1101093, abs=1e-6)
        assert rest_energy_sq_mono(standard_params, 1) == pytest.approx(0.1101093, abs=1e-6)

    def test_degenerate_partner_bit_exact(self, standard_params):
        for j in range(1, 9):
            assert rest_energy_sq(standard_params, j) == rest_energy_sq(standard_params, 9 - j)

    def test_n3_hand_value(self, n3_params):
        # -4*(-0.1) * [1*(1 - cos 2pi/3) - (-0.1) sin^2 2pi/3] = 0.4*(1.5 + 0.075)
        assert rest_energy_sq(n3_params, 1) == pytest.approx(0.63, abs=1e-15)

    @settings(max_examples=80, deadline=None)
    @given(random_params, st.integers(0, 10))
    def test_matches_literal_printed_form(self, params, j):
        j = j % params.species_count
        value = rest_energy_sq(params, j)
        scale = max(abs(params.rabi) * (params.nU + abs(params.rabi)), 1e-12)
        assert value == pytest.approx(literal_gap_sq(params, j), abs=1e-12 * scale, rel=1e-10)

    @settings(max_examples=80, deadline=None)
    @given(mono_random, st.integers(0, 10))
    def test_general_equals_mono_under_monometricity(self, params, j):
        j = j % params.species_count
        general = rest_energy_sq(params, j)
        mono = rest_energy_sq_mono(params, j)
        assert general == pytest.approx(mono, rel=1e-12, abs=1e-15)

    def test_tachyonic_sign_rule(self):
        flipped = ModelParams(9, 1.0, 1.0, 1.0, -0.1, 0.1)
        for j in range(1, 9):
            assert rest_energy_sq_mono(flipped, j) < 0.0
            assert rest_energy_sq(flipped, j) < 0.0


class TestSoundSpeed:
    def test_mono_metric_common_value(self, standard_params):
        values = [sound_speed_sq(standard_params, j) for j in range(9)]
        assert all(v == pytest.approx(1.2, rel=1e-15) for v in values)
        assert max(values) - min(values) <= 1e-12 * 1.2

    def test_multi_metric_spread(self):
        params = ModelParams(9, 1.0, 1.0, 1.0, 0.0, -0.1)
        assert sound_speed_sq(params, 0) == pytest.approx(1.0, rel=1e-15)
        values = [sound_speed_sq(params, j) for j in range(9)]
        assert max(values) - min(values) > 0.1

    def test_degenerate_partner(self, standard_params):
        params = ModelParams(9, 1.0, 1.0, 1.0, 0.0, -0.1)
        for j in range(1, 9):
            assert sound_speed_sq(params, j) == sound_speed_sq(params, 9 - j)


class TestDispersion:
    def test_gapless_point_value(self, standard_params):
        assert dispersion(standard_params, 0, 0.1) == pytest.approx(
            math.sqrt(0.012025), rel=1e-14
        )
        assert dispersion(standard_params, 0, 0.1) == pytest.approx(0.1096586, abs=1e-7)

    def test_zero_momentum_gapless(self, standard_params):
        assert dispersion(standard_params, 0, 0.0) == 0.0

    def test_free_particle_asymptote(self, standard_params):
        energy = dispersion(standard_params, 0, 100.0)
        assert energy == pytest.approx(5001.2, abs=0.1)
        assert energy / 5000.0 == pytest.approx(1.0, rel=1e-3)

    def test_phonon_limit(self, standard_params):
        scales = derive_scales(standard_params, mono_metric=True)
        p = 1e-3 / scales.healing_length
        ratio = dispersion(standard_params, 0, p) / (scales.sound_speed * p)
        assert abs(ratio - 1.0) <= 1e-6

    def test_tachyonic_raises(self):
        flipped = ModelParams(9, 1.0, 1.0, 1.0, -0.1, 0.1)
        with pytest.raises(StabilityError):
            dispersion(flipped, 1, 0.0)


class TestBogoliubovAmplitudes:
    def test_reference_point(self, standard_params):
        amps = bogoliubov_amplitudes(standard_params, 0, 0.1)
        energy = math.sqrt(0.012025)
        ratio = 1.205 / energy
        assert amps.u == pytest.approx(math.sqrt((ratio + 1.0) / 18.0), rel=1e-13)
        assert amps.v == pytest.approx(-math.sqrt((ratio - 1.0) / 18.0), rel=1e-13)
        assert amps.u == pytest.approx(0.816110, abs=2e-6)
        assert amps.v == pytest.approx(-0.744933, abs=2e-6)

    @settings(max_examples=80, deadline=None)
    @given(mono_random, st.integers(0, 10), st.floats(0.01, 10.0))
    def test_normalization_identity(self, params, j, p):
        j = j % params.species_count
        amps = bogoliubov_amplitudes(params, j, p)
        assert amps.u > 0.0 >= amps.v
        assert amps.u**2 - amps.v**2 == pytest.approx(
            1.0 / params.species_count, rel=1e-12
        )

    def test_free_limit(self, standard_params):
        amps = bogoliubov_amplitudes(standard_params, 3, 1e4)
        assert amps.u**2 == pytest.approx(1.0 / 9.0, rel=1e-6)
        assert abs(amps.v) < 1e-4

    def test_degenerate_mode(self, standard_params):
        with pytest.raises(DegenerateModeError):
            bogoliubov_amplitudes(standard_params, 0, 0.0)


class TestSyntheticMomentum:
    def test_values(self, standard_params):
        assert p5(standard_params, 1) == pytest.approx(0.3122136, abs=1e-6)
        assert continuum_mass_sq(standard_params, 1) == pytest.approx(0.1169729, abs=1e-6)

    def test_gapless(self, standard_params):
        assert p5(standard_params, 0) == 0.0
        assert continuum_mass_sq(standard_params, 0) == 0.0

    def test_signed_labels(self, standard_params):
        assert p5(standard_params, 8) == -p5(standard_params, 1)

    def test_continuum_deviation(self, standard_params):
        exact = rest_energy_sq(standard_params, 1)
        approx = continuum_mass_sq(standard_params, 1)
        assert (approx - exact) / exact == pytest.approx(0.062, abs=1e-3)

    def test_radius_consistency(self, standard_params):
        scales = derive_scales(standard_params, mono_metric=True)
        cs_sq = scales.sound_speed**2
        for j in range(9):
            label = j if j <= 4 else j - 9
            expected = cs_sq * (label / scales.synthetic_radius) ** 2
            assert continuum_mass_sq(standard_params, j) == pytest.approx(
                expected, rel=1e-12, abs=1e-300
            )

    def test_convergence_to_continuum(self):
        deviations = []
        for n_sp in (9, 27, 81):
            params = ModelParams(n_sp, 1.0, 1.0, 1.0, 0.1, -0.1)
            exact = rest_energy_sq(params, 1)
            deviations.append((continuum_mass_sq(params, 1) - exact) / exact)
        assert deviations[0] > deviations[1] > deviations[2] > 0.0


class TestValidityConstraint:
    def test_value(self, standard_params):
        expected = (2.0 * math.pi / 9.0) * math.sqrt(0.1 / 1.2)
        assert validity_constraint(standard_params, 1) == pytest.approx(expected, rel=1e-14)
        assert validity_constraint(standard_params, 1) == pytest.approx(0.2015333, abs=1e-6)

    def test_gapless(self, standard_params):
        assert validity_constraint(standard_params, 0) == 0.0

    def test_scaling_with_species(self):
        small = ModelParams(9, 1.0, 1.0, 1.0, 0.1, -0.1)
        large = ModelParams(18, 1.0, 1.0, 1.0, 0.1, -0.1)
        assert validity_constraint(large, 1) == pytest.approx(
            0.5 * validity_constraint(small, 1), rel=1e-14
        )


class TestTower:
    def test_structure(self, standard_params):
        entries = kk_tower(standard_params)
        assert len(entries) == 9
        assert entries[0].mode.kk_label == 0
        assert entries[0].degeneracy == 1
        assert entries[0].rest_energy_sq == 0.0
        labels = [e.mode.kk_label for e in entries]
        assert labels == [0, 1, -1, 2, -2, 3, -3, 4, -4]
        assert all(e.degeneracy == 2 for e in entries[1:])

    def test_pairs_share_gap(self, standard_params):
        entries = kk_tower(standard_params)
        by_label = {e.mode.kk_label: e for e in entries}
        for n in range(1, 5):
            assert by_label[n].rest_energy_sq == by_label[-n].rest_energy_sq
            assert by_label[n].p5 == -by_label[-n].p5

    def test_n3(self, n3_params):
        entries = kk_tower(n3_params)
        assert len(entries) == 3
        assert entries[0].rest_energy_sq == 0.0
        assert entries[1].rest_energy_sq == pytest.approx(0.63, abs=1e-15)
        assert entries[2].rest_energy_sq == pytest.approx(0.63, abs=1e-15)


class TestNonrelativisticDispersion:
    def test_gapless_mode_form(self):
        params = ModelParams(9, 1.0, 1.0, 0.01, 0.01, 10.0)
        for p in (0.0, 0.5, 2.0):
            assert nonrel_dispersion(params, 0, p) == pytest.approx(
                p * p / 2.0 + 0.02, rel=1e-14
            )

    def test_reference_value(self):
        params = ModelParams(9, 1.0, 1.0, 0.01, 0.01, 10.0)
        assert nonrel_dispersion(params, 1, 0.0) == pytest.approx(4.6967725, abs=1e-6)

    def test_degenerate_partner(self):
        params = ModelParams(9, 1.0, 1.0, 0.01, 0.01, 10.0)
        for j in range(1, 9):
            assert nonrel_dispersion(params, j, 0.3) == nonrel_dispersion(params, 9 - j, 0.3)

    def test_sign_insensitive_gap(self):
        up = ModelParams(9, 1.0, 1.0, 0.01, 0.01, 10.0)
        down = ModelParams(9, 1.0, 1.0, 0.01, 0.01, -10.0)
        assert nonrel_dispersion(up, 2, 0.7) == nonrel_dispersion(down, 2, 0.7)

    def test_matches_full_dispersion_for_gapped_modes(self):
        params = ModelParams(9, 1.0, 1.0, 0.01, 0.001, -10.0)
        p_max = math.sqrt(2.0 * 10.0) / 4.0
        for j in range(1, 9):
            for p in np.linspace(0.0, p_max, 9):
                full = dispersion(params, j, float(p))
                closed = nonrel_dispersion(params, j, float(p))
                assert abs(closed - full) / full < 1e-2


def _bits(values):
    return np.asarray(values, dtype=float).view(np.uint64)


class TestArrayForms:
    """An array call is the scalar calls, bit for bit, on every mode."""

    FORMS = [rest_energy_sq, rest_energy_sq_mono, sound_speed_sq, p5, continuum_mass_sq,
             validity_constraint]

    @pytest.mark.parametrize("n_sp", [3, 9, 51, 101])
    @pytest.mark.parametrize("mono", [True, False])
    def test_array_equals_scalar_calls(self, n_sp, mono):
        params = normalized_params(0.1, n_sp) if mono else ModelParams(n_sp, 1.3, 0.7, 1.1, 0.05, -0.2)
        js = np.arange(n_sp)
        for form in self.FORMS:
            values = form(params, js)
            scalars = [form(params, j) for j in range(n_sp)]
            assert all(type(value) is float for value in scalars), form.__name__
            assert np.array_equal(_bits(values), _bits(scalars)), form.__name__
        momenta = np.logspace(-2, 1, 7)
        for form in (energy_sq, dispersion):
            table = form(params, js[:, np.newaxis], momenta)
            assert table.shape == (n_sp, momenta.size)
            scalars = [[form(params, j, float(p)) for p in momenta] for j in range(n_sp)]
            assert np.array_equal(_bits(table), _bits(scalars)), form.__name__

    @pytest.mark.parametrize("n_sp", [3, 9, 51, 101])
    def test_one_fold(self, n_sp):
        js = np.arange(n_sp)
        assert np.array_equal(abs(kk_label(js, n_sp)), np.minimum(js, n_sp - js))
        assert [kk_label(j, n_sp) for j in range(n_sp)] == kk_label(js, n_sp).tolist()

    def test_tachyonic_array_names_the_first_mode(self):
        flipped = ModelParams(9, 1.0, 1.0, 1.0, -0.1, 0.1)
        with pytest.raises(StabilityError, match="at j=1, p=0"):
            dispersion(flipped, np.arange(9)[:, np.newaxis], np.array([0.0, 1.0]))
