import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kkbec.errors import StabilityError
from kkbec.model import (
    ModelParams,
    NONRELATIVISTIC,
    RELATIVISTIC,
    UNRESTRICTED,
    check_mono_metricity,
    derive_scales,
    kk_label,
    normalized_params,
    params_from_document,
    params_to_document,
    validate,
)


def mono_params(n_sp=9, m=1.0, n=1.0, u=1.0, om=-0.1, length=None):
    return ModelParams(n_sp, m, n, u, -om / n, om, length)


valid_mono = st.builds(
    mono_params,
    n_sp=st.sampled_from([3, 5, 7, 9, 11]),
    m=st.floats(0.5, 2.0),
    n=st.floats(0.5, 2.0),
    u=st.floats(0.5, 2.0),
    om=st.floats(-0.5, -0.01),
)


class TestDerivedScales:
    def test_standard_values(self, standard_params):
        scales = derive_scales(standard_params, mono_metric=True)
        cs = math.sqrt(1.2)
        assert scales.sound_speed == pytest.approx(cs, rel=1e-14)
        assert scales.healing_length == pytest.approx(1.0 / (math.sqrt(2.0) * cs), rel=1e-14)
        assert scales.lattice_spacing == pytest.approx(1.0 / math.sqrt(0.2), rel=1e-14)
        assert scales.length_ratio == pytest.approx(math.sqrt(12.0), rel=1e-14)
        assert scales.synthetic_radius == pytest.approx(
            9.0 / (2.0 * math.pi * math.sqrt(0.2)), rel=1e-14
        )
        assert scales.cutoff_energy == pytest.approx(1.2, rel=1e-14)
        assert scales.chemical_potential == pytest.approx(1.0, abs=1e-15)

    def test_reference_digits(self, standard_params):
        scales = derive_scales(standard_params, mono_metric=True)
        assert scales.sound_speed == pytest.approx(1.0954451, abs=1e-6)
        assert scales.healing_length == pytest.approx(0.6454972, abs=1e-6)
        assert scales.lattice_spacing == pytest.approx(2.2360680, abs=1e-6)
        assert scales.length_ratio == pytest.approx(3.4641016, abs=1e-6)
        assert scales.synthetic_radius == pytest.approx(3.2029315, abs=1e-6)  # 9a/(2 pi)

    def test_stronger_coupling_sound_speed(self):
        params = mono_params(om=-0.5)
        scales = derive_scales(params, mono_metric=True)
        assert scales.sound_speed == pytest.approx(math.sqrt(2.0), rel=1e-14)

    @settings(max_examples=60, deadline=None)
    @given(valid_mono)
    def test_length_ratio_identity(self, params):
        scales = derive_scales(params, mono_metric=True)
        m_cs_sq = params.atom_mass * scales.sound_speed**2
        assert scales.length_ratio**2 == pytest.approx(
            m_cs_sq / abs(params.rabi), rel=1e-12
        )

    @settings(max_examples=60, deadline=None)
    @given(valid_mono)
    def test_defining_identities(self, params):
        scales = derive_scales(params, mono_metric=True)
        xi_prod = scales.healing_length * math.sqrt(2.0) * params.atom_mass * scales.sound_speed
        a_prod = scales.lattice_spacing**2 * 2.0 * params.atom_mass * abs(params.rabi)
        assert xi_prod == pytest.approx(1.0, rel=1e-12)
        assert a_prod == pytest.approx(1.0, rel=1e-12)
        assert scales.synthetic_radius == pytest.approx(
            params.species_count * scales.lattice_spacing / (2.0 * math.pi), rel=1e-12
        )

    def test_non_mono_uses_gapless_mode_speed(self):
        params = ModelParams(9, 1.0, 1.0, 1.0, 0.0, -0.1)
        scales = derive_scales(params, mono_metric=False)
        assert scales.sound_speed**2 == pytest.approx(1.0, rel=1e-14)

    def test_mono_gate(self):
        params = ModelParams(9, 1.0, 1.0, 1.0, 0.0, -0.1)
        with pytest.raises(ValueError, match="mono_metric"):
            derive_scales(params, mono_metric=True)

    def test_no_sound_cone(self):
        params = ModelParams(9, 1.0, 1.0, 1.0, -0.6, -0.1)
        with pytest.raises(StabilityError, match="sound cone"):
            derive_scales(params, mono_metric=False)

    def test_zero_rabi_rejected(self, standard_params):
        params = ModelParams(9, 1.0, 1.0, 1.0, 0.1, 0.0)
        with pytest.raises(StabilityError):
            derive_scales(params)


class TestMonoMetricity:
    def test_exact_relation(self):
        assert check_mono_metricity(ModelParams(9, 1, 1, 1, 0.1, -0.1))

    def test_violated_relation(self):
        assert not check_mono_metricity(ModelParams(9, 1, 1, 1, 0.1, -0.2))

    def test_density_weighting(self):
        assert check_mono_metricity(ModelParams(9, 1, 2, 1, 0.05, -0.1))

    def test_overflowing_coupling_fails(self):
        # n*U' overflows to inf: the residual is inf, and inf <= 1e-9 * inf would hold
        big = 4.149515568880993e180
        params = ModelParams(9, 1.0, big, 1.0, big, -1.0)
        assert params.nUprime == math.inf
        assert not check_mono_metricity(params)


class TestValidate:
    def test_standard_relativistic_empty(self, standard_params):
        report = validate(standard_params, RELATIVISTIC)
        assert report.empty and report.ok

    def test_even_species_count(self):
        report = validate(ModelParams(8, 1, 1, 1, 0.1, -0.1), UNRESTRICTED)
        assert any("odd" in v.message for v in report.errors())

    def test_ten_species_rejected(self):
        report = validate(ModelParams(10, 1, 1, 1, 0.1, -0.1), RELATIVISTIC)
        assert not report.ok

    def test_positive_rabi_in_relativistic(self):
        report = validate(ModelParams(9, 1, 1, 1, -0.1, 0.1), RELATIVISTIC)
        assert any(v.constraint == "rabi_sign" for v in report.errors())

    def test_rabi_ratio_warning(self):
        report = validate(ModelParams(9, 1, 1, 1, 0.5, -0.5), RELATIVISTIC)
        assert report.ok
        assert any(v.constraint == "rabi_small" for v in report.warnings())

    def test_rabi_ratio_error(self):
        report = validate(ModelParams(9, 1, 1, 1, 1.5, -1.5), RELATIVISTIC)
        assert not report.ok

    def test_length_bound(self):
        # (2mL^2)^-1 = 0.5 at L=1 exceeds |Omega| = 0.1
        report = validate(mono_params(length=1.0), RELATIVISTIC)
        assert any(v.constraint == "system_length_bound" for v in report.errors())
        assert validate(mono_params(length=100.0), RELATIVISTIC).ok
        # L^2 overflows past L ~ 1.3e154; the bound (2mL^2)^-1 is then 0
        assert validate(mono_params(length=1.3407807929942597e154), RELATIVISTIC).empty

    def test_nonrelativistic_regime(self):
        good = ModelParams(9, 1.0, 1.0, 0.01, 0.01, 10.0)
        assert validate(good, NONRELATIVISTIC).empty
        bad = ModelParams(9, 1.0, 1.0, 1.0, 0.1, -0.5)
        assert not validate(bad, NONRELATIVISTIC).ok
        # nU/|Omega| = 0.5 strains |Omega| >> nU; U' = 0 sets no scale to compare
        strained = validate(ModelParams(9, 1.0, 1.0, 1.0, 0.0, 2.0), NONRELATIVISTIC)
        assert [(v.constraint, v.severity) for v in strained.violations] == [
            ("rabi_large", "warning")]
        assert "nU/|Omega| = 0.5 " in strained.violations[0].message

    def test_never_raises_on_nonfinite(self):
        report = validate(ModelParams(9, float("nan"), 1.0, 1.0, 0.1, -0.1), RELATIVISTIC)
        assert not report.ok
        report = validate(ModelParams(9, 1.0, 1.0, float("inf"), 0.1, -0.1), UNRESTRICTED)
        assert not report.ok
        report = validate(ModelParams(9, 1.0, 1.0, 1.0, 0.1, -0.1, math.inf), RELATIVISTIC)
        assert [v.constraint for v in report.errors()] == ["system_length_finite"]

    def test_nonpositive_couplings(self):
        report = validate(ModelParams(9, -1.0, 0.0, 1.0, 0.1, -0.1), UNRESTRICTED)
        names = {v.constraint for v in report.errors()}
        assert "atom_mass_positive" in names and "density_positive" in names

    def test_zero_rabi_rejected_in_every_regime(self):
        for regime in (RELATIVISTIC, NONRELATIVISTIC, UNRESTRICTED):
            report = validate(ModelParams(9, 1.0, 1.0, 1.0, 0.0, 0.0), regime)
            assert [v.constraint for v in report.errors()] == ["rabi_nonzero"]

    def test_total_on_vanishing_products(self):
        # n*U and 2*m*L^2 underflow to 0 although every factor is valid
        tiny = validate(ModelParams(3, 1.0, 1e-191, 1e-191, 0.0, -1.0), RELATIVISTIC)
        assert [v.constraint for v in tiny.errors()] == ["rabi_small"]
        point = validate(ModelParams(9, 1.0, 1.0, 1.0, 0.1, -0.1, 0.0), RELATIVISTIC)
        assert [v.constraint for v in point.errors()] == ["system_length_bound"]

    def test_negative_length_rejected_in_every_regime(self):
        # (2mL^2)^-1 squares the sign away; the sign is checked on its own
        for regime in (RELATIVISTIC, NONRELATIVISTIC, UNRESTRICTED):
            for length in (-100.0, -1e-300, -math.inf):
                report = validate(ModelParams(9, 1.0, 1.0, 1.0, 0.001, -0.001, length), regime)
                assert [v.constraint for v in report.errors()] == (
                    ["system_length_finite"] if math.isinf(length) else ["system_length_sign"])
            # -0.0 is not negative
            signed_zero = validate(ModelParams(9, 1.0, 1.0, 1.0, 0.001, -0.001, -0.0), regime)
            assert "system_length_sign" not in {v.constraint for v in signed_zero.violations}

    def test_unknown_regime(self, standard_params):
        with pytest.raises(ValueError):
            validate(standard_params, "hyperbolic")

    wild = st.floats(allow_nan=True, allow_infinity=True)

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(-5, 30), wild, wild, wild, wild, wild,
        st.one_of(st.none(), wild),
        st.sampled_from([RELATIVISTIC, NONRELATIVISTIC, UNRESTRICTED]),
    )
    def test_total_on_arbitrary_input(self, n_sp, m, n, u, up, om, length, regime):
        report = validate(ModelParams(n_sp, m, n, u, up, om, length), regime)
        assert isinstance(report.ok, bool)


class TestModeIndex:
    """Mode j's signed label n (kk_label) and its angle alpha_j (ModelParams.alphas)."""

    def test_mapping(self):
        assert kk_label(0, 9) == 0
        assert kk_label(4, 9) == 4
        assert kk_label(5, 9) == -4
        assert kk_label(8, 9) == -1

    def test_alpha(self):
        params = ModelParams(9, 1.0, 1.0, 1.0, 0.1, -0.1)
        assert params.alphas[3] == pytest.approx(2.0 * math.pi / 3.0, rel=1e-15)


class TestParameterDocument:
    DOC = {
        "N": 9, "m": 1.0, "n": 1.0, "U": 1.0,
        "Uprime": 0.1, "Omega": -0.1, "L": None, "mono_metric": True,
    }

    def test_roundtrip(self):
        params, mono = params_from_document(self.DOC)
        assert mono is True
        assert params.species_count == 9
        assert params.rabi == -0.1
        assert params_to_document(params, mono) == self.DOC

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            params_from_document({**self.DOC, "temperature": 0.0})

    def test_missing_key_rejected(self):
        doc = dict(self.DOC)
        del doc["Omega"]
        with pytest.raises(ValueError, match="missing"):
            params_from_document(doc)

    def test_type_checks(self):
        with pytest.raises(ValueError, match="JSON object"):
            params_from_document([9, 1.0])
        with pytest.raises(ValueError, match="L must be"):
            params_from_document({**self.DOC, "L": "long"})
        with pytest.raises(ValueError, match="L must be"):
            params_from_document({**self.DOC, "L": True})
        with pytest.raises(ValueError):
            params_from_document({**self.DOC, "N": 9.0})
        with pytest.raises(ValueError):
            params_from_document({**self.DOC, "m": "heavy"})
        with pytest.raises(ValueError):
            params_from_document({**self.DOC, "mono_metric": 1})

    def test_optional_keys_default(self):
        doc = {k: v for k, v in self.DOC.items() if k not in ("L", "mono_metric")}
        params, mono = params_from_document(doc)
        assert params.system_length is None and mono is False


def test_normalized_params():
    params = normalized_params(0.1)
    assert params.rabi == -0.1
    assert params.cross_interaction == 0.1
    assert params.nUprime == -params.rabi
    assert validate(params, RELATIVISTIC).empty
