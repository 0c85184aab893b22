import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import special

from kkbec import cli, correlation, model
from kkbec.errors import DomainError, QuadratureError, StabilityError, ValidityError
from kkbec.model import ModelParams, derive_scales, kk_label, normalized_params
from kkbec.correlation import (
    CorrelationQuery,
    _gap_ratios,
    _level_weights,
    analytic_corr,
    bessel_k1,
    correlation_table,
    numeric_corr,
    truncated_corr,
)
from kkbec.spectrum import bogoliubov_amplitudes, rest_energy_sq

from conftest import (_amplitude_excess, _de_rule, correlator_quadpack_oracle,
                      double_exponential_corr, fourier_sin_integral, k1_integral_oracle,
                      long_double_level_sum)


class TestBesselK1:
    def test_against_integral_oracle(self):
        for x in np.logspace(-3, math.log10(30.0), 12):
            oracle = k1_integral_oracle(float(x))
            assert abs(bessel_k1(float(x)) - oracle) <= 1e-10 * oracle

    def test_against_mpmath(self):
        # 40-digit references over both trapezoid sums, their seam, and the 1/x limit
        mpmath = pytest.importorskip("mpmath")
        xs = np.logspace(-3, math.log10(700.0), 190).tolist() + [2.0 - 1e-12, 2.0 + 1e-12]
        xs += np.logspace(-12, -3, 19, endpoint=False).tolist() + [1e-9, math.nextafter(1e-9, 0.0)]
        with mpmath.workdps(40):
            for x in xs:
                exact = mpmath.besselk(1, x)
                assert abs(bessel_k1(x) - exact) <= 1.5e-15 * exact, x

    def test_reference_point(self):
        assert bessel_k1(1.0) == pytest.approx(0.6019072302, abs=1e-10)

    def test_small_argument_limit(self):
        # x*K1(x) - 1 ~ (x^2/2) ln(x/2)
        assert 1e-4 * bessel_k1(1e-4) == pytest.approx(1.0, abs=1e-6)
        assert 1e-3 * bessel_k1(1e-3) == pytest.approx(1.0, abs=1e-5)
        assert 1e-2 * bessel_k1(1e-2) == pytest.approx(1.0, abs=1e-3)

    def test_against_scipy_dense(self):
        xs = np.logspace(-3, math.log10(600.0), 300)
        for x in xs:
            assert bessel_k1(float(x)) == pytest.approx(float(special.k1(x)), rel=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            bessel_k1(0.0)
        with pytest.raises(DomainError):
            bessel_k1(-1.0)
        with pytest.raises(DomainError):
            bessel_k1(math.nan)

    def test_reciprocal_below_1e_minus_9(self):
        # K1 = 1/x there to half an ulp; at the smallest subnormal 1/x overflows
        assert bessel_k1(5e-324) == math.inf
        # the double nearest 1e-300 is not 10^-300: its reciprocal rounds to 1e300 less an ulp
        assert bessel_k1(1e-300) == 1.0 / 1e-300 == math.nextafter(1e300, 0.0)

    def test_branch_seam_continuity(self):
        below = bessel_k1(2.0 - 1e-12)
        above = bessel_k1(2.0 + 1e-12)
        assert below == pytest.approx(above, rel=1e-10)

    @settings(max_examples=50, deadline=None)
    @given(x=st.floats(min_value=746.0, allow_nan=False))
    @example(x=1e21)
    @example(x=math.inf)
    def test_zero_past_underflow(self, x):
        # e^-x underflows past x = 745.13 and K1 < e^-x with it; the trapezoid
        # sum, which is inf/inf = NaN at x = inf, is not run
        assert bessel_k1(x) == 0.0


def _paired(g):
    """An integrand of plain values as the pairs (values, sizes) that the oracle takes."""
    def pair(eta):
        values = g(eta)
        return values, np.abs(values)

    return pair


class TestFourierSinIntegral:
    """Closed-form Fourier-sine pairs check the eta-domain oracle, the tests' second method."""

    def test_lorentzian_tail(self):
        # int_0^inf eta sin(eta s)/(eta^2 + a^2) d eta = (pi/2) exp(-a s)
        # the last three have structure much narrower than pi/s near the origin
        for a, s in [(0.5, 3.0), (1.0, 10.0), (0.05, 20.0), (1.0, 1e-4), (1.0, 1e-6), (1e-3, 1.0)]:
            value, err = fourier_sin_integral(_paired(lambda eta: eta / (eta**2 + a**2)), s)
            expected = 0.5 * math.pi * math.exp(-a * s)
            assert value == pytest.approx(expected, rel=1e-9)
            assert err >= 0.0

    def test_bessel_pair_with_subtracted_asymptote(self):
        # int_0^inf [eta/sqrt(eta^2 + a^2) - 1] sin(eta s) d eta = a K1(a s) - 1/s,
        # the same constant-subtracted structure as the correlator integrands
        for a, s in [(0.2, 5.0), (1.0, 12.0)]:
            value, _ = fourier_sin_integral(
                _paired(lambda eta: eta / np.sqrt(eta**2 + a**2) - 1.0), s
            )
            expected = a * float(special.k1(a * s)) - 1.0 / s
            assert value == pytest.approx(expected, rel=1e-9)

    def test_damped_pair(self):
        # int_0^inf eta exp(-eta) sin(eta s) d eta = 2 s / (1 + s^2)^2
        s = 7.0
        value, _ = fourier_sin_integral(_paired(lambda eta: eta * np.exp(-eta)), s)
        assert value == pytest.approx(2.0 * s / (1.0 + s * s) ** 2, rel=1e-9)

    def test_budget_exhaustion_carries_partial(self):
        with pytest.raises(QuadratureError) as excinfo:
            fourier_sin_integral(_paired(lambda eta: eta / (eta**2 + 1.0)), 3.0, rel_tol=1e-30)
        assert excinfo.value.partial_value is not None
        assert excinfo.value.error_estimate is not None

    def test_sizes_of_the_magnitudes_change_nothing(self):
        # the sizes enter only the roundoff floor: with none the sums, and so the value, are
        # the same bit for bit
        def g(eta):
            return eta / np.sqrt(eta**2 + 0.04) - 1.0

        for s in (5.0, 12.0):
            value, _ = fourier_sin_integral(_paired(g), s)
            unsized, _ = fourier_sin_integral(lambda eta: (g(eta), np.zeros(eta.size)), s)
            assert unsized == value

    def test_sizes_set_the_roundoff_floor(self):
        # sizes 1e12 times the values put the floor near 2e-4 of the sum, so the
        # second step stops there with the sum the plain integrand returns
        def g(eta):
            return eta / (eta**2 + 1.0)

        value, _ = fourier_sin_integral(_paired(g), 3.0)
        with pytest.raises(QuadratureError, match="reached its roundoff floor at step 2 of 7: "
                                                  r"error \S+, requested 7\.82e-12") as excinfo:
            fourier_sin_integral(lambda eta: (g(eta), 1e12 * np.abs(g(eta))), 3.0)
        assert excinfo.value.partial_value == value

    def test_unreachable_tolerance_fails_at_the_roundoff(self):
        # once two sums agree to within their roundoff, no finer step can meet
        # a tolerance below it, so the row fails after the second step
        evaluations = 0

        def g(eta):
            nonlocal evaluations
            evaluations += eta.size
            return eta / (eta**2 + 1.0)

        with pytest.raises(QuadratureError, match="reached its roundoff floor at step 2 of 7: "
                                                  r"error \S+, requested 1e-30") as excinfo:
            fourier_sin_integral(_paired(g), 3.0, rel_tol=1e-30)
        assert evaluations <= 1000
        expected = 0.5 * math.pi * math.exp(-3.0)
        assert excinfo.value.partial_value == pytest.approx(expected, rel=1e-13)

    def test_cancelling_integrand_fails_within_the_ladder(self):
        # the difference form loses ~1e-16 absolute at large eta, so at s = 1e-6
        # no step reaches the tolerance; the fixed ladder bounds the work
        evaluations = 0

        def g(eta):
            nonlocal evaluations
            evaluations += eta.size
            return eta / np.sqrt(eta**2 + 1.0) - 1.0

        with pytest.raises(QuadratureError, match="ran out of steps at step 7 of 7: "
                                                  r"error \S+, requested 1e-15"):
            fourier_sin_integral(_paired(g), 1e-6)
        assert evaluations <= 20_000

    def test_invalid_frequency(self):
        with pytest.raises(ValueError):
            fourier_sin_integral(_paired(lambda eta: eta), 0.0)
        with pytest.raises(ValueError):
            fourier_sin_integral(_paired(lambda eta: eta), math.nan)


class TestQuadConfig:
    """The stop test of the nested steps, at one fixed tolerance: 1e-10 relative over an
    absolute 1e-15."""

    QUERY = CorrelationQuery(s=3.0, delta=1, params=normalized_params(1e-3, 9))

    @pytest.mark.parametrize("kwargs", [
        {"rel_tol": 1e-10},
        {"rel_tol": 0.0},
        {"quad_tol": 1e-10},
    ])
    def test_rejects_invalid_settings(self, kwargs):
        # the tolerance is no setting of the library's correlators
        with pytest.raises(TypeError, match="unexpected keyword argument"):
            numeric_corr(self.QUERY, **kwargs)
        with pytest.raises(TypeError, match="unexpected keyword argument"):
            correlation_table(self.QUERY.params, [3.0], 1, **kwargs)

    @pytest.mark.parametrize("sums, why", [
        ([(1.0, 1.0), (1.1, 1.1), (1.11, 1.11)], "ran out of steps at step 3 of 3: error 0.01"),
        # magnitudes 1e6 times the sums: a roundoff of 2.2e-10 ends the ladder at step 2
        ([(1.0, 1e6), (1.0 + 1e-12, 1e6), (1.0, 1e6)],
         "reached its roundoff floor at step 2 of 3: error 2.22e-10"),
        ([(1.0, 1.0), (math.inf, math.inf), (1.0, 1.0)], "got a non-finite sum at step 2 of 3"),
        ([(1.0, 1.0), (math.nan, math.nan), (1.0, 1.0)], "got a non-finite sum at step 2 of 3"),
    ])
    def test_agree_names_why_no_two_steps_agree(self, sums, why):
        # the stop test on synthetic step sums (value, magnitude), at rel_tol 1e-12: it reads
        # no step past the one it names, and carries that step's sum
        steps = iter(sums)
        with pytest.raises(QuadratureError, match=f"^quadrature {re.escape(why)}") as excinfo:
            correlation._agree(steps, 3, 1e-12)
        last = sums[len(sums) - len(list(steps)) - 1][0]
        assert np.array_equal([excinfo.value.partial_value], [last], equal_nan=True)


class TestQueryValidation:
    def test_bounds(self, standard_params):
        with pytest.raises(ValueError):
            CorrelationQuery(s=0.0, delta=1, params=standard_params)
        with pytest.raises(ValueError):
            CorrelationQuery(s=5.0, delta=9, params=standard_params)
        with pytest.raises(ValueError):
            CorrelationQuery(s=5.0, delta=-1, params=standard_params)


class TestAnalyticCorrelator:
    def test_reference_value(self, standard_params):
        query = CorrelationQuery(s=10.0, delta=1, params=standard_params)
        ratio = math.sqrt(12.0)
        expected = ratio / (2.0 * math.sqrt(2.0) * math.pi**2 * (100.0 + 12.0) ** 1.5)
        assert analytic_corr(query) == pytest.approx(expected, rel=1e-14)
        assert analytic_corr(query) == pytest.approx(1.047e-4, abs=1e-7)

    def test_pure_cubic_decay_at_zero_separation(self, standard_params):
        d10 = analytic_corr(CorrelationQuery(s=10.0, delta=0, params=standard_params))
        d20 = analytic_corr(CorrelationQuery(s=20.0, delta=0, params=standard_params))
        assert d10 / d20 == pytest.approx(8.0, rel=1e-12)

    def test_synthetic_distance_dominates(self, standard_params):
        # R_l * Delta >> s: D scales like Delta^-3 (Delta within the folded range)
        d2 = analytic_corr(CorrelationQuery(s=0.5, delta=2, params=standard_params))
        d4 = analytic_corr(CorrelationQuery(s=0.5, delta=4, params=standard_params))
        assert d2 / d4 == pytest.approx(8.0, rel=5e-2)

    def test_nearest_image_folding(self, standard_params):
        direct = analytic_corr(CorrelationQuery(s=3.0, delta=1, params=standard_params))
        wrapped = analytic_corr(CorrelationQuery(s=3.0, delta=8, params=standard_params))
        assert direct == wrapped

    @pytest.mark.parametrize("s", [1.5e-162, 5e-324])
    def test_coincident_sites_overflow_to_inf(self, standard_params, s):
        # at Delta = 0, rho = s: below s = 1.57e-162 rho^2 underflows to 0, where R_l/rho^3
        # has long overflowed
        assert analytic_corr(CorrelationQuery(s=s, delta=0, params=standard_params)) == math.inf


class TestModeIntegrand:
    """The mode amplitude (u_j - v_j)^2 of the eta-domain oracle, and the sets the
    correlator refuses."""

    @staticmethod
    def _amplitude(params, j, eta):
        """(u_j - v_j)^2 = 1/N + f_j - 1/N at eta = p*xi, from the oracle's excess."""
        n_sp = params.species_count
        mus = _gap_ratios(params)[[abs(kk_label(j, n_sp))]]
        return 1.0 / n_sp + _amplitude_excess(mus, n_sp)(eta)[0]

    @staticmethod
    def _refused(params):
        numeric_corr(CorrelationQuery(s=5.0, delta=1, params=params))

    def test_amplitude_excess_precision(self):
        # the subtracted amplitude f_j - 1/N against 650-digit arithmetic, up to
        # where eta^2 overflows; the difference form (a - r)/(N r) is 8e-8 off at
        # eta = 1e5, and eta^4 in r overflowed past eta ~ 1e77
        mpmath = pytest.importorskip("mpmath")
        n_sp = 9
        mus = np.array([0.0, 1e-3, 0.3, 0.999])
        # dense where the amplitude has structure, one point a decade in the tail
        etas = np.concatenate([np.logspace(-6, 6, 61), np.logspace(7, 150, 144)])
        values = _amplitude_excess(mus, n_sp)(etas)
        with mpmath.workdps(650):
            for i, eta in enumerate(etas):
                e2 = mpmath.mpf(float(eta)) ** 2
                for k, mu in enumerate(mus):
                    mu = mpmath.mpf(float(mu))
                    root = mpmath.sqrt(mu * mu + 2 * e2 + e2 * e2)
                    exact = ((1 + e2 + mpmath.sqrt(1 - mu * mu)) / root - 1) / n_sp
                    assert abs(values[k, i] - exact) <= 1e-14 * exact

    @staticmethod
    def _exact_excess(mu: float, eta: float, n_sp: int):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(650):  # (a - r)/r is 1e-300 of a at eta = 1e150
            mu, e2 = mpmath.mpf(mu), mpmath.mpf(eta) ** 2
            root = mpmath.sqrt(mu * mu + 2 * e2 + e2 * e2)
            return ((1 + e2 + mpmath.sqrt(1 - mu * mu)) / root - 1) / n_sp

    @settings(max_examples=200, deadline=None)
    @example(mu=0.0, eta=1e-160)
    @example(mu=5e-324, eta=1e-160)
    @example(mu=1e-155, eta=1e-155)
    @example(mu=1.0 - 2.0**-53, eta=1e150)
    @given(mu=st.one_of(st.floats(0.0, 1.0, exclude_max=True),
                        st.floats(-323.0, 0.0).map(lambda x: 10.0**x).filter(lambda mu: mu < 1.0)),
           eta=st.floats(-160.0, 150.0).map(lambda x: 10.0**x))
    def test_property_amplitude_excess_against_mpmath(self, mu, eta):
        # mu near 1 needs 1 - mu^2 without rounding mu^2; mu and eta both under
        # 1e-154 leave b = mu^2/(1 + c) + eta^2 below the normal floats
        value = _amplitude_excess(np.array([mu]), 9)(eta)[0]
        exact = self._exact_excess(mu, eta, 9)
        assert abs(value - exact) <= 1e-14 * exact

    @settings(max_examples=50, deadline=None)
    @given(eta=st.floats(-300.0, -155.0).map(lambda x: 10.0**x))
    def test_massless_level_where_eta_squared_underflows(self, eta):
        # eta^2 is subnormal or 0, so b = eta^2 has lost its digits; at s = 1e200
        # the quadrature's every node lies here
        value = _amplitude_excess(np.array([0.0]), 9)(eta)[0]
        assert math.isfinite(value) and math.isfinite(eta * value)
        assert abs(value - self._exact_excess(0.0, eta, 9)) <= 1e-14 * value

    @settings(max_examples=50, deadline=None)
    @given(mu=st.floats(0.0, 1.0, exclude_max=True),
           eta=st.floats(1.4e154, 1.7976931348623157e308))
    def test_nan_where_eta_squared_overflows(self, mu, eta):
        # a NaN ends the quadrature at the first step (test_overflowing_integrand_fails_fast)
        with np.errstate(all="ignore"):
            assert np.isnan(_amplitude_excess(np.array([mu]), 9)(eta)[0])

    @pytest.mark.parametrize("eta", [0.3, [], [1e-200, 1e-161, 0.5, 1e160, math.inf],
                                     [[2.0, 1e-3], [7.0, 1e120]]])
    def test_amplitude_excess_is_level_major(self, eta):
        # one row per gap ratio; layout changes no entry, as rounding is elementwise
        # (subnormal mu^2/(1 + c) and eta^2 included)
        mus = np.array([0.0, 1e-170, 1e-160, 0.3, 1.0 - 2.0**-53])
        with np.errstate(all="ignore"):
            values = _amplitude_excess(mus, 9)(np.array(eta))
            assert values.shape == mus.shape + np.shape(eta)
            for index in np.ndindex(values.shape):
                single = _amplitude_excess(mus[[index[0]]], 9)(np.array(eta)[index[1:]])[0]
                assert values[index].tobytes() == single.tobytes(), index

    def test_nan_gap_ratios_refused(self):
        # n U overflows to inf, and with it the cutoff, so every gap ratio is NaN
        params = ModelParams(9, 2.0**-600, 2.0**600, 2.0**600, 2.0**600, -2.0**600)
        with pytest.raises(ValidityError):
            self._refused(params)

    def test_free_asymptote(self, standard_params):
        value = self._amplitude(standard_params, 3, 1e4)
        assert value * 9.0 == pytest.approx(1.0, abs=1e-7)

    def test_gapless_reduction(self, standard_params):
        eta = 0.37
        expected = (2.0 + eta * eta) / (9.0 * eta * math.sqrt(2.0 + eta * eta))
        assert self._amplitude(standard_params, 0, eta) == pytest.approx(expected, rel=1e-14)

    def test_consistency_with_amplitudes(self, standard_params):
        scales = derive_scales(standard_params, mono_metric=True)
        eta = 0.1 * scales.healing_length
        amps = bogoliubov_amplitudes(standard_params, 0, 0.1)
        assert self._amplitude(standard_params, 0, eta) == pytest.approx(
            (amps.u - amps.v) ** 2, rel=1e-13
        )
        assert self._amplitude(standard_params, 0, eta) == pytest.approx(2.4369, abs=1e-4)

    def test_gap_above_cutoff(self):
        # grossly multi-metric set: E_r1 = sqrt(6.6) far above m c_s^2|_mono
        params = ModelParams(3, 1.0, 1.0, 1.0, -0.45, -0.5)
        assert rest_energy_sq(params, 1) > (params.nU - 2.0 * params.rabi) ** 2
        with pytest.raises(ValidityError):
            self._refused(params)

    def test_mildly_non_mono_rejected(self):
        params = ModelParams(9, 1.0, 1.0, 1.0, 0.0, -0.1)
        message = "mono_metric scales requested but n*U' != -Omega (nU'=0, Omega=-0.1)"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            self._refused(params)

    def test_tachyonic_rejected(self):
        params = ModelParams(9, 1.0, 1.0, 1.0, -0.1, 0.1)
        with pytest.raises(StabilityError):
            self._refused(params)

    @pytest.mark.parametrize("omega", [1e-15, 1e-13, 1e-12])
    def test_tiny_positive_rabi_is_tachyonic(self, omega):
        # mono-metric with Omega > 0: every massive gap^2 is negative, if only by about Omega
        params = ModelParams(9, 1.0, 1.0, 1.0, -omega, omega)
        assert np.all(rest_energy_sq(params, np.arange(1, 5)) < 0)
        query = CorrelationQuery(s=20.0, delta=1, params=params)
        for refused in (lambda: numeric_corr(query), lambda: correlation_table(params, [20.0], 1)):
            with pytest.raises(StabilityError, match="^tachyonic gap at j=1; "):
                refused()

    @settings(max_examples=200, deadline=None)
    @example(ratio=1e-300, n_sp=1001)
    @example(ratio=0.24, n_sp=3)
    @example(ratio=0.24, n_sp=1001)
    @given(ratio=st.one_of(st.floats(1e-300, 0.24),
                           st.floats(-300.0, math.log10(0.24)).map(lambda x: 10.0**x)),
           n_sp=st.integers(1, 500).map(lambda k: 2 * k + 1))
    def test_property_stable_sets_have_real_gaps(self, ratio, n_sp):
        # Omega < 0 with n U' = -Omega fixes the sign of every factor of gap^2, so the
        # exact rule gap^2 < 0 refuses no stable set
        params = normalized_params(ratio, n_sp)
        assert np.all(rest_energy_sq(params, np.arange(n_sp // 2 + 1)) >= 0)
        _gap_ratios(params)

    def test_no_sound_cone_rejected(self):
        # nU - 2 Omega = -0.2: the CLI meets derive_scales' check first
        params = ModelParams(9, 1.0, 1.0, 1.0, -0.6, 0.6)
        with pytest.raises(StabilityError, match="no stable sound cone"):
            self._refused(params)

    def test_vectorized(self, standard_params):
        etas = np.array([0.5, 1.0, 2.0])
        values = self._amplitude(standard_params, 2, etas)
        assert values.shape == (3,)
        assert np.all(np.diff(values) < 0)


class TestNumericCorrelator:
    def test_figure_regime_long_distance(self, figure_params):
        query = CorrelationQuery(s=20.0, delta=1, params=figure_params)
        numeric, err = numeric_corr(query)
        analytic = analytic_corr(query)
        assert abs(numeric - analytic) / analytic < 0.05
        assert err >= 0.0

    def test_short_distance_departure(self, figure_params):
        query = CorrelationQuery(s=2.0, delta=1, params=figure_params)
        numeric, _ = numeric_corr(query)
        analytic = analytic_corr(query)
        assert abs(numeric - analytic) / analytic > 0.05

    def test_delta_symmetry_bitwise(self, figure_params):
        near = numeric_corr(CorrelationQuery(s=12.0, delta=1, params=figure_params))
        far = numeric_corr(CorrelationQuery(s=12.0, delta=8, params=figure_params))
        assert near == far

    def test_imaginary_part_cancels(self, figure_params):
        # the sine-weighted companion of the cosine mode sum must vanish
        n_sp = figure_params.species_count
        mus = _gap_ratios(figure_params)[abs(kk_label(np.arange(n_sp), n_sp))]
        angles = 2.0 * math.pi * np.arange(n_sp) / n_sp
        excess = _amplitude_excess(mus, n_sp)

        def weighted(weights):
            rows = np.stack([weights, np.abs(weights)])
            integral, _ = fourier_sin_integral(lambda eta: eta * (rows @ excess(eta)), 15.0)
            return integral

        total_cos = weighted(np.cos(angles))
        total_sin = weighted(np.sin(angles))
        assert abs(total_sin) <= 1e-12 * abs(total_cos)

    def test_contact_term_excluded_at_delta_zero(self, figure_params):
        # at Delta=0 the subtracted constants do not cancel in the sum, but for
        # s > 0 the contact term vanishes identically; the value must be finite
        # and dominated by the massless-mode physics at long distance
        query = CorrelationQuery(s=30.0, delta=0, params=figure_params)
        value, _ = numeric_corr(query)
        assert math.isfinite(value)
        assert value > 0.0

    def test_flat_at_vanishing_separation(self):
        # for Delta != 0 the synthetic distance dominates: D(s) - D(0) = O(s^2),
        # so at s = 1e-6 the level sum must keep the cancellation of the I_l(0)
        params = normalized_params(0.1, 101)
        tiny, err = numeric_corr(CorrelationQuery(s=1e-6, delta=3, params=params))
        small, _ = numeric_corr(CorrelationQuery(s=1e-4, delta=3, params=params))
        assert abs(tiny - small) <= 1e-6 * small
        assert err <= 1e-6 * small

    def test_scale_free_at_tiny_separation(self):
        # D ~ 1/s as s -> 0 at fixed Delta: below s ~ 1e-17 every e^(-s u) is 1.0,
        # so s D is the same sum divided by 2 pi^2, down to where 1/s overflows
        params = normalized_params(0.1, 9)
        values = [s * numeric_corr(CorrelationQuery(s=s, delta=1, params=params))[0]
                  for s in (1e-30, 1e-100, 1e-160, 1e-300)]
        assert values == pytest.approx([6.6314559621623095e-3] * 4, rel=1e-15)

    @pytest.mark.parametrize("s", [1e292, 1e300, 1.7976931348623157e308, math.inf])
    def test_vanishes_at_the_largest_separations(self, s):
        # the cut's reach, about 39/s, is subnormal or 0, and so is D ~ 1/s^2:
        # no table entry may be NaN there, nor s kappa at s = inf
        value, err = numeric_corr(CorrelationQuery(s=s, delta=1, params=normalized_params(1e-3, 9)))
        assert (value, err) == (0.0, 0.0)

    def test_unrepresentable_separation_fails(self):
        # at s = 5e-324 the sum is finite, but D = sum/(2 pi^2 s) overflows
        with pytest.raises(QuadratureError, match="^D = inf at s = 5e-324 is not a finite float$"):
            numeric_corr(CorrelationQuery(s=5e-324, delta=1, params=normalized_params(0.1, 9)))

    def test_cancelling_weights_against_long_double(self):
        # at N = 1001, Delta = 500 the weights cos(2 pi j Delta/N) cancel to
        # 1e-16 of the sum only if each angle is reduced mod 2 pi exactly;
        # rounding 2 pi j Delta/N near j Delta ~ 5e5 moved D by 40 times its
        # error estimate. Reference: all N modes in long double through the
        # double-exponential rule at step 5, a second method.
        n_sp, delta, s = 1001, 500, 10.0**-2.5
        params = normalized_params(1e-3, n_sp)
        value, err = numeric_corr(CorrelationQuery(s=s, delta=delta, params=params))
        ld = np.longdouble
        two_pi = 8 * np.arctan(ld(1))
        j = np.arange(n_sp)
        cos_a = np.cos(two_pi * j / n_sp)
        om, cutoff = ld(params.rabi), ld(params.nU) - 2 * ld(params.rabi)
        mu_sq = np.maximum(4 * om * (cos_a - 1) * ((2 * ld(params.nUprime) + om) * cos_a
                                                  + ld(params.nU) - om), 0) / cutoff**2
        c = np.sqrt(1 - mu_sq)
        weights = np.cos(two_pi * (j * delta % n_sp) / n_sp)
        nodes, rule = _de_rule(4)
        eta = (nodes.astype(ld) / ld(s))[:, np.newaxis]
        a = 1 + c + eta * eta
        r = np.sqrt(mu_sq + eta * eta * (2 + eta * eta))
        integrand = eta[:, 0] * ((2 * c / n_sp) * (a / r) / (a + r) @ weights)
        expected = float(np.sum(rule.astype(ld) * integrand) / ld(s)) / (2.0 * math.pi**2 * s)
        assert abs(value - expected) <= 2.0 * err

    @settings(max_examples=60, deadline=None)
    @example(log_ratio=-6.0, n_sp=3, delta=0, log_s=-300.0)
    @example(log_ratio=-6.0, n_sp=1001, delta=500, log_s=300.0)
    @example(log_ratio=-4.0, n_sp=101, delta=50, log_s=-3.0)
    @example(log_ratio=-3.0, n_sp=1001, delta=333, log_s=5.0)
    @example(log_ratio=-1.0, n_sp=9, delta=1, log_s=-160.0)
    @example(log_ratio=math.log10(0.24), n_sp=51, delta=17, log_s=0.0)
    @example(log_ratio=math.log10(0.4), n_sp=9, delta=4, log_s=-300.0)
    @example(log_ratio=math.log10(0.9), n_sp=1001, delta=500, log_s=-300.0)
    @example(log_ratio=math.log10(0.9), n_sp=3, delta=1, log_s=math.log10(1.7e308))
    @given(log_ratio=st.floats(-6.0, math.log10(0.9)),
           n_sp=st.integers(1, 500).map(lambda k: 2 * k + 1),
           delta=st.integers(0, 1000), log_s=st.floats(-300.0, math.log10(1.7e308)))
    def test_property_every_row_passes_the_one_tolerance(self, log_ratio, n_sp, delta, log_s):
        # what lets the tolerance be fixed: across |Omega|/nU in [1e-6, 0.9], odd N up to
        # 1001, any Delta and s in [1e-300, 1.7e308], no row fails at it
        params = normalized_params(10.0**log_ratio, n_sp)
        value, err = numeric_corr(CorrelationQuery(s=10.0**log_s, delta=delta % n_sp,
                                                   params=params))
        assert math.isfinite(value) and 0.0 <= err < math.inf

    def test_quadrature_error_propagates(self, figure_params):
        # D overflows at s = 5e-324: the error carries the overflowed value and its estimate
        query = CorrelationQuery(s=5e-324, delta=1, params=figure_params)
        with pytest.raises(QuadratureError) as excinfo:
            numeric_corr(query)
        assert excinfo.value.partial_value == math.inf
        assert excinfo.value.error_estimate is not None


class TestQuadpackOracle:
    """The mode sum against N independent QUADPACK integrals."""

    HARD = [(ratio, n_sp, s, delta)
            for ratio in (1e-3, 0.1)
            for n_sp in (51, 101)
            for s in (0.05, 0.3)
            for delta in (n_sp // 3, n_sp // 2)]
    EASY = [(1e-3, 9, 1.5, 0), (1e-3, 9, 20.0, 1), (0.1, 9, 5.0, 3), (0.1, 51, 200.0, 2),
            (0.1, 101, 1e-3, 3)]
    # rows that cancel to 1e-9 of their per-mode scale, with the mode gaps at
    # eta ~ mu_j = 1e-4..1e-2, which the double-exponential nodes must resolve
    WEAK = [(1e-5, 101, 1.0, 33), (1e-6, 101, 1.0, 33)]

    @pytest.mark.parametrize("ratio, n_sp, s, delta", HARD + EASY + WEAK)
    def test_matches_per_mode_quadpack(self, ratio, n_sp, s, delta):
        params = normalized_params(ratio, n_sp)
        expected, scale = correlator_quadpack_oracle(params, s, delta)
        value, err = numeric_corr(CorrelationQuery(s=s, delta=delta, params=params))
        assert abs(value - expected) <= 1e-9 * scale
        assert value == pytest.approx(expected, rel=1e-4)
        # never below the roundoff of the pointwise weighted mode sum
        assert 1e-16 * scale <= err <= 1e-9 * scale

    # QUADPACK integrates every one of the N modes on its own, so it checks the
    # sum over the (N+1)/2 levels independently; below s = 1e-5 it returns
    # wrong values without a warning
    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 10).flatmap(lambda k: st.tuples(st.just(2 * k + 1), st.integers(0, 2 * k))),
           st.floats(math.log10(1e-4), math.log10(0.2)), st.floats(-5.0, 2.0))
    def test_property_matches_per_mode_quadpack(self, mode_count_and_delta, log_ratio, log_s):
        (n_sp, delta), ratio, s = mode_count_and_delta, 10.0**log_ratio, 10.0**log_s
        params = normalized_params(ratio, n_sp)
        expected, scale = correlator_quadpack_oracle(params, s, delta)
        value, err = numeric_corr(CorrelationQuery(s=s, delta=delta, params=params))
        assert abs(value - expected) <= 1e-9 * scale
        assert 1e-16 * scale <= err <= 1e-9 * scale


class TestBranchCutRule:
    """numeric_corr's branch-cut integrals against the eta-domain route and 30-digit mpmath."""

    # the largest |difference| / (err + reference err) measured was 1.29, over 2,200 rows:
    # |Omega|/nU in {1e-6, 1e-3, 0.1, 0.24}, N in {3, 9, 51, 101, 1001}, four Delta, and s
    # in logspace(-3, 5, 17) and from 1e-300 to 1e300; err holds its roundoff size
    AGREEMENT = 2.0

    @settings(max_examples=60, deadline=None)
    @example(mode_count_and_delta=(1001, 0), log_ratio=math.log10(0.2), log_s=1.0)
    @example(mode_count_and_delta=(1001, 1), log_ratio=-3.0, log_s=4.0)
    @example(mode_count_and_delta=(3, 1), log_ratio=-4.0, log_s=-2.0)
    @given(st.integers(1, 500).flatmap(lambda k: st.tuples(st.just(2 * k + 1), st.integers(0, 2 * k))),
           st.floats(-4.0, math.log10(0.2)), st.floats(-2.0, 4.0))
    def test_property_matches_the_eta_domain_route(self, mode_count_and_delta, log_ratio, log_s):
        (n_sp, delta), ratio, s = mode_count_and_delta, 10.0**log_ratio, 10.0**log_s
        params = normalized_params(ratio, n_sp)
        value, err = numeric_corr(CorrelationQuery(s=s, delta=delta, params=params))
        reference, reference_err = double_exponential_corr(params, s, delta)
        assert abs(value - reference) <= self.AGREEMENT * (err + reference_err)

    @staticmethod
    def _exact_level(mu: float, s: float, decay: bool = True) -> float:
        """I(s) = int_kappa^kappa' t e^(-t s) sqrt((kappa'^2 - t^2)/(t^2 - kappa^2)) dt, 30 digits;
        without its decay e^(-kappa s) if not ``decay``."""
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(30):
            mu, s = mpmath.mpf(mu), mpmath.mpf(s)
            c = mpmath.sqrt(1 - mu * mu)
            kappa, top = mu / mpmath.sqrt(1 + c), mpmath.sqrt(1 + c)
            length = top - kappa

            def integrand(u):  # t = kappa + u
                t = kappa + u
                return t * mpmath.exp(-s * u) * mpmath.sqrt((length - u) * (top + t)
                                                            / (u * (t + kappa)))

            # break points where e^(-s u) has fallen by e^-1, e^-10, ...: the boundary layer
            cuts = [x / s for x in (1, 10, 100, 1000) if x / s < length]
            scale = mpmath.exp(-s * kappa) if decay else 1
            return float(scale * mpmath.quad(integrand, [0, *cuts, length]))

    # where the cut's reach drops the most: s R = X exactly (R = sqrt2/16), and the first s
    # past sqrt2 X, whose reach sqrt2/2 halves the whole cut
    AT_X = correlation._CUT_X / math.ldexp(math.sqrt(2.0), -4)
    PAST_WHOLE = math.nextafter(math.sqrt(2.0) * correlation._CUT_X, math.inf)

    @pytest.mark.parametrize("mu, s", [
        (0.0, 1e-2), (0.0, 1.0), (0.0, 1e3), (0.0, 1e4), (0.0, 1e6),
        (1e-3, 1.0), (1e-3, 1e3), (1e-3, 1e4), (1e-3, 1e5), (1e-5, 1e4), (1e-5, 1e6),
        (0.3, 1e-2), (0.3, 30.0), (0.3, 1e3), (1.0 - 2.0**-20, 1.0), (1.0 - 2.0**-20, 300.0),
        *((mu, s) for s in (AT_X, PAST_WHOLE, 1e4) for mu in (0.0, 1e-5, 1e-3, 0.3, 1.0 - 2.0**-20)
          if (mu, s) not in ((0.0, 1e4), (1e-3, 1e4), (1e-5, 1e4)))])
    def test_single_levels_against_mpmath(self, monkeypatch, mu, s):
        # one level at a tolerance of 1e-12, weighted by 2 pi^2 s over its exact value so that
        # the row reads its relative error: with its decay e^(-kappa s), which carries kappa's
        # rounding kappa s times (207 at (0.3, 1e3)), and as the cut sum e^(kappa s) I alone
        # (kappa = 0 in the table), all that is left to check where the decay underflows
        monkeypatch.setattr(correlation, "_REL_TOL", 1e-12)
        reach = correlation._cut_reach(s)
        for decay in (True, False):
            exact = self._exact_level(mu, s, decay)
            if exact == 0.0:  # e^(-kappa s) underflows: (0.3, 1e4) and (1 - 2^-20, 1e4)
                continue

            def level(params, call, reach):
                kappa, weights, offsets = correlation._cut_table(np.array([mu]), 1, call, reach)
                return kappa * decay, weights, offsets

            monkeypatch.setattr(correlation, "_cut_call", level)
            value, err = correlation._numeric_row(None, reach,
                                                  np.full((2, 1), 2.0 * math.pi**2 * s / exact), s)
            assert abs(value - 1.0) <= err <= 1e-12, decay

    def test_where_the_eta_domain_estimate_falls_short(self):
        # |Omega|/nU = 0.9, N = 51, Delta = 0 at s = 11.48 of the default grid: the eta-domain
        # route reads an estimate of 9.4e-19 there against an error of 1.02e-18. The cuts'
        # level sum must hold its own estimate against 30-digit mpmath
        mpmath = pytest.importorskip("mpmath")
        params, s = normalized_params(0.9, 51), 11.480588739057128
        value, err = numeric_corr(CorrelationQuery(s=s, delta=0, params=params))
        levels = [self._exact_level(mu, s) for mu in _gap_ratios(params).tolist()]
        with mpmath.workdps(30):
            total = mpmath.fsum(mpmath.mpf(weight) * level
                                for weight, level in zip(_level_weights(51, 0)[0].tolist(), levels))
            exact = float(total / (51 * 2 * mpmath.pi**2 * s))
        assert abs(value - exact) <= err

    @settings(max_examples=100, deadline=None)
    @example(log_ratio=-323.3, n_sp=3, log_s=308.2, call=0)
    @example(log_ratio=-323.3, n_sp=1001, log_s=-300.0, call=3)
    @given(log_ratio=st.floats(-323.3, math.log10(0.24)),
           n_sp=st.integers(1, 500).map(lambda k: 2 * k + 1),
           log_s=st.floats(-300.0, 308.25), call=st.integers(0, 3))
    def test_property_table_entries_are_finite(self, log_ratio, n_sp, log_s, call):
        # |Omega|/nU down to 5e-324 and reaches down to about 39/1.8e308: no entry may be
        # NaN, inf or negative where kappa, t - kappa or the reach underflow
        params = normalized_params(10.0**log_ratio, n_sp)
        table = correlation._cut_call(params, call, correlation._cut_reach(10.0**log_s))
        assert all(np.all(np.isfinite(array) & (array >= 0)) for array in table)


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= 1e-18, reason="long double is not wider than double")
class TestLevelSumRoundoff:
    """D_numeric_err bounds the roundoff of the level sum.

    The reference redoes the sum in long double on the same nodes, so the
    difference is double-precision roundoff alone. The rows cancel deeply at
    large s: there the pointwise roundoff of the sum, which does not oscillate
    away, is far above the size of the mode integrals, and a floor scaled to
    that size came out up to 8.7 times too small.
    """

    ROWS = [(1e-6, 51, 25, 100.0), (1e-6, 9, 3, 300.0), (1e-6, 1001, 500, 100.0),
            (1e-3, 51, 25, 100.0), (1e-6, 101, 50, 100.0), (1e-6, 51, 25, 30.0),
            (0.1, 51, 1, 10.0), (1e-3, 9, 0, 300.0)]

    @pytest.mark.parametrize("ratio, n_sp, delta, s", ROWS)
    def test_bounds_the_long_double_sum(self, ratio, n_sp, delta, s):
        value, err, reference = long_double_level_sum(normalized_params(ratio, n_sp), s, delta)
        assert abs(value - reference) <= err

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 50).flatmap(lambda k: st.tuples(st.just(2 * k + 1), st.integers(0, 2 * k))),
           st.floats(-6.0, math.log10(0.24)), st.floats(-3.0, 5.0))
    def test_property_bounds_the_long_double_sum(self, mode_count_and_delta, log_ratio, log_s):
        (n_sp, delta), ratio, s = mode_count_and_delta, 10.0**log_ratio, 10.0**log_s
        value, err, reference = long_double_level_sum(normalized_params(ratio, n_sp), s, delta)
        assert abs(value - reference) <= err


def _table_calls(monkeypatch) -> list[int]:
    """The nodes of every table call of the branch-cut rule that numeric_corr reads, in order.

    A row reads a call's (levels, n) table in one exp pass; the table itself
    is built once per parameter set, call and reach (``_cut_call``).
    """
    calls = []
    cut_call = correlation._cut_call

    def counted(params, call, reach):
        table = cut_call(params, call, reach)
        calls.append(table[1].shape[1])
        return table

    monkeypatch.setattr(correlation, "_cut_call", counted)
    return calls


@pytest.mark.parametrize("n_sp, s, delta", [(9, 0.1, 1), (51, 0.05, 17)])
def test_evaluation_count_gate(monkeypatch, cold_memos, n_sp, s, delta):
    # machine-independent work bound: a row reads no table beyond the steps its stop
    # test asks for, here steps 1 and 2, whether or not the memo is warm
    query = CorrelationQuery(s=s, delta=delta, params=normalized_params(1e-3, n_sp))
    memo, calls = correlation._cut_call, _table_calls(monkeypatch)
    numeric_corr(query)
    numeric_corr(query)
    assert calls == [161, 161]
    assert (memo.cache_info().currsize, memo.cache_info().hits) == (1, 1)


@pytest.mark.parametrize("n_sp, s", [(9, 1.2), (9, 2.0), (9, 4.0), (51, 4.0), (51, 40.0),
                                     (51, 56.0), (51, 100.0), (51, 150.0), (51, 250.0),
                                     (51, 400.0)])
def test_benchmark_rows_take_one_integrand_call(monkeypatch, cold_memos, n_sp, s):
    # rows in the ranges of both correlator benchmarks stop at step 2, so each reads one
    # table call, of the 161 joined nodes of steps 1 and 2: past s = sqrt2 X the cut stops
    # at s R < 2X, so the boundary layer e^(-s u) spans the same nodes at every s
    params = normalized_params(1e-3, n_sp)
    calls = _table_calls(monkeypatch)
    for delta in (0, 1, n_sp // 2):
        numeric_corr(CorrelationQuery(s=s, delta=delta, params=params))
    assert calls == [161] * 3


def test_overflowing_integrand_fails_fast(monkeypatch, cold_memos):
    # at s = 5e-324 the sum agrees at step 2, and D = sum/(2 pi^2 s) overflows: the
    # row must fail after its one table call
    calls = _table_calls(monkeypatch)
    with pytest.raises(QuadratureError, match="is not a finite float"):
        numeric_corr(CorrelationQuery(s=5e-324, delta=1, params=normalized_params(0.1, 9)))
    assert calls == [161]


class TestStepCalls:
    """Steps 1 and 2 of the branch-cut rule share one table call; every later step has its own."""

    def test_cut_tables_are_the_rule_steps(self):
        # call k > 0 adds the 80 2^k odd nodes of step k + 2; the offsets u = sqrt2 p(tau) of
        # the massless level, sorted, are those of tau = i h, |tau| <= 4, at h = 0.1 2^-(k+1)
        tables = [correlation._cut_table(np.array([0.0]), 1, call, math.inf)
                  for call in range(correlation._CUT_CALLS)]
        assert [table[1].shape for table in tables] == [(1, 161), (1, 160), (1, 320), (1, 640)]
        for call in range(correlation._CUT_CALLS):
            tau = np.arange(-(80 << call), (80 << call) + 1) * (0.05 * 0.5**call)
            expected = 2.0 / math.sqrt(2.0) / (1.0 + np.exp(-np.pi * np.sinh(tau)))
            offsets = np.sort(np.concatenate([table[2][0] for table in tables[:call + 1]]))
            assert offsets == pytest.approx(expected, rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("s, expected", [(40.0, [161]), (0.01, [161]), (400.0, [161])])
    def test_calls_of_a_row(self, monkeypatch, cold_memos, s, expected):
        # 81 + 80 nodes for steps 1 and 2, then the 160 of step 3
        calls = _table_calls(monkeypatch)
        numeric_corr(CorrelationQuery(s=s, delta=1, params=normalized_params(1e-3, 9)))
        assert calls == expected

    def test_a_cancelling_row_reads_step_three(self, monkeypatch, cold_memos):
        # at |Omega|/nU = 1e-6 the weights at Delta = N//2 cancel the level sum to 1.8e-8 of
        # its size, 2.4: steps 1 and 2 differ by 8e-15, above the absolute tolerance of 1e-15,
        # and step 3 agrees
        calls = _table_calls(monkeypatch)
        numeric_corr(CorrelationQuery(s=1.0, delta=4, params=normalized_params(1e-6, 9)))
        assert calls == [161, 160]


class TestTruncatedCorrelator:
    def test_massless_only(self, figure_params):
        for s in (5.0, 20.0):
            query = CorrelationQuery(s=s, delta=1, params=figure_params)
            expected = 1.0 / (9.0 * math.sqrt(2.0) * math.pi**2 * s * s)
            assert truncated_corr(query, 0) == pytest.approx(expected, rel=1e-14)

    def test_massive_terms_decay_exponentially(self, figure_params):
        ratio = derive_scales(figure_params, mono_metric=True).length_ratio
        mass = 2.0 * math.pi / (9.0 * ratio)
        s1, s2 = 50.0, 100.0
        q1 = CorrelationQuery(s=s1, delta=0, params=figure_params)
        q2 = CorrelationQuery(s=s2, delta=0, params=figure_params)
        massive1 = truncated_corr(q1, 1) - truncated_corr(q1, 0)
        massive2 = truncated_corr(q2, 1) - truncated_corr(q2, 0)
        observed = massive2 / massive1
        # two K1(mass*s)/s factors: ratio ~ exp(-mass*(s2-s1)) * (s1/s2)^(3/2) * ...
        predicted = (
            2.0 * mass * float(special.k1(mass * s2)) / (math.sqrt(2.0) * 9.0 * math.pi**2 * s2)
        ) / (2.0 * mass * float(special.k1(mass * s1)) / (math.sqrt(2.0) * 9.0 * math.pi**2 * s1))
        assert observed == pytest.approx(predicted, rel=1e-10)
        assert observed < math.exp(-mass * (s2 - s1)) * 1.5

    def test_weighting_flag(self, figure_params):
        query = CorrelationQuery(s=15.0, delta=1, params=figure_params)
        weighted = truncated_corr(query, 2, weighted=True)
        unweighted = truncated_corr(query, 2, weighted=False)
        assert weighted != unweighted
        zero_delta = CorrelationQuery(s=15.0, delta=0, params=figure_params)
        assert truncated_corr(zero_delta, 2, True) == truncated_corr(zero_delta, 2, False)

    def test_delta_symmetry_bitwise(self, figure_params):
        near = truncated_corr(CorrelationQuery(s=15.0, delta=1, params=figure_params), 2)
        far = truncated_corr(CorrelationQuery(s=15.0, delta=8, params=figure_params), 2)
        assert near == far

    def test_truncation_bounds(self, figure_params):
        query = CorrelationQuery(s=15.0, delta=1, params=figure_params)
        with pytest.raises(ValueError):
            truncated_corr(query, 5)
        with pytest.raises(ValueError):
            truncated_corr(query, -1)

    @pytest.mark.parametrize("j_tr", [0, 2, 4])
    def test_one_k1_call_per_level(self, monkeypatch, figure_params, j_tr):
        # modes n and N - n share a level, so a level costs one K1, not two
        calls, k1 = [], correlation.bessel_k1
        monkeypatch.setattr(correlation, "bessel_k1", lambda x: calls.append(x) or k1(x))
        truncated_corr(CorrelationQuery(s=15.0, delta=1, params=figure_params), j_tr)
        assert len(calls) == j_tr

    @pytest.mark.parametrize("ratio, s", [(1e-3, 1e-322), (0.1, 5e-324)])
    def test_underflowing_argument_takes_the_limit(self, monkeypatch, ratio, s):
        # a level whose m s underflows to 0 (level 1 at least) takes the limit 1/s, and K1
        # sees only positive arguments
        calls, k1 = [], correlation.bessel_k1
        monkeypatch.setattr(correlation, "bessel_k1", lambda x: calls.append(x) or k1(x))
        query = CorrelationQuery(s=s, delta=1, params=normalized_params(ratio, 9))
        assert truncated_corr(query, 2) == math.inf
        assert len(calls) < 2 and all(x > 0 for x in calls)

    @pytest.mark.parametrize("delta", [24, 25, 26, 27])
    def test_cancelling_full_tower_against_mpmath(self, delta):
        # near Delta = N/2 the level weights alternate in sign and the terms
        # m K1(m s) ~ 1/s nearly cancel; what is left must carry only the
        # roundoff of the weights and the sum
        mpmath = pytest.importorskip("mpmath")
        n_sp, s, j_tr = 51, 0.5, 25
        params = normalized_params(1e-3, n_sp)
        value = truncated_corr(CorrelationQuery(s=s, delta=delta, params=params), j_tr)
        with mpmath.workdps(30):
            ratio = mpmath.mpf(derive_scales(params, mono_metric=True).length_ratio)
            terms = [1 / mpmath.mpf(s)]
            for n in range(1, j_tr + 1):
                mass = 2 * mpmath.pi * n / n_sp / ratio
                weight = 2 * mpmath.cos(2 * mpmath.pi * n * delta / n_sp)
                terms.append(weight * mass * mpmath.besselk(1, mass * s))
            norm = n_sp * mpmath.sqrt(2) * mpmath.pi**2 * s
            expected, scale = mpmath.fsum(terms) / norm, mpmath.fsum(map(abs, terms)) / norm
            assert abs(value - expected) <= 2e-16 * scale


@pytest.mark.parametrize("n_sp", [3, 8, 9, 51, 1001])
def test_level_weights_sum_the_mode_weights(n_sp):
    # reference: the cosine of every mode j, summed onto its level |n(j)|; at
    # even N the level N/2 holds one mode
    modes = np.arange(n_sp)
    levels = abs(kk_label(modes, n_sp))
    for delta in range(n_sp):
        mode_weights = np.cos(2.0 * np.pi * abs(kk_label(modes * delta, n_sp)) / n_sp)
        expected = np.bincount(levels, mode_weights)
        assert _level_weights(n_sp, delta)[0].tobytes() == expected.tobytes(), delta


def _counted(monkeypatch, name) -> list[int]:
    calls, function = [0], getattr(correlation, name)

    def counted(*args, **kwargs):
        calls[0] += 1
        return function(*args, **kwargs)

    monkeypatch.setattr(correlation, name, counted)
    return calls


class TestLevelBasisMemo:
    """Gap ratios, level weights, a/xi and the branch-cut tables are built once, read-only."""

    PARAMS = ModelParams(9, 1.0, 1.0, 1.0, 1e-3, -1e-3)
    TACHYONIC = ModelParams(9, 1.0, 1.0, 1.0, -0.1, 0.1)
    NON_MONO = ModelParams(9, 1.0, 1.0, 1.0, 0.0, -0.1)
    # pairs that compare equal but differ in a field's type or in the sign of a zero
    EQUAL_SETS = [
        (PARAMS, ModelParams(9, 1, 1, 1, 1e-3, -1e-3)),
        (PARAMS, ModelParams(np.int64(9), np.float64(1.0), 1.0, 1.0, 1e-3, np.float64(-1e-3))),
        (ModelParams(9, 1.0, 1.0, 1.0, 1e-3, -1e-3, 0.0),
         ModelParams(9, 1.0, 1.0, 1.0, 1e-3, -1e-3, -0.0)),
        (ModelParams(9, 1.0, 1.0, 1.0, 0.0, -1e-15), ModelParams(9, 1.0, 1.0, 1.0, -0.0, -1e-15)),
        (ModelParams(9, 1.0, 1.0, 1.0, 0.0, 0.0), ModelParams(9, 1.0, 1.0, 1.0, -0.0, -0.0)),
        (ModelParams(9, 1.0, 0.0, 1.0, 1.0, -1e-15), ModelParams(9, 1.0, -0.0, 1, 1.0, -1e-15)),
        # validate prints the sign of this zero: "atom_mass must be > 0, got -0.0"
        (ModelParams(9, 0.0, 1.0, 1.0, 1e-3, -1e-3), ModelParams(9, -0.0, 1.0, 1.0, 1e-3, -1e-3)),
    ]
    EQUAL_DELTAS = [(3, np.int64(3)), (3, 3.0), (0, -0.0), (0.0, -0.0), (1, True)]

    @staticmethod
    def _outcome(build, *args):
        """The bytes built, or the type of the error raised."""
        try:
            value = build(*args)
        except Exception as error:  # the type of any error is the outcome compared
            return type(error)
        if isinstance(value, float):
            return np.float64(value).tobytes()
        # a report, or tuples of floats, whose repr round-trips each float
        return value.tobytes() if isinstance(value, np.ndarray) else repr(value)

    def test_built_once_and_read_only(self, cold_memos):
        for memo, args in ((_gap_ratios, (self.PARAMS,)), (_level_weights, (9, 3))):
            array = memo(*args)
            assert array is memo(*args)
            assert not array.flags.writeable
            before = array.tobytes()
            with pytest.raises(ValueError):
                array[1] = 5.0
            assert array.tobytes() == before
        ratio = correlation._length_ratio(self.PARAMS)
        assert ratio == derive_scales(self.PARAMS, mono_metric=True).length_ratio
        assert correlation._length_ratio(self.PARAMS) is ratio
        assert all(memo.cache_info().hits == 1 for memo in
                   (_gap_ratios, _level_weights, correlation._length_ratio))
        table = correlation._cut_call(self.PARAMS, 0, math.sqrt(2.0))
        assert correlation._cut_call(self.PARAMS, 0, math.sqrt(2.0)) is table
        assert correlation._cut_call.cache_info().hits == 1
        # kappa, then the weights and offsets of the 161 nodes of steps 1 and 2: levels 0..N//2
        assert [array.shape for array in table] == [(5,), (5, 161), (5, 161)]
        assert all(not array.flags.writeable for array in table)
        assert correlation._cut_call(self.PARAMS, 1, math.sqrt(2.0))[1].shape == (5, 160)
        assert correlation._cut_call.cache_info().currsize == 2  # one entry a call and reach

    def test_level_table_holds_the_weights_and_their_sizes(self, cold_memos):
        table = _level_weights(9, 3)
        assert table.shape == (2, 5) and table.flags.c_contiguous
        assert table[1].tobytes() == np.abs(table[0]).tobytes()

    def test_bounded(self):
        for memo in (_gap_ratios, _level_weights, correlation._length_ratio,
                     correlation._cut_call, correlation._truncated_levels, cli._checked):
            assert memo.cache_info().maxsize is not None

    def test_rows_of_one_octave_share_their_tables(self, monkeypatch, cold_memos):
        # rows below s = sqrt2 X take the whole cut; past it each octave of s stops the cut at
        # one reach in [X/s, 2X/s), where e^(-s u) is below e^-X
        reaches = {}
        cut_call = correlation._cut_call

        def recorded(params, call, reach):
            reaches.setdefault(s, set()).add(reach)
            return cut_call(params, call, reach)

        monkeypatch.setattr(correlation, "_cut_call", recorded)
        x = correlation._CUT_X
        whole = (1e-300, 2.0, 27.0, math.sqrt(2.0) * x - 1e-13)
        far = (math.sqrt(2.0) * x, 56.0, 100.0, 2200.0, 1e5, 1e150, 1e300, 1.7976931348623157e308)
        for s in whole + far:
            numeric_corr(CorrelationQuery(s=s, delta=1, params=self.PARAMS))
        assert all(len(row) == 1 for row in reaches.values())
        reach = {s: row.pop() for s, row in reaches.items()}
        assert [reach[s] for s in whole] == [math.sqrt(2.0)] * 4
        assert all(x <= reach[s] * s < 2.0 * x for s in far)
        assert reach[math.sqrt(2.0) * x] == reach[100.0] == math.sqrt(2.0) / 2

    def test_one_cache_per_table(self):
        # the rule's steps live only in its call tables, the weights only in [w, |w|]
        memos = {name for name, value in vars(correlation).items() if hasattr(value, "cache_info")}
        assert memos == {"_length_ratio", "_gap_ratios", "_level_weights", "_cut_call",
                         "_truncated_levels"}

    @pytest.mark.parametrize("first, second", EQUAL_SETS)
    def test_equal_sets_get_the_bytes_of_a_fresh_build(self, cold_memos, first, second):
        assert first == second
        for memo, args in ((_gap_ratios, ()), (correlation._length_ratio, ()),
                           (correlation._truncated_levels, (3, 2)),
                           (cli._checked, (model.UNRESTRICTED, True)),
                           (cli._checked, (model.RELATIVISTIC, False))):
            self._outcome(memo, first, *args)
            assert (self._outcome(memo, second, *args)
                    == self._outcome(memo.__wrapped__, second, *args))
            assert (self._outcome(memo, first, *args)
                    == self._outcome(memo.__wrapped__, first, *args))

    def test_equal_arguments_are_kept_apart(self, cold_memos):
        # 2.0 == 2, but a j_tr of 2.0 cannot slice the levels: it raises on every call
        correlation._truncated_levels(self.PARAMS, 1, 2)
        for _ in range(2):
            with pytest.raises(TypeError):
                correlation._truncated_levels(self.PARAMS, 1, 2.0)
        assert correlation._truncated_levels.cache_info().currsize == 1

    @pytest.mark.parametrize("first, second", EQUAL_DELTAS)
    def test_equal_deltas_get_the_bytes_of_a_fresh_build(self, cold_memos, first, second):
        assert first == second
        _level_weights(9, first)
        fresh = self._outcome(_level_weights.__wrapped__, 9, second)
        assert self._outcome(_level_weights, 9, second) == fresh

    def test_an_int_set_too_large_for_float_still_raises(self, cold_memos):
        # equal sets: the float products overflow to inf, the exact int product
        # cannot be converted to float; neither set's outcome may answer for the other
        floats = ModelParams(9, 2.0**-600, 2.0**600, 2.0**600, 2.0**600, -2.0**600)
        ints = ModelParams(9, 2**-600, 2**600, 2**600, 2**600, -2**600)
        assert floats == ints
        for _ in range(2):
            with pytest.raises(ValidityError):
                _gap_ratios(floats)  # its gap ratios are NaN
            with pytest.raises(OverflowError):
                _gap_ratios(ints)
            with pytest.raises(ValidityError):
                correlation._cut_call(floats, 0, math.sqrt(2.0))
            with pytest.raises(OverflowError):
                correlation._cut_call(ints, 0, math.sqrt(2.0))
            with pytest.raises(OverflowError):
                correlation._length_ratio(ints)

    @pytest.mark.parametrize("params, error", [(TACHYONIC, StabilityError),
                                               (NON_MONO, ValueError)])
    def test_errors_raise_on_every_call(self, cold_memos, params, error):
        query = CorrelationQuery(s=5.0, delta=1, params=params)
        for _ in range(3):
            with pytest.raises(error):
                _gap_ratios(params)
            with pytest.raises(error):
                numeric_corr(query)
            with pytest.raises(ValueError, match="j_tr"):
                correlation._truncated_levels(params, 1, 5)
            with pytest.raises(ValueError, match="unknown regime"):
                cli._checked(params, "ultrarelativistic", False)
        for memo in (_gap_ratios, correlation._truncated_levels, cli._checked):
            assert memo.cache_info().currsize == 0

    def test_analytic_corr_needs_no_gap_ratios(self, monkeypatch, cold_memos):
        def refused(params):
            raise AssertionError("analytic_corr built the gap ratios")

        monkeypatch.setattr(correlation, "_gap_ratios", refused)
        # a tachyonic but mono-metric set has the closed form of its scales
        ratio = derive_scales(self.TACHYONIC, mono_metric=True).length_ratio
        rho = math.hypot(5.0, ratio)
        expected = ratio / rho / (rho * rho) / (2.0 * math.sqrt(2.0) * math.pi**2)
        for _ in range(2):
            assert analytic_corr(CorrelationQuery(5.0, 1, self.TACHYONIC)) == expected
            with pytest.raises(ValueError, match="mono_metric"):
                analytic_corr(CorrelationQuery(5.0, 1, self.NON_MONO))
        assert correlation._length_ratio.cache_info().currsize == 1

    def test_work_gate(self, monkeypatch, cold_memos):
        # machine-independent: one table and ten calls of each correlator at one
        # parameter set build its gap ratios, its scales and each table call it reads once
        gap_builds = _counted(monkeypatch, "rest_energy_sq")
        scale_builds = _counted(monkeypatch, "derive_scales")
        table_builds, cut_table = [], correlation._cut_table
        monkeypatch.setattr(correlation, "_cut_table", lambda mus, n_sp, call, reach:
                            table_builds.append((call, reach)) or cut_table(mus, n_sp, call, reach))
        params, delta = normalized_params(1e-3, 51), 3
        table = correlation_table(params, np.logspace(math.log10(4.0), math.log10(400.0), 25),
                                  delta)
        assert not np.isnan(table["D_numeric"]).any()
        # the 26 x 161 entries of steps 1-2 once a reach, for the 25 rows, not once a row: the
        # whole cut, then one reach an octave from s = sqrt2 X (X = 39), [55, 110), [110, 221)
        # and [221, 441); no row reads the 160 nodes of step 3
        assert table_builds == [(0, math.sqrt(2.0) / 2**m) for m in range(4)]
        for s in np.linspace(5.0, 50.0, 10).tolist():
            query = CorrelationQuery(s=s, delta=delta, params=normalized_params(1e-3, 51))
            numeric_corr(query)
            truncated_corr(query, 2)
            analytic_corr(query)
        assert (gap_builds[0], scale_builds[0], len(table_builds)) == (1, 1, 4)


class TestCrossChecks:
    def test_exact_mass_tower_tracks_numeric(self, figure_params):
        """Relativistic K1 tower with exact masses vs the exact mode sum.

        Independent validation of both code paths: for s >> 1 the oscillatory
        integral of each mode reduces to its K1 term, so the full cosine
        weighted tower built from exact gaps must track the numeric correlator
        to a couple of percent in the figure window.
        """
        n_sp = figure_params.species_count
        mus = _gap_ratios(figure_params)[abs(kk_label(np.arange(n_sp), n_sp))]
        for s in (20.0, 30.0, 40.0):
            query = CorrelationQuery(s=s, delta=1, params=figure_params)
            numeric, _ = numeric_corr(query)
            tower = 0.0
            for j in range(n_sp):
                weight = math.cos(2.0 * math.pi * j / n_sp)
                if j == 0:
                    term = 1.0 / s
                else:
                    mass = float(mus[j]) / math.sqrt(2.0)
                    term = mass * bessel_k1(mass * s)
                tower += weight * term
            tower /= n_sp * math.sqrt(2.0) * math.pi**2 * s
            assert tower == pytest.approx(numeric, rel=2e-2)

    def test_table_rows_match_scalar_calls(self, figure_params):
        s = [2.0, 15.0, 40.0]
        table = correlation_table(figure_params, s, 1, j_tr=3, weighted=False)
        assert list(table) == ["s", "delta", "D_analytic", "D_numeric", "D_numeric_err",
                               "D_truncated"]
        assert table["s"].tolist() == s and table["delta"].tolist() == [1, 1, 1]
        for row, s_row in enumerate(s):
            query = CorrelationQuery(s=s_row, delta=1, params=figure_params)
            numeric, err = numeric_corr(query)
            assert table["D_analytic"][row] == analytic_corr(query)
            assert table["D_truncated"][row] == truncated_corr(query, 3, False)
            assert (table["D_numeric"][row], table["D_numeric_err"][row]) == (numeric, err)
        # a row whose D overflows keeps its closed-form columns
        failed = correlation_table(figure_params, [5e-324], 1)
        query = CorrelationQuery(s=5e-324, delta=1, params=figure_params)
        assert np.isnan(failed["D_numeric"]).all() and np.isnan(failed["D_numeric_err"]).all()
        assert failed["D_analytic"].tolist() == [analytic_corr(query)]
        assert failed["D_truncated"].tolist() == [truncated_corr(query, 2)] == [math.inf]
