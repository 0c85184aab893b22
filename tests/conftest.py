"""Shared fixtures and independent oracles for the test suite."""

import math
import warnings

import numpy as np
import pytest
from scipy import integrate
from scipy.integrate import IntegrationWarning

from kkbec import correlation
from kkbec.model import ModelParams


@pytest.fixture
def standard_params():
    """N=9 mono-metric set with |Omega|/nU = 0.1 (tower/dispersion figures)."""
    return ModelParams(
        species_count=9,
        atom_mass=1.0,
        density=1.0,
        self_interaction=1.0,
        cross_interaction=0.1,
        rabi=-0.1,
    )


@pytest.fixture
def figure_params():
    """N=9 mono-metric set with |Omega|/nU = 1e-3 (correlator figure regime)."""
    return ModelParams(
        species_count=9,
        atom_mass=1.0,
        density=1.0,
        self_interaction=1.0,
        cross_interaction=1e-3,
        rabi=-1e-3,
    )


@pytest.fixture
def n3_params():
    return ModelParams(
        species_count=3,
        atom_mass=1.0,
        density=1.0,
        self_interaction=1.0,
        cross_interaction=0.1,
        rabi=-0.1,
    )


@pytest.fixture
def cold_memos():
    """Every memo of ``kkbec.correlation``, emptied before and after the test.

    Counts of what a test builds then do not depend on the order tests run in.
    """
    memos = [value for value in vars(correlation).values() if hasattr(value, "cache_clear")]
    for memo in memos:
        memo.cache_clear()
    yield
    for memo in memos:
        memo.cache_clear()


def k1_integral_oracle(x: float) -> float:
    """K1 via its integral representation, int_0^inf exp(-x cosh t) cosh t dt.

    Adaptive quadrature (QUADPACK) on the finite interval where the integrand
    is above double-precision underflow. Above x = 2 the package sums this
    same integral by the trapezoid rule, after a change of variable, so this
    checks that sum's discretisation but shares its formula; scipy's
    ``special.k1`` and 40-digit ``mpmath.besselk`` are the references
    independent of it.
    """
    t_max = math.acosh(746.0 / x) if x < 746.0 else 1.0
    value, _ = integrate.quad(
        lambda t: math.exp(-x * math.cosh(t)) * math.cosh(t),
        0.0,
        t_max,
        epsabs=0.0,
        epsrel=1e-13,
        limit=400,
    )
    return value


def closed_form_e_sq(params: ModelParams, p: float) -> np.ndarray:
    """All N squared energies from the printed closed forms, literal transcription.

    Written out term by term from the gap/speed expressions (not the package's
    factored evaluation) so a transcription error in either place is caught.
    """
    om = params.rabi
    n_u = params.nU
    n_up = params.nUprime
    alphas = params.alphas
    cos_a = np.cos(alphas)
    gap_sq = 4.0 * (
        om**2
        - n_u * om
        + (n_u * om - 2.0 * n_up * om - 2.0 * om**2) * cos_a
        + (2.0 * n_up * om + om**2) * cos_a**2
    )
    m_cs_sq = n_u - 2.0 * om + 2.0 * (n_up + om) * cos_a
    eps = p * p / (2.0 * params.atom_mass)
    return gap_sq + (m_cs_sq / params.atom_mass) * p * p + eps * eps


def correlator_quadpack_oracle(params: ModelParams, s: float, delta: int) -> tuple[float, float]:
    """The numeric correlator as N separate QUADPACK integrals, one per mode.

    Returns (sum_j w_j I_j, sum_j |w_j I_j|), both divided by 2 pi^2 s, with
    w_j = cos(2 pi j Delta / N) and I_j = int_0^inf eta (f_j - 1/N) sin(eta s).
    Independent of the package's quadrature and gap code: the gaps come from
    the literal closed forms, each I_j is QAWO on [0, 20] and [20, A] (A a
    whole number of periods past the structure at eta <~ 1) plus a QAWF tail
    from A, and any IntegrationWarning is an error. A coarse first pass sets the absolute
    tolerance, since at large s the I_j cancel far below the integrand's size.
    """
    n_sp = params.species_count
    cutoff = params.nU - 2.0 * params.rabi
    mus = np.sqrt(np.maximum(closed_form_e_sq(params, 0.0), 0.0)) / cutoff
    mus[0] = 0.0
    period = 2.0 * math.pi / s
    head_end = period * math.ceil(20.0 / period)

    def mode(mu):
        c = math.sqrt(1.0 - mu * mu)

        def g(eta):
            e2 = eta * eta
            root = math.sqrt(mu * mu + 2.0 * e2 + e2 * e2)
            eta_over_root = 1.0 / math.sqrt(2.0 + e2) if mu == 0.0 else eta / root
            return eta_over_root * 2.0 * c * (1.0 + c + e2) / (n_sp * (1.0 + c + e2 + root))

        return g

    def integral(g, epsabs, epsrel):
        # at s <~ 3e-5 one QAWO interval spans so much more than the structure
        # at eta <~ 1 that its first estimates miss it and agree, so [0, 20]
        # is integrated on its own
        head = sum(integrate.quad(g, lo, hi, weight="sin", wvar=s, epsabs=epsabs,
                                  epsrel=epsrel, limit=2000)[0]
                   for lo, hi in ((0.0, 20.0), (20.0, head_end)) if hi > lo)
        tail, _ = integrate.quad(g, head_end, np.inf, weight="sin", wvar=s,
                                 epsabs=max(epsabs, epsrel * abs(head)), limlst=200, limit=2000)
        return head + tail

    with warnings.catch_warnings():
        warnings.simplefilter("error", IntegrationWarning)
        modes = [mode(float(mu)) for mu in mus]
        scale = max(abs(integral(g, 0.0, 1e-6)) for g in modes)
        values = np.array([integral(g, 1e-12 * scale, 1e-12) for g in modes])
    terms = np.cos(2.0 * math.pi * np.arange(n_sp) * delta / n_sp) * values
    norm = 2.0 * math.pi**2 * s
    return float(terms.sum()) / norm, float(np.abs(terms).sum()) / norm


def long_double_level_sum(params: ModelParams, s: float, delta: int,
                          rel_tol: float = 1e-10) -> tuple[float, float, float]:
    """numeric_corr's (value, error) and its level sum redone in long double.

    The reference takes the package's gap ratios and level weights, the same
    ``_de_rule`` nodes and weights at the step where the quadrature stopped, and
    forms the amplitude excesses, the level sum and the quadrature sum in
    ``np.longdouble``. It differs from the value only by the double-precision
    roundoff, which the error estimate has to bound. The stop is found from the
    integrand calls of the rule (``_de_call``) that ran: the first step never
    stops, so the quadrature stopped at the last step of the last call.
    """
    calls = []
    de_call = correlation._de_call
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(correlation, "_de_call", lambda call: calls.append(call) or de_call(call))
        value, err = correlation.numeric_corr(correlation.CorrelationQuery(s, delta, params),
                                              rel_tol)
    call_nodes, steps = de_call(calls[-1])
    part, step_table = steps[-1]
    ld = np.longdouble
    n_sp = params.species_count
    nodes, weights = call_nodes[part].astype(ld), step_table[:, 0].astype(ld)
    mus = correlation._gap_ratios(params).astype(ld)
    level_weights = correlation._level_weights(n_sp, delta)[0].astype(ld)
    c = np.sqrt(1 - mus * mus)
    pi = 4 * np.arctan(ld(1))
    total = ld(0)
    for start in range(0, nodes.size, 512):  # blocks keep N = 1001 small in memory
        eta = (nodes[start:start + 512] / ld(s))[:, np.newaxis]
        a = 1 + c + eta * eta
        r = np.sqrt(mus * mus + eta * eta * (2 + eta * eta))
        excess = (2 * c / n_sp) * (a / r) / (a + r)
        total += np.sum(weights[start:start + 512] * eta[:, 0] * (excess @ level_weights))
    return value, err, float(total / ld(s) / (2 * pi * pi * ld(s)))
