"""Shared fixtures and independent oracles for the test suite."""

import math
import warnings

import numpy as np
import pytest
from scipy import integrate
from scipy.integrate import IntegrationWarning

from kkbec import cli, correlation
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
    """Every memo of ``kkbec.correlation``, and the CLI's report memo, emptied before and
    after the test.

    Counts of what a test builds then do not depend on the order tests run in.
    """
    memos = [value for value in vars(correlation).values() if hasattr(value, "cache_clear")]
    memos.append(cli._checked)
    for memo in memos:
        memo.cache_clear()
    yield
    for memo in memos:
        memo.cache_clear()


def k1_integral_oracle(x: float) -> float:
    """K1 via its integral representation, int_0^inf exp(-x cosh t) cosh t dt.

    Adaptive quadrature (QUADPACK) on the finite interval where the integrand
    is above double-precision underflow. For every x >= 1e-9 the package sums
    this same integral by the trapezoid rule (beyond x = 2 after a change of
    variable), so this checks that sum's discretisation but shares its
    formula; scipy's ``special.k1`` and 40-digit ``mpmath.besselk`` are the
    references independent of it.
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


_TINY = np.finfo(float).tiny  # the smallest normal float


def _de_rule(level: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes u_k, weights w_k of int_0^inf f(u) sin(u) du ~ sum_k w_k f(u_k).

    Ooura-Mori double-exponential rule for Fourier integrals (J. Comput.
    Appl. Math. 112 (1999) 229) at step h = 0.1 * 2^-level: u = M phi(t) with
    M = pi/h, phi = t/(1 - E), E = exp(-2t - alpha (1 - e^-t) - beta (e^t - 1)),
    beta = 1/4 and alpha = beta/sqrt(1 + M ln(1 + M)/(4 pi)). The nodes approach
    the zeros pi*k of sin as t -> inf; weights under 1e-30 at the ends are cut.
    """
    h = 0.1 * 0.5**level
    m = math.pi / h
    beta = 0.25
    alpha = beta / math.sqrt(1.0 + m * math.log1p(m) / (4.0 * math.pi))
    k = np.arange(math.floor(-12.0 / h), math.ceil(7.0 / h) + 1)  # past the cut at every step
    t = k * h
    # E overflows at t << 0, where phi -> 0; t = 0 gives 0/0, set from the limits below
    with np.errstate(all="ignore"):
        u = -2.0 * t + alpha * np.expm1(-t) - beta * np.expm1(t)
        one_minus_e = -np.expm1(u)
        e_ratio = 1.0 / np.expm1(-u)  # E/(1 - E), exact where E under- or overflows
        phi = t / one_minus_e
        dphi = (1.0 - t * (2.0 + alpha * np.exp(-t) + beta * np.exp(t)) * e_ratio) / one_minus_e
        # M phi = pi k + M t E/(1 - E) for t > 0; the direct form loses the
        # small remainder there, the shifted one loses it for t < 0
        sine = np.where(t > 0, (-1.0) ** k * np.sin(m * t * e_ratio), np.sin(m * phi))
    c = 2.0 + alpha + beta  # limits at t = 0
    phi[k == 0], dphi[k == 0] = 1.0 / c, (alpha - beta + c * c) / (2.0 * c * c)
    sine[k == 0] = math.sin(m / c)
    weights = h * m * dphi * sine
    lo, hi = np.flatnonzero(np.abs(weights) > 1e-30)[[0, -1]]
    return m * phi[lo:hi + 1], weights[lo:hi + 1]


def fourier_sin_integral(g, s: float, rel_tol: float = 1e-10) -> tuple[float, float]:
    """int_0^inf g(eta) sin(eta s) d eta for smooth, slowly decaying g, and its error estimate.

    ``g`` maps n nodes eta to a pair (values, sizes), each value's size >= 0
    before it cancelled. The double-exponential rule runs at steps 0.1 *
    2^-k, k = 0..6, until two agree as ``correlation._agree`` tests, with the
    magnitude sum_k |W_k| sizes_k / s (W_k the weights).
    """
    if not s > 0:
        raise ValueError("oscillation frequency s must be positive")

    def step_sums():
        for level in range(7):
            nodes, weights = _de_rule(level)
            # an overflow in g leaves inf or NaN in the sum, which fails the stop test
            with np.errstate(all="ignore"):
                sums = np.asarray(g(nodes / s)) @ np.stack([weights, np.abs(weights)], axis=1)
            # [values; sizes] @ [W, |W|] has the step's sum and magnitude on its diagonal
            total, magnitude = sums.diagonal().tolist()
            yield total / s, magnitude / s

    return correlation._agree(step_sums(), 7, rel_tol)


def _amplitude_excess(mus: np.ndarray, n_sp: int):
    """eta -> f_j(eta) - 1/N for the 1-D gap ratios mu_j, shape mus.shape + eta.shape.

    With c = sqrt(1 - mu^2), a = 1 + c + eta^2 and b = mu^2/(1 + c) + eta^2,
    r^2 = mu^2 + 2 eta^2 + eta^4 = a b, so (a - r)/(N r), which cancels at
    large eta, equals (2 c/N)/(r + b) with r = a sqrt(b/a): no eta^4, so
    nothing overflows before eta^2 does, and there b/a is NaN. Where b is not
    a normal float, mu^2/(1 + c) and eta^2 lost their digits to underflow; r
    is then sqrt(a) hypot(mu/sqrt(1 + c), eta), which a massless level needs
    once eta^2 underflows.
    """
    mus = mus[:, np.newaxis]  # (L, 1) constants: a level's values at 1-D eta are one row
    c = np.sqrt((1.0 - mus) * (1.0 + mus))  # 1 - mu is exact where mu^2 would round near 1
    head = 1.0 + c  # a - eta^2
    # [a; b] = shifts @ [1; eta^2]: exact products, one rounding, half a broadcast add's time
    shifts = np.hstack([np.vstack([head, mus * mus / head]), np.ones((2 * len(mus), 1))])
    scale = 2.0 * c / n_sp
    head.flags.writeable = shifts.flags.writeable = scale.flags.writeable = False

    def excess(eta):
        eta = np.asarray(eta, dtype=float)
        if eta.ndim != 1:  # rows of a flat eta, reshaped to mus.shape + eta.shape
            return excess(eta.reshape(-1)).reshape(len(mus), *eta.shape)
        lifted = np.ones((2, eta.size))
        eta_sq = np.multiply(eta, eta, out=lifted[1])
        a, b = (shifts @ lifted).reshape(2, len(mus), eta.size)
        r = np.sqrt(b / a)
        r *= a
        if eta_sq.size and eta_sq.min() < _TINY:  # b is normal wherever eta^2 is
            r = np.where(b < _TINY, np.sqrt(a) * np.hypot(mus / np.sqrt(head), eta), r)
        r += b
        return np.divide(scale, r, out=r)

    return excess


def double_exponential_corr(params: ModelParams, s: float, delta: int) -> tuple[float, float]:
    """The correlator and its error estimate from the eta-domain integral, a second method.

    The integrand is eta sum_l w_l (f_l - 1/N) over the levels, built from
    ``_amplitude_excess`` (the massless level as eta e_0, finite where e_0
    overflows), and ``fourier_sin_integral`` takes its sine transform. It shares
    with ``numeric_corr`` only the gap ratios, the level weights and the stop test.
    Its estimate can fall short of its error: at |Omega|/nU = 0.9, N = 51,
    Delta = 0 and s = 11.48 it reads 9.4e-19 against an error of 1.02e-18 from
    30-digit mpmath, so a comparison with ``numeric_corr`` allows twice the sum
    of both estimates (``TestBranchCutRule.AGREEMENT``).
    """
    n_sp = params.species_count
    massive = correlation._level_weights(n_sp, delta)[:, 1:]
    excess = _amplitude_excess(correlation._gap_ratios(params)[1:], n_sp)

    def g(eta):
        # the excesses e_l are positive, so the second row is sum_l |w_l e_l|
        sums = massive @ excess(eta)
        sums *= eta
        return np.add(sums, (2.0 / n_sp) / (np.sqrt(2.0 + eta * eta) + eta), out=sums)

    integral, err = fourier_sin_integral(g, s)
    norm = 2.0 * math.pi**2 * s
    return integral / norm, err / norm


def long_double_level_sum(params: ModelParams, s: float,
                          delta: int) -> tuple[float, float, float]:
    """numeric_corr's (value, error) and its level sum redone in long double.

    The reference takes the package's gap ratios, level weights and reach of
    the cut, and the tanh-sinh nodes tau = i h of the step where the row stopped;
    from them it forms each level's cut integral, t e^(-t s) sqrt((kappa'^2 -
    t^2)/(t^2 - kappa^2)) summed with the Jacobian of the map and without
    e^(-kappa s) factored out, and the level sum in ``np.longdouble``. It
    differs from the value only by the double-precision roundoff, which the
    error estimate has to bound. The stop is found from the table calls of the
    rule (``_cut_call``) that the row read: the first step never stops, so the
    row stopped at the last step of the last call.
    """
    calls = []
    cut_call = correlation._cut_call
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(correlation, "_cut_call",
                      lambda params, call, reach: calls.append((call, reach))
                      or cut_call(params, call, reach))
        value, err = correlation.numeric_corr(correlation.CorrelationQuery(s, delta, params))
    last, reach = calls[-1]
    ld = np.longdouble
    pi = 4 * np.arctan(ld(1))
    h = 0.05 * 0.5**last  # step last + 2 has the nodes tau = i h, |tau| <= 4
    tau = (np.arange(-(80 << last), (80 << last) + 1) * h).astype(ld)
    rise = np.exp(pi * np.sinh(tau))
    p, q = rise / (1 + rise), 1 / (1 + rise)
    mus = correlation._gap_ratios(params).astype(ld)[:, np.newaxis]
    c = np.sqrt((1 - mus) * (1 + mus))
    top = np.sqrt(1 + c)
    kappa = mus / top
    length = 2 * c / (kappa + top)
    cut = np.minimum(length, ld(reach))
    u = cut * p
    t = kappa + u
    root = np.sqrt(((length - cut) + cut * q) * (top + t) / (u * (t + kappa)))
    levels = h * np.sum(cut * pi * np.cosh(tau) * p * q * t * root * np.exp(-s * t), axis=1)
    weights = correlation._level_weights(params.species_count, delta)[0].astype(ld)
    total = weights @ levels / params.species_count
    return value, err, float(total / (2 * pi * pi * ld(s)))
