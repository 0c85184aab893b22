"""Two-point correlators of the analog field and their numerical machinery.

Three routes to the same long-distance physics, all reported in units of the
inverse cubed healing length (the 1/xi^3 prefactor divided out):

* ``analytic_corr`` -- the continuum closed form
  (1/(2 sqrt2 pi^2)) * R_l / (s^2 + (R_l Delta)^2)^(3/2);
* ``numeric_corr`` -- the mode sum as one integral, (1/(2 pi^2 s)) int_0^inf
  eta sin(eta s) sum_j cos(2 pi j Delta / N) [f_j(eta) - 1/N] d eta, with
  f_j = (u_j - v_j)^2 at eta = p*xi; the 1/N asymptote, removed in exact
  cancellation-free form, cancels for Delta != 0 mod N and is a pure contact
  term otherwise, so the value for s > 0 is unchanged;
* ``truncated_corr`` -- the low-mode relativistic sum
  (1/N) sum_{|j| <= j_tr} R_m(j) K1(R_m(j) s) / (sqrt2 pi^2 s) with
  R_m(j) = alpha_j / R_l, cosine-weighted by default for Delta != 0.

Modes j and N - j share a gap, so both sums run over the Kaluza-Klein levels
|n| with the same weights, the summed cosines of their modes (``_level_weights``).

The radial reduction of the 3D Fourier integral is analytic; the remaining
oscillatory 1D integral, whose subtracted integrand decays only like 1/eta,
goes to the Ooura-Mori double-exponential rule for Fourier integrals, whose
nodes approach the zeros of sin(eta*s). Its first two steps, which the stop
test always needs, share one integrand call. The integrand forms each level's
f_j - 1/N at the nodes as one row, from r^2 = mu^2 + 2 eta^2 + eta^4 = a b
(``_amplitude_excess``) with a hypot only where eta^2 underflows; one product
[w; |w|] @ rows gives the level sum and the size that bounds its roundoff.

``correlation_table`` evaluates all three over an s grid at one Delta and
returns the columns that the ``correlation`` command writes.

Each table is built once, into one bounded cache of read-only values: the
rule's steps per integrand call; per ``ModelParams`` the gap ratios, a/xi and
the integrand of the massive levels with its constants; and the level table
per (N, Delta). Errors are not cached.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, QuadratureError, StabilityError, ValidityError
from .model import ModelParams, check_mono_metricity, derive_scales, kk_label
from .spectrum import rest_energy_sq

_EULER_GAMMA = 0.5772156649015328606
_TINY = np.finfo(float).tiny  # the smallest normal float


# ---------------------------------------------------------------------------
# Modified Bessel function K1
# ---------------------------------------------------------------------------

def _k1_series(x: float) -> float:
    # Ascending series, x <= 2:
    #   K1 = 1/x + ln(x/2) I1(x) - (x/4) sum_k [H_k + H_{k+1} - 2g] t^k/(k!(k+1)!)
    # with t = x^2/4; converges to machine precision in < 20 terms here.
    half = 0.5 * x
    t = half * half
    ck = 1.0
    i1_sum = ck
    h_k = 0.0
    h_k1 = 1.0
    psi_sum = (h_k + h_k1 - 2.0 * _EULER_GAMMA) * ck
    for k in range(1, 64):
        ck *= t / (k * (k + 1))
        h_k += 1.0 / k
        h_k1 += 1.0 / (k + 1)
        i1_sum += ck
        term = (h_k + h_k1 - 2.0 * _EULER_GAMMA) * ck
        psi_sum += term
        if ck <= 1e-18 * abs(i1_sum) and abs(term) <= 1e-18 * abs(psi_sum):
            break
    i1 = half * i1_sum
    return 1.0 / x + math.log(half) * i1 - 0.25 * x * psi_sum


# K1 at x > 2: the trapezoid rule at step h = 1/4 on w = 0, 1/4, ..., 25/4 (e^-w^2 < 1e-18
# past the last node), its weights 2 h e^-w^2, halved at w = 0
_K1_W_SQ = (0.25 * np.arange(26)) ** 2
_K1_WEIGHTS = 0.5 * np.exp(-_K1_W_SQ)
_K1_WEIGHTS[0] *= 0.5
_K1_W_SQ.flags.writeable = _K1_WEIGHTS.flags.writeable = False


def bessel_k1(x: float) -> float:
    """Modified Bessel function of the second kind, order one.

    The ascending series for x <= 2. Beyond, w^2 = x (cosh t - 1) turns
    K1 = int_0^inf e^(-x cosh t) cosh t dt into e^-x int_0^inf e^-w^2
    (1 + w^2/x) 2/sqrt(2x + w^2) dw. Its poles lie at w = +-i sqrt(2x), so the
    trapezoid rule at step h sums it to a relative error of about
    e^-(2 pi sqrt(2x)/h) (Trefethen and Weideman, SIAM Rev. 56 (2014) 385),
    below 1e-21 at x > 2 for its fixed 26 nodes. Against 40-digit mpmath at
    5,000 log-spaced x over [1e-3, 700], the relative error is at most 9.8e-16
    for the series and 7.2e-16 for the sum. Past underflow, where e^-x is 0.0
    (x > 745.13, inf included), it returns 0.0.
    """
    if not x > 0:
        raise DomainError(f"K1 requires x > 0, got {x!r}")
    if x <= 2.0:
        return _k1_series(x)
    decay = math.exp(-x)
    if decay == 0.0:  # K1 < e^-x underflows too
        return 0.0
    return decay * (float(_K1_WEIGHTS @ ((x + _K1_W_SQ) / np.sqrt(2.0 * x + _K1_W_SQ))) / x)


# ---------------------------------------------------------------------------
# Oscillatory quadrature: int_0^inf g(eta) sin(eta*s) d eta
# ---------------------------------------------------------------------------

def _de_rule(level: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes u_k, weights w_k of int_0^inf f(u) sin(u) du ~ sum_k w_k f(u_k).

    Ooura-Mori double-exponential rule for Fourier integrals (J. Comput.
    Appl. Math. 112 (1999) 229) at step h = 0.1 * 2^-level: u = M phi(t) with
    M = pi/h, phi = t/(1 - E), E = exp(-2t - alpha (1 - e^-t) - beta (e^t - 1)),
    beta = 1/4 and alpha = beta/sqrt(1 + M ln(1 + M)/(4 pi)). The nodes approach
    the zeros pi*k of sin as t -> inf; weights under 1e-30 at the ends are cut.
    Built afresh on every call: ``_de_call`` keeps the tables.
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


_DE_CALLS = 6  # integrand calls of the seven steps: steps 1 and 2 share the first


@functools.cache
def _de_call(call: int) -> tuple[np.ndarray, tuple]:
    """Nodes of integrand call ``call`` of the rule, and its steps (part, [W, |W|]).

    Call 0 evaluates steps 1 and 2, which the stop test always needs, and call
    k > 0 step k + 2; part is the slice of the call's nodes that are the
    step's own ``_de_rule`` nodes, and [W, |W|] their weights and magnitudes
    as one (n_step, 2) table. Each call is built once, read-only.
    """
    rules = [_de_rule(level) for level in ((0, 1) if call == 0 else (call + 1,))]
    nodes, weights = (np.concatenate(columns) for columns in zip(*rules))
    table = np.stack([weights, np.abs(weights)], axis=1)
    nodes.flags.writeable = table.flags.writeable = False
    ends = np.cumsum([rule_nodes.size for rule_nodes, _ in rules]).tolist()
    parts = [slice(start, end) for start, end in zip([0] + ends, ends)]
    return nodes, tuple((part, table[part]) for part in parts)


def _step_sums(g, s: float):
    """Each step's (sum_k W_k values_k, sum_k |W_k| sizes_k), g called once per call."""
    for call in range(_DE_CALLS):
        nodes, steps = _de_call(call)
        # an overflow in g leaves inf or NaN in the sum, which fails the stop test
        with np.errstate(all="ignore"):
            out = np.asarray(g(nodes / s))
            pair = out if out.ndim == 2 else np.stack([out, np.abs(out)])
            # one product over the step's own nodes: a NaN at a later step's leaves it finite
            sums = [(pair[:, part] @ table).diagonal().tolist() for part, table in steps]
        yield from sums


def fourier_sin_integral(g, s: float, rel_tol: float = 1e-10) -> tuple[float, float]:
    """Integrate g(eta)*sin(eta*s) over [0, inf) for smooth, slowly decaying g.

    ``g`` maps n nodes eta to their values, or to a (2, n) array or pair
    (values, sizes) with each value's size, >= 0, before it cancelled (a plain
    array has the sizes |values|). The double-exponential rule runs at steps
    0.1 * 2^-k, k = 0..6, until two successive sums agree within max(min(1e-15,
    rel_tol), rel_tol * |sum|); their difference, at least the sum's roundoff
    eps * sum_k |W_k| sizes_k / s (W_k the rule's weights, eps the machine
    epsilon), is the error estimate. The first two steps, which the stop test
    always needs, go to ``g`` in one call of their joined nodes; every later
    step is a call of its own. ``rel_tol`` must be > 0; even an infinite one
    needs two steps that agree to a finite error. Raises
    :class:`QuadratureError` (with the last sum, and why) if they never agree,
    agree only to a roundoff above the tolerance, or a sum is not finite.
    """
    if not s > 0:
        raise ValueError("oscillation frequency s must be positive")
    if not rel_tol > 0:
        raise ValueError(f"need a tolerance > 0, got {rel_tol}")
    abs_tol = min(1e-15, rel_tol)
    value = math.inf  # the first step has no sum to agree with
    for step, (total, magnitude) in enumerate(_step_sums(g, s), 1):
        prev, value = value, total / s
        # a sum rounds in proportion to the magnitudes it adds (Higham, ASNA 4.2)
        roundoff = math.ulp(1.0) * magnitude / s
        err = max(abs(value - prev), roundoff)
        tol = max(abs_tol, rel_tol * abs(value))
        if math.isfinite(err) and err <= tol:  # finite: two finite steps agree
            return value, err
        if not math.isfinite(value) or err == roundoff:  # a finer step cannot help
            break
    why = ("got a non-finite sum" if not math.isfinite(value) else
           "reached its roundoff floor" if err == roundoff else "ran out of steps")
    raise QuadratureError(f"quadrature {why} at step {step} of 7: error {err:.3g}, requested "
                          f"{tol:.3g}", partial_value=value, error_estimate=err)


# ---------------------------------------------------------------------------
# Correlators
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class CorrelationQuery:
    """Spatial separation s = |x2-x1|/xi and synthetic-site separation Delta."""

    s: float
    delta: int
    params: ModelParams

    def __post_init__(self):
        if not self.s > 0:
            raise ValueError(f"s must be > 0, got {self.s}")
        if not 0 <= self.delta <= self.params.species_count - 1:
            raise ValueError(
                f"delta must lie in 0..{self.params.species_count - 1}, got {self.delta}"
            )


def analytic_corr(query: CorrelationQuery) -> float:
    """Continuum closed form, in 1/xi^3 units.

    Delta is the ring-site separation, so the synthetic distance uses the
    nearest image min(Delta, N - Delta).
    """
    ratio = _length_ratio(query.params)
    delta = abs(kk_label(query.delta, query.params.species_count))
    # R_l/rho^3 as (R_l/rho)/rho^2 stays finite where rho^3 overflows
    rho = math.hypot(query.s, ratio * delta)
    return ratio / rho / (rho * rho) / (2.0 * math.sqrt(2.0) * math.pi**2)


_FIELDS = operator.attrgetter(*(field.name for field in dataclasses.fields(ModelParams)))


def _memo(maxsize: int):
    """A bounded ``functools.lru_cache`` of a ModelParams builder, keyed on every field's type too.

    Equal sets can build different values: an int density 2**600, squared,
    overflows a conversion to float where the equal float gives inf.
    """
    def memoize(build):
        cached = functools.lru_cache(maxsize, typed=True)(lambda params, *fields: build(params))
        memo = functools.wraps(build)(lambda params: cached(params, *_FIELDS(params)))
        memo.cache_info, memo.cache_clear = cached.cache_info, cached.cache_clear
        return memo

    return memoize


# a bound on the parameter sets kept, one float and one ModelParams key each
@_memo(maxsize=32)
def _length_ratio(params: ModelParams) -> float:
    """a/xi under mono-metricity, the length ratio R_l of the closed form and the tower."""
    return derive_scales(params, mono_metric=True).length_ratio


# a bound on the N//2 + 1 floats kept per parameter set: 32 arrays, 128 kB at N = 1001
@_memo(maxsize=32)
def _gap_ratios(params: ModelParams) -> np.ndarray:
    """Read-only mu_n = E_rn / (m c_s^2) of the levels |n| = 0..N//2, mono-metric cutoff."""
    cutoff = params.nU - 2.0 * params.rabi  # m c_s^2 under mono-metricity
    if cutoff <= 0:
        raise StabilityError(f"no stable sound cone: m c_s^2 = {cutoff:.6g} <= 0")
    # as in Python float arithmetic, an overflowing gap or cutoff is inf, and
    # the NaN ratios it leads to fail below
    with np.errstate(over="ignore", invalid="ignore"):
        gap_sq = rest_energy_sq(params, np.arange(params.species_count // 2 + 1))
        # the gapless mode evaluates to 0 only up to cancellation noise
        tachyonic = gap_sq < -1e-12 * cutoff * cutoff
        if np.any(tachyonic):
            raise StabilityError(f"tachyonic gap at j={np.argmax(tachyonic)}; "
                                 "correlators undefined")
        mus = np.sqrt(np.maximum(gap_sq, 0.0)) / cutoff
    if not np.all(mus <= 1.0):
        raise ValidityError("a mode gap exceeds the cutoff energy m c_s^2, or overflows to NaN")
    if not check_mono_metricity(params):
        raise ValueError(
            "mode amplitudes use the single mono-metric sound speed; "
            f"n*U' = {params.nUprime:.6g} does not match -Omega = {-params.rabi:.6g}"
        )
    mus.flags.writeable = False
    return mus


# a bound on the (2, N//2 + 1) floats kept per (N, Delta): 128 tables, 1 MB at N = 1001
@functools.lru_cache(maxsize=128, typed=True)
def _level_weights(n_sp: int, delta: int) -> np.ndarray:
    """Read-only rows [w; |w|] of the levels |n| = 0..N//2, w = sum_{j=+-n} cos(2 pi j Delta/N)."""
    # folding by kk_label keeps each angle exact; modes n, N - n share its cosine bit for bit
    levels = np.arange(n_sp // 2 + 1)
    weights = np.cos(2.0 * np.pi * abs(kk_label(levels * delta, n_sp)) / n_sp)
    weights[1:(n_sp + 1) // 2] *= 2.0
    table = np.stack([weights, np.abs(weights)])
    table.flags.writeable = False
    return table


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


# a bound on the 6 N//2 floats built per parameter set, and the gap ratios they view:
# 32 sets, 896 kB at N = 1001
@_memo(maxsize=32)
def _massive_excess(params: ModelParams):
    """``_amplitude_excess`` of the levels |n| = 1..N//2, its constants built once, read-only."""
    return _amplitude_excess(_gap_ratios(params)[1:], params.species_count)


def mode_integrand(params: ModelParams, j: int, eta) -> float | np.ndarray:
    """(u_j - v_j)^2 at dimensionless momentum eta = p*xi.

    Equals (1/N) [(1 + eta^2) + sqrt(1 - mu_j^2)] / sqrt(mu_j^2 + 2 eta^2 +
    eta^4) with mu_j = E_rj/(m c_s^2); requires mono-metric parameters and
    (j, eta) != (0, 0).
    """
    n_sp = params.species_count
    mus = _gap_ratios(params)[[abs(kk_label(j, n_sp))]]
    if mus[0] == 0.0 and np.any(np.asarray(eta) == 0.0):
        raise ValueError("the massless mode has no amplitude at eta = 0")
    value = 1.0 / n_sp + _amplitude_excess(mus, n_sp)(eta)[0]
    return float(value) if np.isscalar(eta) else value


def numeric_corr(query: CorrelationQuery, rel_tol: float = 1e-10) -> tuple[float, float]:
    """Exact mode-sum correlator in 1/xi^3 units, with an error estimate bounding its roundoff."""
    n_sp = query.params.species_count
    massive = _level_weights(n_sp, query.delta)[:, 1:]
    excess = _massive_excess(query.params)

    def g(eta):
        # the excesses e_l are positive, so the second row is sum_l |w_l e_l|
        sums = massive @ excess(eta)
        sums *= eta
        # the massless level (w = 1) as eta e_0, which stays finite where e_0 overflows
        return np.add(sums, (2.0 / n_sp) / (np.sqrt(2.0 + eta * eta) + eta), out=sums)

    integral, err = fourier_sin_integral(g, query.s, rel_tol)
    norm = 2.0 * math.pi**2 * query.s
    return integral / norm, err / norm


def truncated_corr(query: CorrelationQuery, j_tr: int, weighted: bool = True) -> float:
    """Low-mode relativistic correlator, in 1/xi^3 units.

    Sums the levels |n| = 0..j_tr with the level weights of the numeric mode
    sum; level 0 uses the massless limit m K1(m s) -> 1/s. ``weighted=False``
    takes the weights at Delta = 0, the phase-free variant of the sum.
    """
    n_sp = query.params.species_count
    if not 0 <= j_tr <= (n_sp - 1) // 2:
        raise ValueError(f"j_tr must lie in 0..{(n_sp - 1) // 2}, got {j_tr}")
    ratio = _length_ratio(query.params)
    weights = _level_weights(n_sp, query.delta if weighted else 0)[0, :j_tr + 1].tolist()
    masses = [(2.0 * math.pi * n / n_sp) / ratio for n in range(1, j_tr + 1)]
    terms = [1.0 / query.s] + [mass * bessel_k1(mass * query.s) for mass in masses]
    total = 0.0
    for n in range(j_tr, -1, -1):  # m K1(m s) falls with m: smallest first, as the sum can cancel
        total += weights[n] * terms[n]
    return total / (n_sp * math.sqrt(2.0) * math.pi**2 * query.s)


def correlation_table(params: ModelParams, s, delta: int, j_tr: int | None = None,
                      rel_tol: float = 1e-10, weighted: bool = True) -> dict[str, np.ndarray]:
    """All three correlators at one Delta over a sequence of separations ``s``, as columns.

    Keys, in the CLI's order: ``s, delta, D_analytic, D_numeric, D_numeric_err,
    D_truncated``, one row per s in the order given. A row whose quadrature
    fails reads NaN in ``D_numeric`` and ``D_numeric_err``; any other error
    raises. ``j_tr`` defaults to min(2, (N - 1)//2), the CLI's default too.
    """
    if j_tr is None:
        j_tr = min(2, (params.species_count - 1) // 2)
    s = np.array(s, dtype=float)
    rows = []
    for s_row in s.tolist():
        query = CorrelationQuery(s=s_row, delta=delta, params=params)
        analytic, truncated = analytic_corr(query), truncated_corr(query, j_tr, weighted)
        try:
            numeric, err = numeric_corr(query, rel_tol)
        except QuadratureError:
            numeric = err = math.nan
        rows.append((analytic, numeric, err, truncated))
    analytic, numeric, err, truncated = np.array(rows, dtype=float).reshape(-1, 4).T
    return {"s": s, "delta": np.full(s.size, delta), "D_analytic": analytic,
            "D_numeric": numeric, "D_numeric_err": err, "D_truncated": truncated}
