"""Two-point correlators of the analog field and their numerical machinery.

Three routes to the same long-distance physics, all reported in units of the
inverse cubed healing length (the 1/xi^3 prefactor divided out):

* ``analytic_corr`` -- the continuum closed form
  (1/(2 sqrt2 pi^2)) * R_l / (s^2 + (R_l Delta)^2)^(3/2);
* ``numeric_corr`` -- the mode sum as one integral, (1/(2 pi^2 s)) int_0^inf
  eta sin(eta s) sum_j cos(2 pi j Delta / N) [f_j(eta) - 1/N] d eta, with
  f_j = (u_j - v_j)^2 at eta = p*xi; the 1/N asymptote cancels for Delta != 0
  mod N and is a pure contact term otherwise, so the value for s > 0 is
  unchanged;
* ``truncated_corr`` -- the low-mode relativistic sum
  (1/N) sum_{|j| <= j_tr} R_m(j) K1(R_m(j) s) / (sqrt2 pi^2 s) with
  R_m(j) = alpha_j / R_l, cosine-weighted by default for Delta != 0.

Modes j and N - j share a gap, so both sums run over the Kaluza-Klein levels
|n| with the same weights, the summed cosines of their modes (``_level_weights``).

The radial reduction of the 3D Fourier integral is analytic; each level's
part of the remaining sine integral closes on the branch cut of its
amplitude, from its decay mass kappa to kappa', as one positive integral
(``_cut_table``). A tanh-sinh rule tabled once per parameter set and reach
(``_cut_reach``: s times the cut stays below 2X, X = 39) sums all levels: a row
is one exp over the (N//2 + 1, 161) table of steps 1 and 2 at every s, and a
later step is read only where the stop test (``_agree``) needs it.

``_rows`` evaluates all three over an s grid at one Delta, by the row code of
each public function, and yields each row as a tuple of Python scalars, which
the ``correlation`` command formats straight to text; ``correlation_table``
stacks the same rows into columns. Each basis is built once, into one bounded
cache of read-only values: per ``ModelParams`` the gap ratios, a/xi, the
branch-cut tables of each call and reach, and the truncated levels of each
weighting Delta and j_tr as tuples; and the level table per (N, Delta). The
caches key on every field and its type (``model._memo``); a set with a zero
field, whose sign its hash does not see, is built on every call. Errors are
not cached.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, QuadratureError, StabilityError, ValidityError
from .model import (MONO_METRIC_ERROR, ModelParams, _memo, check_mono_metricity, derive_scales,
                    kk_label)
from .spectrum import rest_energy_sq

# ---------------------------------------------------------------------------
# Modified Bessel function K1
# ---------------------------------------------------------------------------

# K1 at x <= 2: the trapezoid rule at step h = 1/5 on t = 0, 1/5, ..., 127/5 (past the last
# node 2x sinh^2(t/2) > 40 even at x = 1e-9), its exponents -2 sinh^2(t/2) and weights
# h cosh t, halved at t = 0
_K1_T_EXPONENTS = -2.0 * np.sinh(np.arange(128) / 10) ** 2
_K1_T_WEIGHTS = np.cosh(np.arange(128) / 5) / 5
_K1_T_WEIGHTS[0] *= 0.5
_K1_T_EXPONENTS.flags.writeable = _K1_T_WEIGHTS.flags.writeable = False

# K1 at x > 2: the trapezoid rule at step h = 1/4 on w = 0, 1/4, ..., 25/4 (e^-w^2 < 1e-18
# past the last node), its weights 2 h e^-w^2, halved at w = 0
_K1_W_SQ = (0.25 * np.arange(26)) ** 2
_K1_WEIGHTS = 0.5 * np.exp(-_K1_W_SQ)
_K1_WEIGHTS[0] *= 0.5
_K1_W_SQ.flags.writeable = _K1_WEIGHTS.flags.writeable = False


def bessel_k1(x: float) -> float:
    """Modified Bessel function of the second kind, order one.

    The trapezoid rule on a fixed table sums K1 = int_0^inf e^(-x cosh t) cosh t dt
    (Trefethen and Weideman, SIAM Rev. 56 (2014) 385). For 1e-9 <= x <= 2 the
    integrand, e^-x e^(-2x sinh^2(t/2)) cosh t, is entire and decays
    double-exponentially. Beyond, w^2 = x (cosh t - 1) gives e^-x int_0^inf e^-w^2
    (1 + w^2/x) 2/sqrt(2x + w^2) dw, whose poles at w = +-i sqrt(2x) bound the
    error at step h by about e^-(2 pi sqrt(2x)/h), below 1e-21 at x > 2. Below
    x = 1e-9, K1 is 1/x to half an ulp. Against 40-digit mpmath the relative error
    is at most 4.7e-16 at 4,003 log-spaced x over [1e-9, 2] and 7.2e-16 at 5,000
    over [2, 700]. Past underflow, where e^-x is 0.0 (x > 745.13, inf included),
    it returns 0.0.
    """
    if not x > 0:
        raise DomainError(f"K1 requires x > 0, got {x!r}")
    if x < 1e-9:
        return 1.0 / x  # inf where 1/x overflows
    decay = math.exp(-x)
    if decay == 0.0:  # K1 < e^-x underflows too
        return 0.0
    if x <= 2.0:
        return decay * float(np.exp(x * _K1_T_EXPONENTS) @ _K1_T_WEIGHTS)
    return decay * (float(_K1_WEIGHTS @ ((x + _K1_W_SQ) / np.sqrt(2.0 * x + _K1_W_SQ))) / x)


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
    delta = abs(kk_label(query.delta, query.params.species_count))
    return _analytic_row(_length_ratio(query.params), delta, query.s)


def _analytic_row(ratio: float, delta: int, s: float) -> float:
    """``analytic_corr`` at s, a/xi = ``ratio`` and nearest-image separation ``delta``."""
    # R_l/rho^3 as (R_l/rho)/rho^2 is finite where rho^3 overflows; /rho/rho/rho where rho^2 is 0
    rho = math.hypot(s, ratio * delta)
    scaled = ratio / rho / (rho * rho) if rho * rho else ratio / rho / rho / rho
    return scaled / (2.0 * math.sqrt(2.0) * math.pi**2)


# a bound on the parameter sets kept, one float and one key of seven fields each
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
        if np.any(gap_sq < 0):  # the rule of spectrum.dispersion: E^2 < 0 is tachyonic
            raise StabilityError(f"tachyonic gap at j={np.argmax(gap_sq < 0)}; "
                                 "correlators undefined")
        mus = np.sqrt(gap_sq) / cutoff
    if not np.all(mus <= 1.0):
        raise ValidityError("a mode gap exceeds the cutoff energy m c_s^2, or overflows to NaN")
    if not check_mono_metricity(params):
        raise ValueError(MONO_METRIC_ERROR.format(params.nUprime, params.rabi))
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


_CUT_CALLS = 4  # table calls of the branch-cut rule's five steps: steps 1 and 2 share the first
_CUT_X = 39.0  # past s = sqrt2 X a reach R stops the cut at s R >= X (``_cut_reach``)
_REL_TOL = 1e-10  # the tolerance of its stop test, relative, over an absolute 1e-15


def _cut_table(mus: np.ndarray, n_sp: int, call: int, reach: float):
    """Read-only (kappa, W, u) of call ``call`` of the branch-cut rule, levels of gap ratios ``mus``.

    Level l's int_0^inf eta sin(eta s) (f_l - 1/N) d eta closes on its cut from kappa =
    mu/sqrt(1 + c) to kappa' = sqrt(1 + c), c = sqrt(1 - mu^2): I_l = (1/N) int t e^(-t s)
    sqrt((kappa'^2 - t^2)/(t^2 - kappa^2)) dt = e^(-kappa s) sum_k W_k e^(-s u_k). Tanh-sinh
    (Takahasi and Mori, Publ. RIMS 9 (1974) 721) at step k takes tau = i h, |tau| <= 4, h =
    0.1 * 2^(1 - k): call 0 holds step 1's nodes, then step 2's odd ones, call k > 0 step
    k + 2's odd ones. t = kappa + u, u = delta p, p = 1/(1 + e^(-pi sinh tau)) and q = 1 - p
    formed apart; delta is the cut's length d = 2c/(kappa + kappa'), or ``reach`` if less.
    With sqrt(t - kappa) = sqrt(u) out of the root, W = h pi cosh(tau) q sqrt(u) sqrt((d -
    delta) + delta q) sqrt(kappa' + t) t/sqrt(t + kappa)/N is finite and >= 0 (0 where t is).
    """
    h = 0.05 * 0.5**call
    index = np.arange(1 - (80 << call), 80 << call, 2)
    if call == 0:
        index = np.concatenate([np.arange(-80, 81, 2), index])
    tau, h = index * h, np.where(index % 2, h, 2.0 * h)
    rise = np.exp(np.pi * np.sinh(tau))
    p, q = rise / (1.0 + rise), 1.0 / (1.0 + rise)
    c = np.sqrt((1.0 - mus) * (1.0 + mus))[:, np.newaxis]  # 1 - mu is exact near mu = 1
    top = np.sqrt(1.0 + c)
    kappa = mus[:, np.newaxis] / top
    length = 2.0 * c / (kappa + top)
    delta = np.minimum(length, reach)
    # in place: at N = 200,001 a (N//2 + 1, 161) temporary is 129 MB
    offsets = delta * p
    t = offsets + kappa
    weights = np.sqrt(t + kappa)
    np.divide(t, weights, out=weights, where=t > 0)
    weights *= np.sqrt(offsets)
    weights *= np.sqrt(np.add(length - delta, delta * q, out=t), out=t)
    weights *= np.sqrt(np.add(top, offsets + kappa, out=t), out=t)
    weights *= (np.pi / n_sp) * h * np.cosh(tau) * q
    kappa = kappa.ravel()
    kappa.flags.writeable = weights.flags.writeable = offsets.flags.writeable = False
    return kappa, weights, offsets


def _cut_reach(s: float) -> float:
    """sqrt2 2^-m, m >= 0 the octave of s sqrt2/X: the whole cut (of length < sqrt2) below
    s = sqrt2 X, and beyond a reach R in [X/s, 2X/s). The cut's integrand g(u) e^(-su)
    (``_cut_table``) has g = t sqrt((kappa'^2 - t^2)/(t^2 - kappa^2)) falling with t, so the
    tail int_R^d = e^(-sR) int_0^(d-R) g(u + R) e^(-su) du is below e^(-sR) <= e^-X of the
    level. X = 39 is the least whole X with e^-X < eps/16 (1.2e-17 < 1.4e-17): the tail stays
    under a 64th of the roundoff floor eps sum_l |w_l| I_l (4 + kappa_l s) of the estimate.
    """
    return math.ldexp(math.sqrt(2.0), -max(0, math.frexp(s * (math.sqrt(2.0) / _CUT_X))[1] - 1))


# a bound on the tables kept, (2 n + 1)(N//2 + 1) floats for a call of n nodes: 8 tables of
# steps 1 and 2 (n = 161) are 10 MB at N = 1001 and 2.1 GB at N = 200,001, one of step 5 4x
@_memo(maxsize=8)
def _cut_call(params: ModelParams, call: int, reach: float):
    """``_cut_table`` of the levels of ``params``, built once a call and reach."""
    return _cut_table(_gap_ratios(params), params.species_count, call, reach)


def _agree(sums, steps: int, rel_tol: float) -> tuple[float, float]:
    """The first of a rule's nested step sums (value, magnitude) to agree with the one before.

    Two agree within max(min(1e-15, rel_tol), rel_tol * |value|); their difference, at least
    the roundoff eps * magnitude, is the error. Raises :class:`QuadratureError` (with the
    last value, and why) if none of the ``steps`` agree, they agree only to a roundoff above
    the tolerance, or a value is not finite.
    """
    abs_tol = min(1e-15, rel_tol)
    value = math.inf  # the first step has no sum to agree with
    for step, (total, magnitude) in enumerate(sums, 1):
        prev, value = value, total
        # a sum rounds in proportion to the magnitudes it adds (Higham, ASNA 4.2)
        roundoff = math.ulp(1.0) * magnitude
        err = max(abs(value - prev), roundoff)
        tol = max(abs_tol, rel_tol * abs(value))
        if math.isfinite(err) and err <= tol:  # an overflowed sum's error and tolerance are inf
            return value, err
        if not math.isfinite(value) or err == roundoff:  # a finer step cannot help
            break
    why = ("got a non-finite sum" if not math.isfinite(value) else
           "reached its roundoff floor" if err == roundoff else "ran out of steps")
    raise QuadratureError(f"quadrature {why} at step {step} of {steps}: error {err:.3g}, "
                          f"requested {tol:.3g}", partial_value=value, error_estimate=err)


def numeric_corr(query: CorrelationQuery) -> tuple[float, float]:
    """Exact mode-sum correlator in 1/xi^3 units, with an error estimate bounding its roundoff.

    D = sum_l w_l I_l / (2 pi^2 s) over the levels' cut integrals (``_cut_table``). Steps 1
    to 5 (at most 1,281 nodes a level) run until two agree within ``_REL_TOL`` (``_agree``);
    the estimate is their difference, at least eps times the size that ``_numeric_row`` gives.
    Raises :class:`QuadratureError` as ``_agree`` does, or where D is not a finite float.
    """
    return _numeric_row(query.params, _cut_reach(query.s),
                        _level_weights(query.params.species_count, query.delta), query.s)


def _numeric_row(params: ModelParams, reach: float, level_weights: np.ndarray,
                 s: float) -> tuple[float, float]:
    """``numeric_corr`` at s. A call's table, ``_cut_call(params, call, reach)``, is read when
    ``_agree`` asks for its steps: one exp, one product with [w e^(-kappa s); |w| e^(-kappa s)
    (4 + kappa s)] and a sum a step. The size sum_l |w_l| I_l (4 + kappa_l s) bounds the
    roundoff: each term carries its roundings (2.5 eps sum_l |w_l| I_l at most against long
    double, 9,000 rows at N <= 101 and s in [1e-3, 1e5]), and e^(-kappa s) those of kappa,
    kappa s times."""
    if s == math.inf:  # D vanishes; s kappa would be NaN where kappa = 0
        return 0.0, 0.0

    def step_sums():
        total = magnitude = 0.0
        for call in range(_CUT_CALLS):
            kappa, weights, offsets = _cut_call(params, call, reach)
            if call == 0:
                exponent = kappa * s
                scaled = level_weights * np.exp(-exponent)
                scaled[1] *= 4.0 + exponent  # 0.0 where e^(-kappa s) is, past kappa s = 745
            terms = np.multiply(offsets, -s)  # s u < 2 X: no overflow
            np.exp(terms, out=terms)
            terms *= weights
            steps = (0, 81) if call == 0 else (0,)  # where each step's own nodes start
            for own, size in np.add.reduceat(scaled @ terms, steps, axis=1).T.tolist():
                total, magnitude = total / 2.0 + own, magnitude / 2.0 + size
                yield total, magnitude

    norm = 2.0 * math.pi**2 * s
    value, err = (part / norm for part in _agree(step_sums(), _CUT_CALLS + 1, _REL_TOL))
    if not (math.isfinite(value) and math.isfinite(err)):
        raise QuadratureError(f"D = {value!r} at s = {s!r} is not a finite float",
                              partial_value=value, error_estimate=err)
    return value, err


def truncated_corr(query: CorrelationQuery, j_tr: int, weighted: bool = True) -> float:
    """Low-mode relativistic correlator, in 1/xi^3 units.

    Sums the levels |n| = 0..j_tr with the level weights of the numeric mode
    sum; level 0, and a level whose m s underflows to 0, uses the limit m K1(m s)
    -> 1/s; where terms overflow, the sum has the sign of its limit, sum_n w_n/s.
    ``weighted=False`` takes the weights at Delta = 0, the phase-free variant.
    """
    levels = _truncated_levels(query.params, query.delta if weighted else 0, j_tr)
    return _truncated_row(*levels, query.s)


# a bound on the levels kept, 2 (j_tr + 1) floats per parameter set, Delta and j_tr: 128
# entries, as many as level tables
@_memo(maxsize=128)
def _truncated_levels(params: ModelParams, delta: int, j_tr: int):
    """(m_n, w_n) of ``truncated_corr``'s levels n = j_tr..0, weighted at ``delta`` (0 for
    the unweighted sum), as tuples, and its norm N sqrt2 pi^2."""
    n_sp = params.species_count
    if not 0 <= j_tr <= (n_sp - 1) // 2:
        raise ValueError(f"j_tr must lie in 0..{(n_sp - 1) // 2}, got {j_tr}")
    ratio = _length_ratio(params)
    weights = tuple(_level_weights(n_sp, delta)[0, j_tr::-1].tolist())
    masses = tuple((2.0 * math.pi * n / n_sp) / ratio for n in range(j_tr, -1, -1))  # level 0: 0
    return masses, weights, n_sp * math.sqrt(2.0) * math.pi**2


def _truncated_row(masses: tuple, weights: tuple, norm: float, s: float) -> float:
    """``truncated_corr`` at s: m K1(m s) falls with m, so the sum adds the smallest first."""
    total = 0.0
    for mass, weight in zip(masses, weights):
        total += weight * (mass * bessel_k1(mass * s) if mass * s > 0 else 1.0 / s)
    if math.isnan(total):  # inf - inf where the terms overflow
        total = math.inf * sum(weights)
    return total / (norm * s)


_COLUMNS = ("s", "delta", "D_analytic", "D_numeric", "D_numeric_err", "D_truncated")


def _rows(params: ModelParams, s, delta: int, j_tr: int | None, weighted: bool):
    """Yield ``correlation_table``'s rows, one per s in the order given, each a tuple of
    Python floats (and ``delta`` as given) in the order of ``_COLUMNS``.

    The checks and the table's basis come before the first row; a row whose quadrature
    fails reads NaN in ``D_numeric`` and ``D_numeric_err``, and any other error raises.
    """
    n_sp = params.species_count
    j_tr = min(2, (n_sp - 1) // 2) if j_tr is None else j_tr
    rows = np.array(s, dtype=float).tolist()
    # a query's checks, at the first s that fails them
    CorrelationQuery(next((s_row for s_row in rows if not s_row > 0), 1.0), delta, params)
    ratio, folded = _length_ratio(params), abs(kk_label(delta, n_sp))
    levels = _truncated_levels(params, delta if weighted else 0, j_tr)
    level_weights = _level_weights(n_sp, delta)
    for s_row in rows:
        try:
            numeric, err = _numeric_row(params, _cut_reach(s_row), level_weights, s_row)
        except QuadratureError:
            numeric = err = math.nan
        yield (s_row, delta, _analytic_row(ratio, folded, s_row), numeric, err,
               _truncated_row(*levels, s_row))


def correlation_table(params: ModelParams, s, delta: int, j_tr: int | None = None,
                      weighted: bool = True) -> dict[str, np.ndarray]:
    """All three correlators at one Delta over a sequence of separations ``s``, as columns.

    Keys, in the CLI's order: ``s, delta, D_analytic, D_numeric, D_numeric_err,
    D_truncated``, one row per s in the order given. A row whose quadrature
    fails reads NaN in ``D_numeric`` and ``D_numeric_err``; any other error
    raises. ``j_tr`` defaults to min(2, (N - 1)//2), the CLI's default too.
    """
    s = np.array(s, dtype=float)
    rows = list(_rows(params, s, delta, j_tr, weighted))
    columns = np.array(rows, dtype=float).reshape(-1, len(_COLUMNS)).T
    return {"s": s, "delta": np.full(s.size, delta), **dict(zip(_COLUMNS[2:], columns[2:]))}
