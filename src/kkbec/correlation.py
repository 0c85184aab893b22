"""Two-point correlators of the analog field and their numerical machinery.

Three routes to the same long-distance physics, all reported in units of the
inverse cubed healing length (the 1/xi^3 prefactor divided out):

* ``analytic_corr`` -- the continuum closed form
  (1/(2 sqrt2 pi^2)) * R_l / (s^2 + (R_l Delta)^2)^(3/2);
* ``numeric_corr`` -- the mode sum as one integral, (1/(2 pi^2 s)) int_0^inf
  eta sin(eta s) sum_j cos(2 pi j Delta / N) [f_j(eta) - 1/N] d eta, with
  f_j = (u_j - v_j)^2 at eta = p*xi; the 1/N asymptote, removed in exact
  cancellation-free form, cancels for Delta != 0 mod N and is a pure contact
  term otherwise, so the value for s > 0 is unchanged. Modes j and N - j share
  f_j, so the sum runs over the (N+1)/2 levels |n| with their summed weights;
* ``truncated_corr`` -- the low-mode relativistic sum
  (1/N) sum_{|j| <= j_tr} R_m(j) K1(R_m(j) s) / (sqrt2 pi^2 s) with
  R_m(j) = alpha_j / R_l, cosine-weighted by default for Delta != 0.

The radial reduction of the 3D Fourier integral is analytic; the remaining
oscillatory 1D integral, whose subtracted integrand decays only like 1/eta,
goes to the Ooura-Mori double-exponential rule for Fourier integrals, whose
nodes approach the zeros of sin(eta*s).

``correlation_table`` evaluates all three over an s grid at one Delta and
returns the columns that the ``correlation`` command writes.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, QuadratureError, StabilityError, ValidityError
from .model import ModelParams, check_mono_metricity, derive_scales, kk_label
from .spectrum import rest_energy_sq

_EULER_GAMMA = 0.5772156649015328606


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


def _k1_continued_fraction(x: float) -> float:
    # Steed/Thompson-Barnett CF2 at order nu = 0 (x >= 2), which yields K0 and
    # the ladder factor for K1 = K0 * (x + 1/2 - h)/x in one sweep.
    a1 = 0.25
    b = 2.0 * (1.0 + x)
    d = 1.0 / b
    h = d
    delh = d
    q1, q2 = 0.0, 1.0
    q = a1
    c = a1
    a = -a1
    s = 1.0 + q * delh
    for i in range(2, 40001):
        a -= 2.0 * (i - 1)
        c = -a * c / i
        qnew = (q1 - b * q2) / a
        q1, q2 = q2, qnew
        q += c * qnew
        b += 2.0
        d = 1.0 / (b + a * d)
        delh = (b * d - 1.0) * delh
        h += delh
        dels = q * delh
        s += dels
        if abs(dels / s) <= 1e-17:
            break
    else:  # pragma: no cover - CF2 converges in O(10) iterations for x >= 2
        raise DomainError(f"K1 continued fraction failed to converge at x={x}")
    h = a1 * h
    k0 = math.sqrt(math.pi / (2.0 * x)) * math.exp(-x) / s
    return k0 * (x + 0.5 - h) / x


def bessel_k1(x: float) -> float:
    """Modified Bessel function of the second kind, order one.

    Series for x <= 2, continued fraction beyond; relative error below 1e-10
    over [1e-3, 30] (validated against the integral representation
    int_0^inf exp(-x cosh t) cosh t dt in the test suite).
    """
    if not x > 0:
        raise DomainError(f"K1 requires x > 0, got {x!r}")
    if x <= 2.0:
        return _k1_series(x)
    return _k1_continued_fraction(x)


# ---------------------------------------------------------------------------
# Oscillatory quadrature: int_0^inf g(eta) sin(eta*s) d eta
# ---------------------------------------------------------------------------

@functools.cache
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
    nodes, weights = m * phi[lo:hi + 1], weights[lo:hi + 1]
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def fourier_sin_integral(g, s: float, rel_tol: float = 1e-10) -> tuple[float, float]:
    """Integrate g(eta)*sin(eta*s) over [0, inf) for smooth, slowly decaying g.

    ``g`` must accept numpy arrays. The double-exponential rule runs at steps
    0.1 * 2^-k, k = 0..6, until two successive sums agree within
    max(min(1e-15, rel_tol), rel_tol * |sum|); their difference, at least the
    roundoff of the sum, is the error estimate. ``rel_tol`` must be > 0.
    Raises :class:`QuadratureError` (carrying the last sum) if they never agree,
    agree only to a roundoff above the tolerance, or a sum is not finite.
    """
    if not s > 0:
        raise ValueError("oscillation frequency s must be positive")
    if not rel_tol > 0:
        raise ValueError(f"need a tolerance > 0, got {rel_tol}")
    abs_tol = min(1e-15, rel_tol)
    value = math.inf  # the first step has no sum to agree with
    for level in range(7):
        nodes, weights = _de_rule(level)
        # an overflow in g leaves inf or NaN in the sum, which fails below
        with np.errstate(all="ignore"):
            terms = weights * g(nodes / s)
            prev, value = value, float(np.sum(terms)) / s
            # roundoff of the sum bounds the achievable accuracy
            roundoff = 1e-16 * float(np.sum(np.abs(terms))) / s
            err = max(abs(value - prev), roundoff)
        if math.isfinite(value) and err <= max(abs_tol, rel_tol * abs(value)):
            return value, err
        if not math.isfinite(value) or err == roundoff:  # a finer step cannot help
            break
    raise QuadratureError(f"no convergence by quadrature step {level + 1} of 7 (err={err:.3g})",
                          partial_value=value, error_estimate=err)


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
    ratio = derive_scales(query.params, mono_metric=True).length_ratio
    delta = abs(kk_label(query.delta, query.params.species_count))
    # R_l/rho^3 as (R_l/rho)/rho^2 stays finite where rho^3 overflows
    rho = math.hypot(query.s, ratio * delta)
    return ratio / rho / (rho * rho) / (2.0 * math.sqrt(2.0) * math.pi**2)


def _gap_ratios(params: ModelParams) -> np.ndarray:
    """mu_j = E_rj / (m c_s^2) for every mode, with the mono-metric cutoff."""
    cutoff = params.nU - 2.0 * params.rabi  # m c_s^2 under mono-metricity
    if cutoff <= 0:
        raise StabilityError(f"no stable sound cone: m c_s^2 = {cutoff:.6g} <= 0")
    # as in Python float arithmetic, an overflowing gap is inf and fails below
    with np.errstate(over="ignore", invalid="ignore"):
        gap_sq = rest_energy_sq(params, np.arange(params.species_count))
    # the gapless mode evaluates to 0 only up to cancellation noise
    tachyonic = gap_sq < -1e-12 * cutoff * cutoff
    if np.any(tachyonic):
        raise StabilityError(f"tachyonic gap at j={np.argmax(tachyonic)}; correlators undefined")
    mus = np.sqrt(np.maximum(gap_sq, 0.0)) / cutoff
    if np.any(mus > 1.0):
        raise ValidityError("a mode gap exceeds the cutoff energy m c_s^2")
    if not check_mono_metricity(params, 1e-9):
        raise ValueError(
            "mode amplitudes use the single mono-metric sound speed; "
            f"n*U' = {params.nUprime:.6g} does not match -Omega = {-params.rabi:.6g}"
        )
    return mus


def _amplitude_excess(mus: np.ndarray, n_sp: int):
    """eta -> f_j(eta) - 1/N for every gap ratio mu_j, shape eta.shape + mus.shape.

    (a - r)/(N r) = 2 c a / (N r (a + r)) with c = sqrt(1 - mu^2), a = 1 + c +
    eta^2, r = sqrt(mu^2 + 2 eta^2 + eta^4); a - r cancels at large eta. r
    and a/r are formed without eta^4, so nothing overflows before eta^2 does.
    """
    mu_sq = mus * mus
    c = np.sqrt(1.0 - mu_sq)
    scale = 2.0 * c / n_sp

    def excess(eta):
        eta = np.asarray(eta, dtype=float)[..., np.newaxis]
        eta_sq = eta * eta
        a = (1.0 + c) + eta_sq
        r = np.hypot(mus, eta * np.sqrt(2.0 + eta_sq))
        return scale * (a / r) / (a + r)

    return excess


def mode_integrand(params: ModelParams, j: int, eta) -> float | np.ndarray:
    """(u_j - v_j)^2 at dimensionless momentum eta = p*xi.

    Equals (1/N) [(1 + eta^2) + sqrt(1 - mu_j^2)] / sqrt(mu_j^2 + 2 eta^2 +
    eta^4) with mu_j = E_rj/(m c_s^2); requires mono-metric parameters and
    (j, eta) != (0, 0).
    """
    n_sp = params.species_count
    mus = _gap_ratios(params)[[j % n_sp]]
    if mus[0] == 0.0 and np.any(np.asarray(eta) == 0.0):
        raise ValueError("the massless mode has no amplitude at eta = 0")
    value = 1.0 / n_sp + _amplitude_excess(mus, n_sp)(eta)[..., 0]
    return float(value) if np.isscalar(eta) else value


def numeric_corr(query: CorrelationQuery, rel_tol: float = 1e-10) -> tuple[float, float]:
    """Exact mode-sum correlator, in 1/xi^3 units, with an error estimate."""
    n_sp = query.params.species_count
    modes = np.arange(n_sp)
    # level |n| sums the weights cos(2 pi j Delta/N) of its modes j = +-n; folding
    # j*Delta keeps each angle exact and the weights symmetric bit for bit
    angles = 2.0 * np.pi * abs(kk_label(modes * query.delta, n_sp)) / n_sp
    weights = np.bincount(abs(kk_label(modes, n_sp)), np.cos(angles))
    excess = _amplitude_excess(_gap_ratios(query.params)[:weights.size], n_sp)

    def g(eta):
        return eta * (excess(eta) @ weights)

    integral, err = fourier_sin_integral(g, query.s, rel_tol)
    # roundoff of the pointwise weighted sum, ~1e-16 sum_j |w_j I_j| with each
    # mode integral I_j <~ min(pi/2, sqrt2/s)/N, is invisible to the quadrature
    mode_scale = min(0.5 * math.pi, math.sqrt(2.0) / query.s) / n_sp
    err = max(err, 1e-16 * float(np.sum(np.abs(weights))) * mode_scale)
    norm = 2.0 * math.pi**2 * query.s
    return integral / norm, err / norm


def truncated_corr(query: CorrelationQuery, j_tr: int, weighted: bool = True) -> float:
    """Low-mode relativistic correlator, in 1/xi^3 units.

    The j = 0 term uses the massless limit m K1(m s) -> 1/s. ``weighted``
    applies the same cosine weights as the numeric mode sum (default);
    ``weighted=False`` gives the phase-free variant of the sum.
    """
    n_sp = query.params.species_count
    if not 0 <= j_tr <= (n_sp - 1) // 2:
        raise ValueError(f"j_tr must lie in 0..{(n_sp - 1) // 2}, got {j_tr}")
    ratio = derive_scales(query.params, mono_metric=True).length_ratio
    s = query.s
    delta = abs(kk_label(query.delta, n_sp))
    total = 0.0
    for j in range(-j_tr, j_tr + 1):
        weight = math.cos(2.0 * math.pi * j * delta / n_sp) if weighted else 1.0
        if j == 0:
            term = 1.0 / s
        else:
            mass = (2.0 * math.pi * abs(j) / n_sp) / ratio
            term = mass * bessel_k1(mass * s)
        total += weight * term
    return total / (n_sp * math.sqrt(2.0) * math.pi**2 * s)


def correlation_table(params: ModelParams, s, delta: int, j_tr: int = 2, rel_tol: float = 1e-10,
                      weighted: bool = True) -> dict[str, np.ndarray]:
    """All three correlators at one Delta over a sequence of separations ``s``, as columns.

    Keys, in the CLI's order: ``s, delta, D_analytic, D_numeric, D_numeric_err,
    D_truncated``, one row per s in the order given. A row whose quadrature
    fails reads NaN in ``D_numeric`` and ``D_numeric_err``; any other error
    raises.
    """
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
