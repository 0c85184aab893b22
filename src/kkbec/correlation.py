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

The radial reduction of the 3D Fourier integral is analytic; the remaining
oscillatory 1D integral is integrated panel-by-panel between consecutive
zeros of sin(eta*s) and the alternating partial sums are accelerated by
repeated averaging (van Wijngaarden), since the subtracted integrand decays
only like 1/eta.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, QuadratureError, StabilityError, ValidityError
from .model import ModelParams, check_mono_metricity, derive_scales
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

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(12)


@dataclass(frozen=True, slots=True)
class QuadConfig:
    """Knobs of the oscillatory integrator."""

    rel_tol: float = 1e-10
    abs_tol: float = 1e-15
    start_panels: int = 64
    max_panels: int = 4096
    panel_rel_tol: float = 1e-13
    max_depth: int = 24

    def __post_init__(self):
        if not (self.rel_tol > 0 and self.abs_tol > 0 and self.panel_rel_tol > 0
                and 1 <= self.start_panels <= self.max_panels):
            raise ValueError(f"need tolerances > 0 and 1 <= start_panels <= max_panels: {self}")


def _gl_panel(f, a: float, b: float) -> float:
    x = 0.5 * (b - a) * _GL_NODES + 0.5 * (a + b)
    return 0.5 * (b - a) * float(np.dot(_GL_WEIGHTS, f(x)))


# refinement below this absolute scale is roundoff-chasing in doubles,
# independently of how tight the requested integral tolerance is
_PANEL_ABS_FLOOR = 1e-17


def _adaptive_panel(f, a: float, b: float, cfg: QuadConfig, depth: int = 0) -> float:
    whole = _gl_panel(f, a, b)
    mid = 0.5 * (a + b)
    halves = _gl_panel(f, a, mid) + _gl_panel(f, mid, b)
    if abs(halves - whole) <= cfg.panel_rel_tol * abs(halves) + _PANEL_ABS_FLOOR:
        return halves
    # halving never makes a non-finite panel finite (the integrand is NaN once
    # eta^2 overflows); fourier_sin_integral then fails at once
    if depth >= cfg.max_depth or not math.isfinite(halves):
        return halves
    return _adaptive_panel(f, a, mid, cfg, depth + 1) + _adaptive_panel(f, mid, b, cfg, depth + 1)


def _accelerated_tail(partials: np.ndarray) -> tuple[float, float]:
    # Repeated averaging of the alternating partial sums; apex value plus the
    # difference of the last two averaging levels as the error estimate.
    level = partials
    prev = level[-1]
    best = prev
    err = abs(prev)
    while level.size > 1:
        level = 0.5 * (level[:-1] + level[1:])
        best = level[-1]
        err = abs(best - prev)
        prev = best
    return float(best), float(err)


def fourier_sin_integral(
    g, s: float, cfg: QuadConfig | None = None, breaks=()
) -> tuple[float, float]:
    """Integrate g(eta)*sin(eta*s) over [0, inf) for smooth, slowly decaying g.

    ``g`` must accept numpy arrays. Panels run between consecutive zeros of
    sin(eta*s); the panel count grows geometrically until the accelerated
    tail stabilizes. Panels are split at the ``breaks``, so that structure of
    g much narrower than pi/s cannot pass the refinement test unseen. Raises
    :class:`QuadratureError` (carrying the partial value) if the budget is
    exhausted or the integral is not finite.
    """
    if s <= 0:
        raise ValueError("oscillation frequency s must be positive")
    cfg = cfg or QuadConfig()
    width = math.pi / s

    def f(eta):
        return g(eta) * np.sin(eta * s)

    breaks = sorted(map(float, breaks))
    panels: list[float] = []
    count = cfg.start_panels
    while True:
        for k in range(len(panels), count):
            a, b = k * width, (k + 1) * width
            cuts = [a, *breaks[bisect.bisect_right(breaks, a):bisect.bisect_left(breaks, b)], b]
            panels.append(sum(_adaptive_panel(f, lo, hi, cfg) for lo, hi in zip(cuts, cuts[1:])))
        partials = np.cumsum(panels)
        tail_len = max(8, len(panels) // 2)
        value, err = _accelerated_tail(partials[-tail_len:])
        # accumulated roundoff over the panel sums bounds the achievable accuracy
        err = max(err, 1e-16 * float(np.sum(np.abs(panels))))
        if err <= max(cfg.abs_tol, cfg.rel_tol * abs(value)):
            return value, err
        if count >= cfg.max_panels or not math.isfinite(err):
            raise QuadratureError(
                f"no convergence after {count} panels (err={err:.3g})",
                partial_value=value,
                error_estimate=err,
            )
        count = min(2 * count, cfg.max_panels)


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


@dataclass(frozen=True, slots=True)
class CorrelationSample:
    query: CorrelationQuery
    analytic: float
    numeric: float
    truncated: float
    quadrature_error_estimate: float


def analytic_corr(query: CorrelationQuery) -> float:
    """Continuum closed form, in 1/xi^3 units.

    Delta is the ring-site separation, so the synthetic distance uses the
    nearest image min(Delta, N - Delta).
    """
    ratio = derive_scales(query.params, mono_metric=True).length_ratio
    delta = _fold_delta(query.delta, query.params.species_count)
    rho_sq = query.s**2 + (ratio * delta) ** 2
    return ratio / (2.0 * math.sqrt(2.0) * math.pi**2 * rho_sq**1.5)


def _gap_ratios(params: ModelParams) -> np.ndarray:
    """mu_j = E_rj / (m c_s^2) for every mode, with the mono-metric cutoff."""
    cutoff = params.nU - 2.0 * params.rabi  # m c_s^2 under mono-metricity
    if cutoff <= 0:
        raise StabilityError(f"no stable sound cone: m c_s^2 = {cutoff:.6g} <= 0")
    mus = np.empty(params.species_count)
    for j in range(params.species_count):
        gap_sq = rest_energy_sq(params, j)
        # the gapless mode evaluates to 0 only up to cancellation noise
        if gap_sq < -1e-12 * cutoff * cutoff:
            raise StabilityError(f"tachyonic gap at j={j}; correlators undefined")
        mus[j] = math.sqrt(max(gap_sq, 0.0)) / cutoff
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
    eta^2, r = sqrt(mu^2 + 2 eta^2 + eta^4); a - r cancels at large eta.
    """
    mu_sq = mus * mus
    c = np.sqrt(1.0 - mu_sq)
    scale = 2.0 * c / n_sp

    def excess(eta):
        eta_sq = np.square(np.asarray(eta, dtype=float))[..., np.newaxis]
        a = (1.0 + c) + eta_sq
        r = np.sqrt(mu_sq + eta_sq * (2.0 + eta_sq))
        return scale * a / (r * (a + r))

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


def _fold_delta(delta: int, n_sp: int) -> int:
    # cos(2 pi j (N-Delta)/N) == cos(2 pi j Delta/N); folding makes the
    # symmetry hold bit-for-bit instead of to the last ulp
    return min(delta % n_sp, n_sp - delta % n_sp)


def numeric_corr(
    query: CorrelationQuery, quad_config: QuadConfig | None = None
) -> tuple[float, float]:
    """Exact mode-sum correlator, in 1/xi^3 units, with an error estimate."""
    n_sp = query.params.species_count
    mus = _gap_ratios(query.params)
    delta = _fold_delta(query.delta, n_sp)
    weights = np.cos(2.0 * math.pi * np.arange(n_sp) * delta / n_sp)
    excess = _amplitude_excess(mus, n_sp)

    def g(eta):
        return eta * (excess(eta) @ weights)

    # g has structure at every eta ~ mu_j and at eta ~ 1, and decays like 1/eta
    # beyond: halve [0, pi/s] down to the smallest gap ratio so no panel hides it
    width = math.pi / query.s
    low = float(np.min(mus[mus > 0.0], initial=1.0))
    breaks = width * 0.5 ** np.arange(1, max(1, math.ceil(math.log2(width / low)) + 1))
    integral, err = fourier_sin_integral(g, query.s, quad_config, breaks)
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
    delta = _fold_delta(query.delta, n_sp)
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


def correlation_sample(
    query: CorrelationQuery, j_tr: int = 2, quad_config: QuadConfig | None = None,
    weighted_truncation: bool = True,
) -> CorrelationSample:
    """Evaluate all three correlators at one (s, Delta) point."""
    numeric, err = numeric_corr(query, quad_config)
    return CorrelationSample(
        query=query,
        analytic=analytic_corr(query),
        numeric=numeric,
        truncated=truncated_corr(query, j_tr, weighted_truncation),
        quadrature_error_estimate=err,
    )
