"""Independent reference values for the benchmark's output checks.

Nothing here imports kkbec. Correlator rows come from scipy QUADPACK on the
cancellation-free form of the mode integrand, K1 from ``scipy.special.k1``,
and gaps and dispersion energies from a dense ``numpy.linalg.eigvalsh`` of
the Bogoliubov-de Gennes blocks assembled here. Every parameter set is the
normalized mono-metric one, m = n = U = 1, Omega = -r, U' = r.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
from scipy import integrate, special
from scipy.integrate import IntegrationWarning


def bdg_blocks(r: float, n_sp: int, p: float) -> tuple[np.ndarray, np.ndarray]:
    """A and B blocks of the quadratic fluctuation form at momentum p."""
    omega, n_u, n_up = -r, 1.0, r
    ring = np.roll(np.eye(n_sp), 1, axis=0) + np.roll(np.eye(n_sp), -1, axis=0)
    ident = np.eye(n_sp)
    block_a = (0.5 * p * p + n_u - 2.0 * omega) * ident + (n_up + omega) * ring
    block_b = n_u * ident + n_up * ring
    return block_a, block_b


def energies_sq(r: float, n_sp: int, p: float) -> np.ndarray:
    """Sorted squared quasiparticle energies, eig of sqrt(A-B) (A+B) sqrt(A-B)."""
    block_a, block_b = bdg_blocks(r, n_sp, p)
    diff_eigs, diff_vecs = np.linalg.eigh(block_a - block_b)
    root = (diff_vecs * np.sqrt(np.clip(diff_eigs, 0.0, None))) @ diff_vecs.T
    return np.sort(np.linalg.eigvalsh(root @ (block_a + block_b) @ root))


def gap_ratios(r: float, n_sp: int) -> np.ndarray:
    """mu_j = E_rj / (m c_s^2) for j = 0..(N-1)/2 from the dense p = 0 spectrum.

    Sorted E^2 reads [0, e1, e1, e2, e2, ...]: the gapless mode, then the
    degenerate pairs j, N - j in order of j for the stable mono-metric sets.
    """
    cutoff = 1.0 + 2.0 * r
    e_sq = energies_sq(r, n_sp, 0.0)
    e_sq[np.abs(e_sq) < 1e-12 * cutoff * cutoff] = 0.0
    pairs = [0.5 * (e_sq[2 * j - 1] + e_sq[2 * j]) for j in range(1, (n_sp + 1) // 2)]
    return np.sqrt(np.array([0.0] + pairs)) / cutoff


# Candidate ends of the QAWO part, in eta; the next is tried only when
# QUADPACK reports a warning for the previous one.
_SPLITS = (20.0, 40.0, 10.0)


def mode_integral(mu: float, n_sp: int, s: float) -> float:
    """int_0^inf eta (f_j - 1/N) sin(eta s) d eta for gap ratio mu.

    f_j - 1/N = 2c(1+c+eta^2) / (N r (1+c+eta^2+r)), r = sqrt(mu^2+2eta^2+eta^4),
    c = sqrt(1-mu^2), has no cancellation at large eta. The range is split
    into a QAWO part on [0, A], A a whole number of periods past the
    structure at eta <~ 1, and a QAWF tail from A. A first pass sets the
    magnitude for the absolute tolerance of the second, because the result
    cancels far below the size of the integrand when s is large. An
    IntegrationWarning rejects the split; if every split warns, it is raised.
    """
    c = math.sqrt(1.0 - mu * mu)

    def g(eta: float) -> float:
        e2 = eta * eta
        root = math.sqrt(mu * mu + 2.0 * e2 + e2 * e2)
        # eta / root, with its limit at eta = 0 for the gapless mode
        eta_over_root = 1.0 / math.sqrt(2.0 + e2) if mu == 0.0 else eta / root
        return eta_over_root * 2.0 * c * (1.0 + c + e2) / (n_sp * (1.0 + c + e2 + root))

    period = 2.0 * math.pi / s

    def whole(head_end: float, epsabs: float, epsrel: float) -> float:
        head, _ = integrate.quad(g, 0.0, head_end, weight="sin", wvar=s,
                                 epsabs=epsabs, epsrel=epsrel, limit=5000)
        tail, _ = integrate.quad(g, head_end, np.inf, weight="sin", wvar=s,
                                 epsabs=max(epsabs, epsrel * abs(head)),
                                 limlst=200, limit=5000)
        return head + tail

    with warnings.catch_warnings():
        warnings.simplefilter("error", IntegrationWarning)
        for split in _SPLITS:
            head_end = period * max(1, math.ceil(split / period))
            try:
                estimate = whole(head_end, 0.0, 1e-6)
                return whole(head_end, 1e-11 * abs(estimate), 1e-11)
            except IntegrationWarning as exc:
                failure = exc
    raise failure


def correlator_row(r: float, n_sp: int, s: float, j_tr: int) -> dict:
    """Per-mode integrals and K1 terms for one separation s; Delta-free."""
    mus = gap_ratios(r, n_sp)
    ratio = math.sqrt((1.0 + 2.0 * r) / r)  # lattice spacing over healing length
    masses = [2.0 * math.pi * j / n_sp / ratio for j in range(1, j_tr + 1)]
    return {
        "s": s,
        "integrals": [mode_integral(float(mu), n_sp, s) for mu in mus],
        "k1_terms": [m * float(special.k1(m * s)) for m in masses],
    }


def dispersion_table(r: float, n_sp: int, etas) -> list[list[float]]:
    """Sorted E^2 at p = eta * xi^-1 for every eta of the grid."""
    inv_xi = math.sqrt(2.0) * math.sqrt(1.0 + 2.0 * r)
    return [energies_sq(r, n_sp, float(eta) * inv_xi).tolist() for eta in etas]
