"""Closed-form spectral quantities of the ring-coupled condensate.

Every function here evaluates a closed form; the independent numerical check
lives in :mod:`kkbec.oracle`. Mode j runs over 0..N-1 with angle
alpha_j = 2*pi*j/N; levels j and N-j are degenerate, and the signed label
n in [-(N-1)/2, (N-1)/2] (:func:`kkbec.model.kk_label`) names the
synthetic-momentum branch. The forms broadcast over an integer array j and a
float array p, e.g. ``dispersion(params, np.arange(N)[:, None], momenta)`` is
the (N, len(momenta)) table, bit for bit the floats of the scalar calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateModeError, StabilityError
from .model import ModelParams, kk_label

ModeIndices = int | np.ndarray
Momenta = float | np.ndarray

__all__ = [
    "BogoliubovAmplitudes",
    "bogoliubov_amplitudes",
    "continuum_mass_sq",
    "dispersion",
    "energy_sq",
    "kk_tower",
    "nonrel_dispersion",
    "p5",
    "rest_energy_sq",
    "rest_energy_sq_mono",
    "sound_speed_sq",
    "validity_constraint",
]


@dataclass(frozen=True, slots=True)
class BogoliubovAmplitudes:
    """Quasiparticle mixing amplitudes, normalized to u^2 - v^2 = 1/N."""

    u: float
    v: float


def _cos_alpha(params: ModelParams, j: ModeIndices) -> float | np.ndarray:
    # |n| gives partners j, N - j one cosine bit for bit; a float keeps scalars in Python arithmetic
    n_sp = params.species_count
    c = np.cos(2.0 * np.pi * abs(kk_label(j, n_sp)) / n_sp)
    return c if np.ndim(c) else float(c)


def rest_energy_sq(params: ModelParams, j: ModeIndices) -> float | np.ndarray:
    """Squared gap of mode j, general (multi-metric) form.

    Evaluated as 4*Omega*(cos a - 1)*[(2nU' + Omega) cos a + nU - Omega], the
    exact factorization of the quartic-in-cos(a/2) printed form; this keeps
    the j = 0 gap at literal zero instead of cancellation noise. May be
    negative for tachyonic parameters; callers that need a real energy must
    check the sign.
    """
    om = params.rabi
    c = _cos_alpha(params, j)
    # the trailing +0.0 canonicalizes -0.0 at the gapless mode
    return 4.0 * om * (c - 1.0) * ((2.0 * params.nUprime + om) * c + params.nU - om) + 0.0


def rest_energy_sq_mono(params: ModelParams, j: ModeIndices) -> float | np.ndarray:
    """Squared gap under mono-metricity, -4*Omega*[nU(1-cos a) - Omega sin^2 a].

    Agrees identically with :func:`rest_energy_sq` when n*U' = -Omega.
    """
    om = params.rabi
    c = _cos_alpha(params, j)
    sin_sq = (1.0 - c) * (1.0 + c)
    return -4.0 * om * (params.nU * (1.0 - c) - om * sin_sq) + 0.0


def sound_speed_sq(params: ModelParams, j: ModeIndices) -> float | np.ndarray:
    """Per-mode squared sound speed, m*c_sj^2 = nU - 2Om + 2(nU' + Om) cos a_j."""
    c = _cos_alpha(params, j)
    return (params.nU - 2.0 * params.rabi + 2.0 * (params.nUprime + params.rabi) * c) / params.atom_mass


def energy_sq(params: ModelParams, j: ModeIndices, p: Momenta) -> float | np.ndarray:
    """Squared excitation energy E_j(p)^2 = E_rj^2 + c_sj^2 p^2 + (p^2/2m)^2."""
    eps = p * p / (2.0 * params.atom_mass)
    return rest_energy_sq(params, j) + sound_speed_sq(params, j) * p * p + eps * eps


def dispersion(params: ModelParams, j: ModeIndices, p: Momenta) -> float | np.ndarray:
    """Excitation energy sqrt(:func:`energy_sq`); raises at the first (j, p) with E^2 < 0.

    Where p^2 is subnormal, c_sj^2 p^2 underflows, so E is hypot(E_rj, p sqrt(c_sj^2 + (p/2m)^2))
    there, if both terms are not negative; every other (j, p) keeps sqrt(energy_sq)'s bits.
    """
    e_sq = energy_sq(params, j, p)
    if np.any(e_sq < 0):
        e_sq, j, p = (np.broadcast_to(x, np.shape(e_sq)).ravel() for x in (e_sq, j, p))
        k = np.argmax(e_sq < 0)
        raise StabilityError(f"tachyonic mode: E^2 = {e_sq[k]:.6g} < 0 at j={j[k]}, p={p[k]:.6g}")
    energy = np.sqrt(e_sq) if np.ndim(e_sq) else math.sqrt(e_sq)
    underflows = p * p < np.finfo(float).tiny
    if np.any(underflows):
        rest_sq = rest_energy_sq(params, j)
        slope_sq = sound_speed_sq(params, j) + (p / (2.0 * params.atom_mass)) ** 2
        with np.errstate(invalid="ignore"):  # the square roots of negative terms are not used
            small = np.hypot(np.sqrt(rest_sq), p * np.sqrt(slope_sq))
        energy = np.where(underflows & (rest_sq >= 0) & (slope_sq >= 0), small, energy)
    return energy if np.ndim(energy) else float(energy)


def bogoliubov_amplitudes(params: ModelParams, j: int, p: float) -> BogoliubovAmplitudes:
    """Closed-form (u, v) with u > 0 > v and u^2 - v^2 = 1/N.

    The kinetic-plus-interaction scale in the numerator is the per-mode
    m*c_sj^2; under mono-metricity it reduces to the common m*c_s^2.
    """
    energy = dispersion(params, j, p)
    if energy == 0.0:
        raise DegenerateModeError(f"zero-energy mode at j={j}, p={p}")
    eps = p * p / (2.0 * params.atom_mass)
    ratio = (params.atom_mass * sound_speed_sq(params, j) + eps) / energy
    two_n = 2.0 * params.species_count
    u = math.sqrt((ratio + 1.0) / two_n)
    v = -math.sqrt(max(ratio - 1.0, 0.0) / two_n)
    return BogoliubovAmplitudes(u=u, v=v)


def p5(params: ModelParams, j: ModeIndices) -> float | np.ndarray:
    """Discrete synthetic-dimension momentum 2*pi*n/(N*a), signed via the KK label."""
    a = 1.0 / math.sqrt(2.0 * params.atom_mass * abs(params.rabi))
    return 2.0 * math.pi * kk_label(j, params.species_count) / (params.species_count * a)


def continuum_mass_sq(params: ModelParams, j: ModeIndices) -> float | np.ndarray:
    """Continuum-limit squared gap c_s^2 * p5^2 (mono-metric sound speed)."""
    cs_sq = (params.nU - 2.0 * params.rabi) / params.atom_mass
    momentum = p5(params, j)
    return cs_sq * momentum * momentum


def validity_constraint(params: ModelParams, j: ModeIndices) -> float | np.ndarray:
    """Dimensionless p5/(sqrt(2) m c_s) = 2*pi*|n|*xi/(N*a); must be << 1."""
    om = abs(params.rabi)
    n_abs = abs(kk_label(j, params.species_count))
    return 2.0 * math.pi * n_abs / params.species_count * math.sqrt(om / (params.nU + 2.0 * om))


def kk_tower(params: ModelParams) -> dict[str, np.ndarray]:
    """The mass tower as columns, in rows sorted by |n| (massless first, +n before -n).

    Keys: j, n, alpha, Erj_sq_exact, Erj_sq_continuum, csj_sq, p5, constraint_value,
    degeneracy (1 for the massless mode, 2 for each pair); each form runs once a level |n|.
    """
    n_sp = params.species_count
    if n_sp % 2 == 0:
        raise ValueError("the mass tower pairing j <-> N-j requires odd N")
    level = np.arange(1, n_sp + 1) // 2  # row 0 holds level 0, rows 2l - 1 and 2l n = l and -l
    n = np.where(np.arange(n_sp) % 2, level, -level)
    j, levels = n % n_sp, np.arange(n_sp // 2 + 1)
    # as in Python float arithmetic: overflow gives inf, a division by zero raises
    with np.errstate(over="ignore", invalid="ignore", divide="raise"):
        return {"j": j, "n": n, "alpha": params.alphas[j],
                "Erj_sq_exact": rest_energy_sq(params, levels)[level],
                "Erj_sq_continuum": continuum_mass_sq(params, levels)[level],
                "csj_sq": sound_speed_sq(params, levels)[level],
                "p5": p5(params, levels)[level] * np.sign(n),  # p5(-n) = -p5(n) exactly
                "constraint_value": validity_constraint(params, levels)[level],
                "degeneracy": np.where(j == 0, 1, 2)}


def nonrel_dispersion(params: ModelParams, j: ModeIndices, p: Momenta) -> float | np.ndarray:
    """Non-relativistic closed form p^2/2m + 2|Om|(1 - cos a_j) + n(U + U' cos a_j).

    Intended for |Omega| >> nU, nU'; evaluated as quoted except that the gap
    term uses |Omega| (the stable branch condenses at the Rabi band minimum,
    which requires Omega < 0, and the printed form is positive only for the
    magnitude reading).
    """
    c = _cos_alpha(params, j)
    return (
        p * p / (2.0 * params.atom_mass)
        + 2.0 * abs(params.rabi) * (1.0 - c)
        + params.density * (params.self_interaction + params.cross_interaction * c)
    )
