"""Closed-form spectral quantities of the ring-coupled condensate.

Every function here evaluates a closed form; the independent numerical check
lives in :mod:`kkbec.oracle`. Mode j runs over 0..N-1 with angle
alpha_j = 2*pi*j/N; levels j and N-j are degenerate, and the signed label
n in [-(N-1)/2, (N-1)/2] names the synthetic-momentum branch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DegenerateModeError, StabilityError
from .model import ModeIndex, ModelParams

__all__ = [
    "BogoliubovAmplitudes",
    "TowerEntry",
    "bogoliubov_amplitudes",
    "continuum_mass_sq",
    "dispersion",
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


@dataclass(frozen=True, slots=True)
class TowerEntry:
    """One rung of the mass tower: exact and continuum-limit squared gaps."""

    mode: ModeIndex
    rest_energy_sq: float
    continuum_mass_sq: float
    p5: float
    sound_speed_sq: float
    degeneracy: int
    constraint_value: float


def _cos_alpha(params: ModelParams, j: int) -> float:
    # Fold j onto min(j, N-j) so that degenerate partners share the cosine
    # bit-for-bit; cos(2*pi - a) and cos(a) otherwise differ in the last ulp.
    n_sp = params.species_count
    jf = j % n_sp
    jf = min(jf, n_sp - jf)
    return math.cos(2.0 * math.pi * jf / n_sp)


def rest_energy_sq(params: ModelParams, j: int) -> float:
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


def rest_energy_sq_mono(params: ModelParams, j: int) -> float:
    """Squared gap under mono-metricity, -4*Omega*[nU(1-cos a) - Omega sin^2 a].

    Agrees identically with :func:`rest_energy_sq` when n*U' = -Omega.
    """
    om = params.rabi
    c = _cos_alpha(params, j)
    sin_sq = (1.0 - c) * (1.0 + c)
    return -4.0 * om * (params.nU * (1.0 - c) - om * sin_sq) + 0.0


def sound_speed_sq(params: ModelParams, j: int) -> float:
    """Per-mode squared sound speed, m*c_sj^2 = nU - 2Om + 2(nU' + Om) cos a_j."""
    c = _cos_alpha(params, j)
    return (params.nU - 2.0 * params.rabi + 2.0 * (params.nUprime + params.rabi) * c) / params.atom_mass


def dispersion(params: ModelParams, j: int, p: float) -> float:
    """Excitation energy E_j(p) = sqrt(E_rj^2 + c_sj^2 p^2 + (p^2/2m)^2)."""
    eps = p * p / (2.0 * params.atom_mass)
    e_sq = rest_energy_sq(params, j) + sound_speed_sq(params, j) * p * p + eps * eps
    if e_sq < 0:
        raise StabilityError(
            f"tachyonic mode: E^2 = {e_sq:.6g} < 0 at j={j}, p={p:.6g}"
        )
    return math.sqrt(e_sq)


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


def p5(params: ModelParams, j: int) -> float:
    """Discrete synthetic-dimension momentum 2*pi*n/(N*a), signed via the KK label."""
    mode = ModeIndex.from_j(j, params.species_count)
    a = 1.0 / math.sqrt(2.0 * params.atom_mass * abs(params.rabi))
    return 2.0 * math.pi * mode.kk_label / (params.species_count * a)


def continuum_mass_sq(params: ModelParams, j: int) -> float:
    """Continuum-limit squared gap c_s^2 * p5^2 (mono-metric sound speed)."""
    cs_sq = (params.nU - 2.0 * params.rabi) / params.atom_mass
    momentum = p5(params, j)
    return cs_sq * momentum * momentum


def validity_constraint(params: ModelParams, j: int) -> float:
    """Dimensionless p5/(sqrt(2) m c_s) = 2*pi*|n|*xi/(N*a); must be << 1."""
    mode = ModeIndex.from_j(j, params.species_count)
    om = abs(params.rabi)
    return (
        2.0
        * math.pi
        * abs(mode.kk_label)
        / params.species_count
        * math.sqrt(om / (params.nU + 2.0 * om))
    )


def kk_tower(params: ModelParams) -> list[TowerEntry]:
    """All N tower entries sorted by |n| (massless first, +n before -n)."""
    if params.species_count % 2 == 0:
        raise ValueError("the mass tower pairing j <-> N-j requires odd N")
    entries = []
    for j in range(params.species_count):
        mode = ModeIndex.from_j(j, params.species_count)
        entries.append(
            TowerEntry(
                mode=mode,
                rest_energy_sq=rest_energy_sq(params, j),
                continuum_mass_sq=continuum_mass_sq(params, j),
                p5=p5(params, j),
                sound_speed_sq=sound_speed_sq(params, j),
                degeneracy=1 if mode.kk_label == 0 else 2,
                constraint_value=validity_constraint(params, j),
            )
        )
    entries.sort(key=lambda e: (abs(e.mode.kk_label), e.mode.kk_label < 0))
    return entries


def nonrel_dispersion(params: ModelParams, j: int, p: float) -> float:
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
