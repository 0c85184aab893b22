"""Brute-force Bogoliubov-de Gennes verifier.

Builds the quadratic fluctuation form of the full Hamiltonian around the
uniform mean field (chemical potential mu = nU + 2nU' + 2*Omega, the value
that keeps the j = 0 mode gapless) and extracts squared eigenenergies with a
dense symmetric eigensolver. Only :func:`compare_with_closed_forms` touches
the closed forms in :mod:`kkbec.spectrum`, to hold them against these spectra;
that agreement is what the test suite and the `oracle-check` CLI command
certify.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateModeError, OracleError
from .model import ModelParams

# Eigenvalues of the E^2 product below this (absolute, normalized units) mark
# a dynamical instability; imaginary parts below it are truncated as noise.
STABILITY_TOL = 1e-10


@dataclass(frozen=True)
class BdGSystem:
    """2N-dimensional quadratic form at fixed momentum, in (A, B) block form."""

    momentum: float
    block_a: np.ndarray
    block_b: np.ndarray
    coupling_matrix: np.ndarray


def ring_coupling_matrix(species_count: int) -> np.ndarray:
    """C_ij = delta_{i,j+1} + delta_{i+1,j} with indices mod N."""
    ident = np.eye(species_count)
    return np.roll(ident, -1, axis=1) + np.roll(ident, 1, axis=1)


def build_bdg(params: ModelParams, p: float) -> BdGSystem:
    """Assemble the A and B blocks of the linearized Hamiltonian at momentum p."""
    n_sp = params.species_count
    coupling = ring_coupling_matrix(n_sp)
    eps = p * p / (2.0 * params.atom_mass)
    ident = np.eye(n_sp)
    block_a = (eps + params.nU - 2.0 * params.rabi) * ident + (
        params.nUprime + params.rabi
    ) * coupling
    block_b = params.nU * ident + params.nUprime * coupling
    return BdGSystem(momentum=p, block_a=block_a, block_b=block_b, coupling_matrix=coupling)


def oracle_energies(system: BdGSystem) -> tuple[np.ndarray, bool]:
    """Squared eigenenergies of (A+B)(A-B), unsorted, plus a stability flag.

    When A - B is positive semidefinite the symmetrized form
    sqrt(A-B) (A+B) sqrt(A-B) is diagonalized (same spectrum, symmetric);
    otherwise the plain product is handed to a general eigensolver and
    near-real eigenvalues are truncated to their real parts.
    """
    a, b = system.block_a, system.block_b
    diff = a - b
    try:
        diff_eigs, diff_vecs = np.linalg.eigh(diff)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - eigh on sym input
        raise OracleError("eigendecomposition of A - B failed") from exc
    if diff_eigs.min() >= -STABILITY_TOL:
        root = diff_vecs @ np.diag(np.sqrt(np.clip(diff_eigs, 0.0, None))) @ diff_vecs.T
        sym = root @ (a + b) @ root
        sym = 0.5 * (sym + sym.T)
        try:
            e_sq = np.linalg.eigvalsh(sym)
        except np.linalg.LinAlgError as exc:  # pragma: no cover
            raise OracleError("symmetrized eigenproblem failed") from exc
    else:
        try:
            raw = np.linalg.eigvals((a + b) @ diff)
        except np.linalg.LinAlgError as exc:  # pragma: no cover
            raise OracleError("general eigenproblem failed") from exc
        if np.any(np.abs(raw.imag) > STABILITY_TOL * np.maximum(1.0, np.abs(raw.real))):
            raise OracleError("E^2 spectrum came out complex beyond tolerance")
        e_sq = raw.real
    stable = bool(e_sq.min() >= -STABILITY_TOL)
    return e_sq, stable


def _fourier_blocks(system: BdGSystem, j: int) -> tuple[float, float]:
    n_sp = system.block_a.shape[0]
    w = np.exp(2j * np.pi * j * np.arange(n_sp) / n_sp) / np.sqrt(n_sp)
    aj = (w.conj() @ system.block_a @ w).real
    bj = (w.conj() @ system.block_b @ w).real
    return float(aj), float(bj)


def oracle_amplitudes(system: BdGSystem, j: int) -> tuple[float, float, float]:
    """(u, v, E) for mode j from the numerically reduced 2x2 eigenproblem.

    The blocks are circulant, so projecting onto the j-th Fourier vector is
    exact; the 2x2 BdG matrix [[A_j, B_j], [-B_j, -A_j]] is then diagonalized
    numerically and the positive-energy eigenvector is rescaled to the
    u^2 - v^2 = 1/N mode-decomposition convention with u > 0 >= v.
    """
    aj, bj = _fourier_blocks(system, j)
    two = np.array([[aj, bj], [-bj, -aj]])
    eigs, vecs = np.linalg.eig(two)
    if np.any(np.abs(eigs.imag) > STABILITY_TOL * np.maximum(1.0, np.abs(eigs.real))):
        raise OracleError(f"mode {j} is dynamically unstable; no real amplitudes")
    k = int(np.argmax(eigs.real))
    energy = float(eigs.real[k])
    if energy <= STABILITY_TOL * max(1.0, abs(aj)):
        raise DegenerateModeError(f"zero-energy mode at j={j}, p={system.momentum}")
    u_raw, v_raw = vecs[:, k].real
    norm = u_raw * u_raw - v_raw * v_raw
    if norm == 0.0:
        raise OracleError(f"degenerate eigenvector normalization at j={j}")
    scale = np.sqrt(abs(norm) * system.block_a.shape[0])
    u, v = u_raw / scale, v_raw / scale
    if u < 0:
        u, v = -u, -v
    return float(u), float(v), energy


def sample_parameter_sets(rng: np.random.Generator, count: int) -> list[ModelParams]:
    """Draw stable randomized parameter sets for the oracle-equivalence suite.

    Draw order (documented for reproducibility): N from {3,5,7,9,11}, then
    m, n, U ~ U[0.5, 2], U' ~ U[-0.5, 0.5], Omega ~ U[-0.5, -0.01]. A draw is
    rejected and retried unless every Fourier eigenvalue of A + B at p = 0
    exceeds 0.05, which keeps all modes comfortably stable.
    """
    sets: list[ModelParams] = []
    while len(sets) < count:
        n_sp = int(rng.choice(np.array([3, 5, 7, 9, 11])))
        mass = float(rng.uniform(0.5, 2.0))
        dens = float(rng.uniform(0.5, 2.0))
        self_int = float(rng.uniform(0.5, 2.0))
        cross = float(rng.uniform(-0.5, 0.5))
        om = float(rng.uniform(-0.5, -0.01))
        params = ModelParams(
            species_count=n_sp,
            atom_mass=mass,
            density=dens,
            self_interaction=self_int,
            cross_interaction=cross,
            rabi=om,
        )
        alphas = params.alphas
        a_plus_b0 = (
            2.0 * params.nU
            - 2.0 * om
            + 2.0 * (2.0 * params.nUprime + om) * np.cos(alphas)
        )
        if a_plus_b0.min() > 0.05:
            sets.append(params)
    return sets


def compare_with_closed_forms(params: ModelParams, momenta) -> tuple[float, bool]:
    """Max relative E^2 mismatch between oracle and closed forms on a p-grid."""
    from . import spectrum  # local import keeps the two routes visibly separate

    momenta = np.asarray(momenta, dtype=float)
    closed = np.sort(spectrum.energy_sq(params, np.arange(params.species_count),
                                        momenta[:, np.newaxis]), axis=1)
    worst = 0.0
    stable_all = True
    for p, closed_p in zip(momenta, closed):
        e_sq, stable = oracle_energies(build_bdg(params, float(p)))
        stable_all = stable_all and stable
        rel = np.abs(np.sort(e_sq) - closed_p) / np.maximum(np.abs(closed_p), 1e-12)
        worst = max(worst, float(rel.max()))
    return worst, stable_all
