"""Brute-force Bogoliubov-de Gennes verifier.

Builds the quadratic fluctuation form of the full Hamiltonian around the
uniform mean field (chemical potential mu = nU + 2nU' + 2*Omega, the value
that keeps the j = 0 mode gapless) and extracts the squared eigenenergies,
the spectrum of (A+B)(A-B), by the symmetric-definite reduction: A + B is
factored as L L^T by Cholesky, and the congruence L^T (A-B) L, which has the
same spectrum, goes to a dense symmetric eigensolver. Only when A + B is not
positive definite, so that the factorization fails, is the product itself
handed to a general eigensolver. The closed forms in :mod:`kkbec.spectrum` are
touched only by :func:`compare_with_closed_forms`, to hold them against these
spectra; that agreement is what the test suite and the `oracle-check` CLI command
certify.

The identity and ring-coupling tables depend only on N, so they are built
once per N and kept, read-only, in a small bounded cache. Every momentum is
still assembled into fresh blocks and factored and solved densely on its own:
nothing of one momentum's factorization is reused for another.
"""

from __future__ import annotations

import functools
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


# a bound, so that a sweep over N does not keep 16 N^2 bytes for every N it saw
@functools.lru_cache(maxsize=8)
def _ring_tables(species_count: int) -> tuple[np.ndarray, np.ndarray]:
    """The read-only N x N identity and ring-coupling matrix, built once per N."""
    ident = np.eye(species_count)
    coupling = np.roll(ident, -1, axis=1) + np.roll(ident, 1, axis=1)
    ident.flags.writeable = False
    coupling.flags.writeable = False
    return ident, coupling


def build_bdg(params: ModelParams, p: float) -> BdGSystem:
    """Assemble the A and B blocks of the linearized Hamiltonian at momentum p."""
    n_sp = params.species_count
    ident, coupling = _ring_tables(n_sp)
    eps = p * p / (2.0 * params.atom_mass)
    block_a = (eps + params.nU - 2.0 * params.rabi) * ident + (
        params.nUprime + params.rabi
    ) * coupling
    block_b = params.nU * ident + params.nUprime * coupling
    return BdGSystem(momentum=p, block_a=block_a, block_b=block_b)


def oracle_energies(system: BdGSystem) -> tuple[np.ndarray, bool]:
    """Squared eigenenergies of (A+B)(A-B), unsorted, plus a stability flag.

    When A + B is positive definite it is factored as L L^T, and the
    congruence L^T (A-B) L, similar to (A+B)(A-B), is diagonalized
    symmetrically; a negative eigenvalue there marks an instability of A - B.
    Only when the Cholesky factorization fails (A + B not positive definite)
    is the plain product handed to a general eigensolver, whose near-real
    eigenvalues are truncated to their real parts.
    """
    a, b = system.block_a, system.block_b
    try:
        chol = np.linalg.cholesky(a + b)
    except np.linalg.LinAlgError:  # A + B not positive definite, e.g. U' = -1, Omega = -0.1
        try:
            raw = np.linalg.eigvals((a + b) @ (a - b))
        except np.linalg.LinAlgError as exc:  # pragma: no cover - no known input: non-finite
            # blocks pass the Cholesky step and fail below
            raise OracleError("general eigenproblem failed") from exc
        if np.any(np.abs(raw.imag) > STABILITY_TOL * np.maximum(1.0, np.abs(raw.real))):
            raise OracleError("E^2 spectrum came out complex beyond tolerance")
        e_sq = raw.real
    else:
        sym = chol.T @ (a - b) @ chol
        try:
            e_sq = np.linalg.eigvalsh(0.5 * (sym + sym.T))
        except np.linalg.LinAlgError as exc:  # p = 1e200, +-inf, NaN: inf or NaN in L;
            # p = 1e150: the congruence overflows
            raise OracleError("symmetrized eigenproblem failed") from exc
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
    """Max relative E^2 mismatch between oracle and closed forms on a p-grid.

    Each momentum is solved by one call of the module-level
    :func:`oracle_energies`, in grid order. A NaN anywhere in the spectra makes
    the mismatch NaN; an empty grid raises ``ValueError``.
    """
    from . import spectrum  # local import keeps the two routes visibly separate

    momenta = np.asarray(momenta, dtype=float)
    if momenta.size == 0:
        raise ValueError("compare_with_closed_forms needs at least one momentum")
    closed = np.sort(spectrum.energy_sq(params, np.arange(params.species_count),
                                        momenta[:, np.newaxis]), axis=1)
    solved = [oracle_energies(build_bdg(params, float(p))) for p in momenta]
    oracle_sorted = np.sort([e_sq for e_sq, _ in solved], axis=1)
    rel = np.abs(oracle_sorted - closed) / np.maximum(np.abs(closed), 1e-12)
    return float(rel.max()), all(stable for _, stable in solved)
