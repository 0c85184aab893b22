"""Brute-force Bogoliubov-de Gennes verifier.

Builds the quadratic fluctuation form of the full Hamiltonian around the
uniform mean field (chemical potential mu = nU + 2nU' + 2*Omega, the value
that keeps the j = 0 mode gapless) and extracts the squared eigenenergies,
the spectrum of (A+B)(A-B): the blocks commute, so the product is symmetric,
and one matrix product, a check of that symmetry and one dense symmetric
eigensolve give E^2. The closed forms in :mod:`kkbec.spectrum` are touched
only by :func:`compare_with_closed_forms`, to hold them against these
spectra; that agreement is what the test suite and the `oracle-check` CLI
command certify.

The identity and ring-coupling tables depend only on N, so they are built
once per N and kept, read-only, in a small bounded cache. Every momentum is
still assembled into fresh blocks and solved densely on its own, in the
position basis: nothing of one momentum's solve is reused for another. For
small N the momenta of one grid are built as a (P, N, N) stack and go
through one stacked product and one stacked eigensolve, which only saves
numpy's per-call overhead; above :data:`_STACK_MAX_N` each momentum is one
call.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateModeError, OracleError
from .model import ModelParams

# Eigenvalues of the E^2 product below this (absolute, normalized units) mark
# a dynamical instability.
STABILITY_TOL = 1e-10

# Largest asymmetry of (A+B)(A-B), in eps ||A+B||_inf ||A-B||_inf, that
# roundoff explains: each entry sums at most 3 nonzero products, so about 3
# bounds it. 4,940 built systems (200 sampled sets, N = 2..301, U' = -1 and
# tachyonic sets, p = 0 and 1e-5..1e3) reached 0.25, and 0.49 at N = 2.
_COMMUTE_TOL = 4.0

# compare_with_closed_forms solves up to _STACK momenta per call as one stack
# when N <= _STACK_MAX_N, and one momentum per call above; the chunks keep the
# temporaries O(_STACK N^2) on any grid. Crossover, 20 momenta, median of 9 rounds
# (numpy 2.4.6, OpenBLAS, 2 vCPUs): the stack takes 0.74x the loop's time at N = 31,
# 0.94x at 41 and 1.02x at 47; from N = 51 the loop is faster, by 6% at 51, 18% at
# 61 and 26% at 101.
_STACK = 64
_STACK_MAX_N = 47


@dataclass(frozen=True)
class BdGSystem:
    """2N-dimensional quadratic form at fixed momentum, in (A, B) block form.

    For a scalar momentum the blocks are (N, N) and ``momentum`` a float; for
    a 1-D array of P momenta they are (P, N, N) stacks and ``momentum`` that
    array.
    """

    momentum: float | np.ndarray
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


def build_bdg(params: ModelParams, p: float | np.ndarray) -> BdGSystem:
    """Assemble the A and B blocks of the linearized Hamiltonian at momentum p.

    A 1-D array p gives one fresh pair of blocks per momentum, stacked along
    a leading axis; every member is built in full.
    """
    ident, coupling = _ring_tables(params.species_count)
    momentum = np.asarray(p, dtype=float)
    eps = (momentum * momentum / (2.0 * params.atom_mass))[..., np.newaxis, np.newaxis]
    block_a = (eps + params.nU - 2.0 * params.rabi) * ident + (
        params.nUprime + params.rabi
    ) * coupling
    block_b = np.broadcast_to(params.nU * ident + params.nUprime * coupling,
                              block_a.shape).copy()
    return BdGSystem(momentum=float(momentum) if momentum.ndim == 0 else momentum,
                     block_a=block_a, block_b=block_b)


def oracle_energies(system: BdGSystem) -> tuple[np.ndarray, bool]:
    """Squared eigenenergies of (A+B)(A-B), unsorted, plus a stability flag.

    A and B are polynomials in the one ring-coupling matrix, so A + B and
    A - B commute and P = (A+B)(A-B) is symmetric. That is checked, not
    assumed: blocks that do not commute raise ``OracleError``. One symmetric
    eigensolve of (P + P^T)/2 gives E^2, definite A + B or not; a negative
    one marks an instability. A stacked system gives one row of E^2 per
    member, each checked, and the flag is true only if every member is stable.
    """
    plus, minus = system.block_a + system.block_b, system.block_a - system.block_b
    prod = plus @ minus
    asym = np.abs(prod - np.swapaxes(prod, -1, -2)).max(axis=(-2, -1))
    scale = np.abs(plus).sum(axis=-1).max(axis=-1) * np.abs(minus).sum(axis=-1).max(axis=-1)
    if np.any(asym > _COMMUTE_TOL * np.finfo(float).eps * scale):
        raise OracleError("A + B and A - B do not commute: (A+B)(A-B) is not symmetric")
    try:
        e_sq = np.linalg.eigvalsh(0.5 * (prod + np.swapaxes(prod, -1, -2)))
    except np.linalg.LinAlgError as exc:  # p = 1e150, 1e200, +-inf, NaN: inf or NaN
        # in P, whose NaN asymmetry compares False above
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
    u^2 - v^2 = 1/N mode-decomposition convention with u > 0 >= v. It takes
    the system of one momentum; a stack of blocks raises ``ValueError``.
    """
    if system.block_a.ndim != 2:
        raise ValueError("oracle_amplitudes needs the (N, N) blocks of one momentum, "
                         f"got shape {system.block_a.shape}")
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

    The grid is solved by calls of the module-level :func:`oracle_energies`,
    in grid order: for N <= ``_STACK_MAX_N`` one call per chunk of at most
    ``_STACK`` momenta, stacked, and above it one call per float momentum. A
    NaN anywhere in the spectra makes the mismatch NaN; an empty grid, or one
    that is not 1-D, raises ``ValueError``.
    """
    from . import spectrum  # local import keeps the two routes visibly separate

    momenta = np.asarray(momenta, dtype=float)
    if momenta.ndim != 1:
        raise ValueError("compare_with_closed_forms needs a 1-D momentum grid, "
                         f"got shape {momenta.shape}")
    if momenta.size == 0:
        raise ValueError("compare_with_closed_forms needs at least one momentum")
    n_sp = params.species_count
    closed = np.sort(spectrum.energy_sq(params, np.arange(n_sp),
                                        momenta[:, np.newaxis]), axis=1)
    if n_sp <= _STACK_MAX_N:
        chunks = [momenta[i:i + _STACK] for i in range(0, momenta.size, _STACK)]
    else:
        chunks = momenta.tolist()
    solved = [oracle_energies(build_bdg(params, chunk)) for chunk in chunks]
    # vstack takes a stacked call's (k, N) rows and a single call's (N,) alike
    oracle_sorted = np.sort(np.vstack([e_sq for e_sq, _ in solved]), axis=1)
    rel = np.abs(oracle_sorted - closed) / np.maximum(np.abs(closed), 1e-12)
    return float(rel.max()), all(stable for _, stable in solved)
