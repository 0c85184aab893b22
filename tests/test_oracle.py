import numpy as np
import pytest

from kkbec import oracle
from kkbec.errors import DegenerateModeError, OracleError
from kkbec.model import ModelParams, normalized_params
from kkbec.oracle import (
    build_bdg,
    compare_with_closed_forms,
    oracle_amplitudes,
    oracle_energies,
    sample_parameter_sets,
)
from kkbec.spectrum import bogoliubov_amplitudes, dispersion

from conftest import closed_form_e_sq


class TestCouplingMatrix:
    def test_matches_cyclic_shift_construction(self):
        for n_sp in (3, 5, 9):
            c = oracle._ring_tables(n_sp)[1]
            shift = np.roll(np.eye(n_sp), 1, axis=1)
            assert np.array_equal(c, shift + shift.T)

    def test_two_neighbours_each(self):
        c = oracle._ring_tables(7)[1]
        assert np.array_equal(c.sum(axis=0), np.full(7, 2.0))
        assert np.array_equal(c, c.T)
        assert np.all(np.diag(c) == 0.0)

    def test_built_once_per_n_and_read_only(self):
        c = oracle._ring_tables(7)[1]
        assert c is oracle._ring_tables(7)[1]
        assert not c.flags.writeable
        with pytest.raises(ValueError):
            c[0, 1] = 5.0
        assert c[0, 1] == 1.0


class TestBuildBdG:
    def test_n3_mono_blocks(self, n3_params):
        system = build_bdg(n3_params, 0.0)
        c = oracle._ring_tables(3)[1]
        assert np.allclose(system.block_a, 1.2 * np.eye(3), atol=1e-15)
        assert np.allclose(system.block_b, np.eye(3) + 0.1 * c, atol=1e-15)

    def test_kinetic_term_on_diagonal_only(self, n3_params):
        at_rest = build_bdg(n3_params, 0.0)
        moving = build_bdg(n3_params, 1.0)
        diff = moving.block_a - at_rest.block_a
        assert np.allclose(diff, 0.5 * np.eye(3), atol=1e-15)
        assert np.array_equal(moving.block_b, at_rest.block_b)

    def test_blocks_commute(self, standard_params):
        system = build_bdg(standard_params, 0.7)
        comm = system.block_a @ system.block_b - system.block_b @ system.block_a
        assert np.max(np.abs(comm)) <= 1e-12

    def test_blocks_are_fresh_and_writeable(self, standard_params):
        system = build_bdg(standard_params, 0.7)
        tables = oracle._ring_tables(9)  # the cached identity and coupling matrix
        for block in (system.block_a, system.block_b):
            assert block.flags.writeable
            assert not any(np.shares_memory(block, table) for table in tables)
        expected_a, expected_b = system.block_a.copy(), system.block_b.copy()
        system.block_a[:] = 1e6
        system.block_b[:] = 1e6
        rebuilt = build_bdg(standard_params, 0.7)
        assert np.array_equal(rebuilt.block_a, expected_a)
        assert np.array_equal(rebuilt.block_b, expected_b)


class TestOracleEnergies:
    def test_n3_hand_values(self, n3_params):
        e_sq, stable = oracle_energies(build_bdg(n3_params, 0.0))
        assert stable
        assert np.allclose(np.sort(e_sq), [0.0, 0.63, 0.63], atol=1e-12)

    def test_gapless_zero(self, standard_params):
        e_sq, _ = oracle_energies(build_bdg(standard_params, 0.0))
        assert np.min(np.abs(e_sq)) <= 1e-10

    def test_matches_closed_forms_on_random_sets(self):
        rng = np.random.Generator(np.random.Philox(987654321))
        momenta = np.logspace(-2, 1, 8)
        for params in sample_parameter_sets(rng, 30):
            worst, stable = compare_with_closed_forms(params, momenta)
            assert stable
            assert worst <= 1e-9

    def test_matches_literal_transcription(self, standard_params):
        for p in (0.0, 0.3, 2.0):
            e_sq, _ = oracle_energies(build_bdg(standard_params, p))
            expected = closed_form_e_sq(standard_params, p)
            assert np.allclose(np.sort(e_sq), np.sort(expected), rtol=1e-10, atol=1e-12)

    def test_matches_square_root_route_to_roundoff(self):
        # the route the Cholesky congruence replaced: sqrt(A - B) (A + B) sqrt(A - B)
        # with the square root as V @ diag(sqrt(clip(lambda))) @ V.T; the sorted E^2
        # agree to 100 eps ||A+B||_2 ||A-B||_2, and the wrong congruence L (A-B) L^T
        # must miss that bound, so it is not vacuous
        def transcription(system):
            a, b = system.block_a, system.block_b
            lam, vecs = np.linalg.eigh(a - b)
            assert lam.min() >= -1e-10  # every set here has A - B positive semidefinite
            root = vecs @ np.diag(np.sqrt(np.clip(lam, 0, None))) @ vecs.T
            sym = root @ (a + b) @ root
            return np.linalg.eigvalsh(0.5 * (sym + sym.T))

        cases = sample_parameter_sets(np.random.Generator(np.random.Philox(2024)), 30)
        cases += [normalized_params(0.1, n_sp) for n_sp in (51, 101)]
        momenta = np.concatenate([[0.0], np.logspace(-2, 1, 20)])
        eps = np.finfo(float).eps
        worst_wrong = 0.0
        for params in cases:
            for p in momenta:
                system = build_bdg(params, float(p))
                a, b = system.block_a, system.block_b
                bound = 100 * eps * np.linalg.norm(a + b, 2) * np.linalg.norm(a - b, 2)
                reference = transcription(system)
                e_sq, stable = oracle_energies(system)
                assert stable
                assert np.max(np.abs(np.sort(e_sq) - reference)) <= bound, (params, p)
                chol = np.linalg.cholesky(a + b)
                wrong = np.linalg.eigvalsh(chol @ (a - b) @ chol.T)
                worst_wrong = max(worst_wrong, np.max(np.abs(wrong - reference)) / bound)
        assert worst_wrong > 1.0

    def test_indefinite_a_plus_b_takes_the_general_solver(self, monkeypatch):
        params = ModelParams(9, 1.0, 1.0, 1.0, -1.0, -0.1)
        system = build_bdg(params, 0.3)
        assert np.linalg.eigvalsh(system.block_a + system.block_b).min() < -1.9
        calls = []
        general = np.linalg.eigvals

        def counted(matrix):
            calls.append(matrix.shape)
            return general(matrix)

        monkeypatch.setattr(np.linalg, "eigvals", counted)
        worst, stable = compare_with_closed_forms(params, [0.3])
        assert calls == [(9, 9)]
        assert worst <= 1e-12
        assert stable is False

    def test_tachyonic_set_stays_on_the_symmetric_route(self, monkeypatch):
        # A + B is positive definite and A - B indefinite: the congruence carries
        # the negative E^2 without the general solver
        def refused(matrix):
            raise AssertionError("the general eigensolver was called")

        monkeypatch.setattr(np.linalg, "eigvals", refused)
        tachyonic = ModelParams(9, 1.0, 1.0, 1.0, -0.1, 0.1)
        for p in (0.0, 0.1, 0.5):
            system = build_bdg(tachyonic, p)
            assert np.linalg.eigvalsh(system.block_a - system.block_b).min() < 0.0
            e_sq, stable = oracle_energies(system)
            assert not stable
            assert np.allclose(np.sort(e_sq), np.sort(closed_form_e_sq(tachyonic, p)),
                               rtol=1e-10, atol=1e-12)

    def test_stability_flag_flips_with_rabi_sign(self):
        stable_params = ModelParams(9, 1.0, 1.0, 1.0, 0.1, -0.1)
        tachyonic = ModelParams(9, 1.0, 1.0, 1.0, -0.1, 0.1)
        _, flag = oracle_energies(build_bdg(stable_params, 0.0))
        assert flag
        e_sq, flag = oracle_energies(build_bdg(tachyonic, 0.0))
        assert not flag
        assert np.min(e_sq) < -1e-6


class TestCompareWithClosedForms:
    def test_one_module_level_solve_per_momentum_in_grid_order(self, standard_params,
                                                               monkeypatch):
        # the benchmark's BdG check wraps oracle.oracle_energies the same way
        momenta = np.logspace(-2, 1, 7)
        solve = oracle.oracle_energies
        seen = []

        def recorded(system):
            e_sq, stable = solve(system)
            seen.append(system.momentum)
            if len(seen) == 4:  # a 1e-3 error at one momentum must be the one reported
                e_sq = e_sq * (1.0 + 1e-3)
            return e_sq[::-1], stable and len(seen) != 6

        monkeypatch.setattr(oracle, "oracle_energies", recorded)
        worst, stable = compare_with_closed_forms(standard_params, momenta)
        assert seen == momenta.tolist()
        assert abs(worst - 1e-3) <= 1e-9
        assert stable is False

    def test_nan_spectrum_makes_the_error_nan(self, standard_params, monkeypatch):
        solve = oracle.oracle_energies

        def poisoned(system):
            e_sq, stable = solve(system)
            return np.where(np.arange(e_sq.size) == 2, np.nan, e_sq), stable

        monkeypatch.setattr(oracle, "oracle_energies", poisoned)
        worst, _ = compare_with_closed_forms(standard_params, [0.1, 1.0])
        assert np.isnan(worst)

    def test_empty_grid_is_refused(self, standard_params):
        with pytest.raises(ValueError, match="at least one momentum"):
            compare_with_closed_forms(standard_params, [])

    def test_one_cholesky_and_one_eigvalsh_per_momentum(self, standard_params, monkeypatch):
        # a work gate that does not depend on the machine: no eigenvector solve
        momenta = np.logspace(-2, 1, 7)
        counts = {}
        for name in ("cholesky", "eigvalsh", "eigh", "eigvals"):
            def counted(*args, _solve=getattr(np.linalg, name), _name=name, **kwargs):
                counts[_name] = counts.get(_name, 0) + 1
                return _solve(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
        worst, stable = compare_with_closed_forms(standard_params, momenta)
        assert stable and worst <= 1e-9
        assert counts == {"cholesky": momenta.size, "eigvalsh": momenta.size}

    @pytest.mark.parametrize("p", [1e200, np.inf, -np.inf, np.nan, 1e150])
    def test_non_finite_kinetic_term_is_an_oracle_error(self, p):
        # overflow is the point here, so its floating-point warnings are silenced
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(OracleError, match="symmetrized eigenproblem failed"):
                compare_with_closed_forms(normalized_params(0.1, 9), [p])


class TestOracleAmplitudes:
    def test_matches_closed_form(self, standard_params):
        for j in range(9):
            for p in np.logspace(-1.5, 0.5, 4):
                system = build_bdg(standard_params, float(p))
                u_num, v_num, e_num = oracle_amplitudes(system, j)
                closed = bogoliubov_amplitudes(standard_params, j, float(p))
                assert abs(u_num - closed.u) <= 1e-9
                assert abs(v_num - closed.v) <= 1e-9
                assert e_num == pytest.approx(
                    dispersion(standard_params, j, float(p)), rel=1e-10
                )

    def test_sign_convention(self, standard_params):
        system = build_bdg(standard_params, 0.4)
        for j in range(9):
            u, v, _ = oracle_amplitudes(system, j)
            assert u * v <= 0.0

    def test_free_limit(self, standard_params):
        system = build_bdg(standard_params, 50.0)
        _, v, _ = oracle_amplitudes(system, 2)
        assert abs(v) < 1e-3

    def test_degenerate_mode(self, standard_params):
        with pytest.raises(DegenerateModeError):
            oracle_amplitudes(build_bdg(standard_params, 0.0), 0)


def test_sampler_is_deterministic_and_stable():
    first = sample_parameter_sets(np.random.Generator(np.random.Philox(11)), 10)
    second = sample_parameter_sets(np.random.Generator(np.random.Philox(11)), 10)
    assert first == second
    for params in first:
        alphas = params.alphas
        a_plus_b = (
            2.0 * params.nU
            - 2.0 * params.rabi
            + 2.0 * (2.0 * params.nUprime + params.rabi) * np.cos(alphas)
        )
        assert a_plus_b.min() > 0.05
