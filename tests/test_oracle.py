import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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

    def test_stack_members_are_the_scalar_blocks(self, standard_params):
        momenta = np.array([0.0, 0.01, 0.7, 3.0, 10.0])
        stack = build_bdg(standard_params, momenta)
        assert stack.block_a.shape == stack.block_b.shape == (5, 9, 9)
        assert np.array_equal(stack.momentum, momenta)
        assert stack.block_a.flags.writeable and stack.block_b.flags.writeable
        assert not np.shares_memory(stack.block_b[0], stack.block_b[1])
        for k, p in enumerate(momenta.tolist()):
            member = build_bdg(standard_params, p)
            assert np.array_equal(stack.block_a[k], member.block_a)
            assert np.array_equal(stack.block_b[k], member.block_b)

    def test_scalar_momentum_stays_a_float(self, standard_params):
        for p in (0, 0.7, np.float64(0.7)):
            system = build_bdg(standard_params, p)
            assert type(system.momentum) is float
            assert system.block_a.shape == (9, 9)


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

    @staticmethod
    def _assert_general_eigenvalues_within_bound(system, e_sq):
        # the reference is the general eigensolver on the plain product, which
        # assumes no symmetry; the sorted E^2 agree to 100 eps ||A+B||_2 ||A-B||_2
        a, b = system.block_a, system.block_b
        eps = np.finfo(float).eps
        bound = 100 * eps * np.linalg.norm(a + b, 2) * np.linalg.norm(a - b, 2)
        general = np.linalg.eigvals((a + b) @ (a - b))
        assert np.max(np.abs(general.imag)) <= bound
        assert np.max(np.abs(np.sort(e_sq) - np.sort(general.real))) <= bound, system.momentum

    def test_indefinite_a_plus_b_matches_the_general_eigenvalues(self):
        params = ModelParams(9, 1.0, 1.0, 1.0, -1.0, -0.1)
        system = build_bdg(params, 0.3)
        assert np.linalg.eigvalsh(system.block_a + system.block_b).min() < -1.9
        e_sq, stable = oracle_energies(system)
        assert stable is False
        self._assert_general_eigenvalues_within_bound(system, e_sq)
        worst, stable = compare_with_closed_forms(params, [0.3])
        assert worst <= 1e-12
        assert stable is False

    def test_mixed_stack_matches_the_general_eigenvalues_within_the_bound(self):
        # the first 15 momenta have A + B indefinite, the last 5 positive definite;
        # the one stacked eigensolve takes them all
        params = ModelParams(9, 1.0, 1.0, 1.0, -1.0, -0.1)
        momenta = np.logspace(-2, 1, 20)
        stack = build_bdg(params, momenta)
        definite = np.linalg.eigvalsh(stack.block_a + stack.block_b).min(axis=1) > 0
        assert definite.tolist() == [False] * 15 + [True] * 5
        e_sq, stable = oracle_energies(stack)
        assert e_sq.shape == (20, 9)
        assert stable is False
        for k, p in enumerate(momenta.tolist()):
            member = build_bdg(params, p)
            self._assert_general_eigenvalues_within_bound(member, e_sq[k])
            alone, _ = oracle_energies(member)
            self._assert_general_eigenvalues_within_bound(member, alone)

    @pytest.mark.parametrize("p", [np.inf, np.nan, 1e150])
    def test_non_finite_member_of_an_indefinite_stack_is_an_oracle_error(self, p):
        # the indefinite member p = 0.3 and the non-finite one share the one eigensolve
        params = ModelParams(9, 1.0, 1.0, 1.0, -1.0, -0.1)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(OracleError, match="symmetrized eigenproblem failed"):
                oracle_energies(build_bdg(params, np.array([0.3, p])))

    @pytest.mark.parametrize("momentum", [0.7, np.array([0.0, 0.7, 3.0])])
    def test_blocks_that_do_not_commute_are_refused(self, momentum):
        # one symmetric off-diagonal pair of B, 1e-6 off relative, breaks the
        # commutation that makes (A+B)(A-B) symmetric; the unperturbed system
        # passes. A needs a coupling term, or it is a multiple of the identity
        # and commutes with any B (the mono-metric sets have none).
        system = build_bdg(ModelParams(9, 1.0, 1.0, 1.0, 0.2, -0.1), momentum)
        assert np.all(system.block_a[..., 2, 3] == 0.1)
        oracle_energies(system)
        block_b = system.block_b.copy()
        block_b[..., 2, 3] *= 1.0 + 1e-6
        block_b[..., 3, 2] *= 1.0 + 1e-6
        broken = oracle.BdGSystem(system.momentum, system.block_a, block_b)
        with pytest.raises(OracleError, match="do not commute"):
            oracle_energies(broken)

    def test_stack_is_stable_only_if_every_member_is(self):
        tachyonic = ModelParams(9, 1.0, 1.0, 1.0, -0.1, 0.1)
        momenta = np.array([0.0, 1.0, 10.0])
        flags = [oracle_energies(build_bdg(tachyonic, p))[1] for p in momenta.tolist()]
        assert flags == [False, True, True]
        assert oracle_energies(build_bdg(tachyonic, momenta))[1] is False
        assert oracle_energies(build_bdg(tachyonic, momenta[1:]))[1] is True

    def test_tachyonic_set_stays_on_the_symmetric_route(self, monkeypatch):
        # A + B is positive definite and A - B indefinite: the one symmetric
        # eigensolve carries the negative E^2 without the general solver
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


def _param_sets(max_species):
    return st.one_of(
        st.integers(0, 2**32 - 1).map(
            lambda seed: sample_parameter_sets(np.random.Generator(np.random.Philox(seed)), 1)[0]),
        st.builds(normalized_params, st.floats(1e-4, 0.5), st.integers(2, max_species)),
    )


@settings(max_examples=60, deadline=None)
@given(params=_param_sets(oracle._STACK_MAX_N),
       momenta=st.lists(st.floats(0.0, 10.0), min_size=1, max_size=oracle._STACK))
def test_stack_matches_the_per_momentum_route(params, momenta):
    # batched LAPACK need not be bitwise: the sorted spectra of each member must
    # agree to the eigensolver bound 100 eps ||A+B||_2 ||A-B||_2
    stacked, stable = oracle_energies(build_bdg(params, np.array(momenta)))
    assert stacked.shape == (len(momenta), params.species_count)
    eps = np.finfo(float).eps
    flags = []
    for k, p in enumerate(momenta):
        member = build_bdg(params, p)
        a, b = member.block_a, member.block_b
        bound = 100 * eps * np.linalg.norm(a + b, 2) * np.linalg.norm(a - b, 2)
        alone, flag = oracle_energies(member)
        flags.append(flag)
        assert np.max(np.abs(np.sort(stacked[k]) - np.sort(alone))) <= bound, p
    assert stable is all(flags)


@settings(max_examples=60, deadline=None)
@given(params=_param_sets(101), momenta=st.lists(st.floats(0.0, 1e3), min_size=1, max_size=8))
def test_built_systems_pass_the_commutation_check(params, momenta):
    # roundoff alone never trips the check, for one momentum or a stack
    for p in (momenta[0], np.array(momenta)):
        e_sq, _ = oracle_energies(build_bdg(params, p))
        assert e_sq.shape == np.shape(p) + (params.species_count,)
        assert np.all(np.isfinite(e_sq))


@pytest.fixture
def wide_params(standard_params):
    """standard_params at N = 51, above the stacking crossover, as the benchmark runs."""
    assert 51 > oracle._STACK_MAX_N
    return dataclasses.replace(standard_params, species_count=51)


class TestCompareWithClosedForms:
    def test_one_module_level_solve_per_momentum_in_grid_order(self, wide_params,
                                                               monkeypatch):
        # the benchmark's BdG check wraps oracle.oracle_energies the same way
        momenta = np.logspace(-2, 1, 7)
        solve = oracle.oracle_energies
        seen = []

        def recorded(system):
            e_sq, stable = solve(system)
            assert type(system.momentum) is float and e_sq.shape == (51,)
            seen.append(system.momentum)
            if len(seen) == 4:  # a 1e-3 error at one momentum must be the one reported
                e_sq = e_sq * (1.0 + 1e-3)
            return e_sq[::-1], stable and len(seen) != 6

        monkeypatch.setattr(oracle, "oracle_energies", recorded)
        worst, stable = compare_with_closed_forms(wide_params, momenta)
        assert seen == momenta.tolist()
        assert abs(worst - 1e-3) <= 1e-9
        assert stable is False

    def test_one_module_level_solve_per_chunk_in_grid_order(self, standard_params,
                                                            monkeypatch):
        monkeypatch.setattr(oracle, "_STACK", 3)
        momenta = np.logspace(-2, 1, 7)
        solve = oracle.oracle_energies
        seen = []

        def recorded(system):
            e_sq, stable = solve(system)
            assert e_sq.shape == (system.momentum.size, 9)
            seen.append(system.momentum.tolist())
            if len(seen) == 2:  # a 1e-3 error at one momentum must be the one reported
                e_sq[1] *= 1.0 + 1e-3
            return e_sq[:, ::-1], stable and len(seen) != 3

        monkeypatch.setattr(oracle, "oracle_energies", recorded)
        worst, stable = compare_with_closed_forms(standard_params, momenta)
        grid = momenta.tolist()
        assert seen == [grid[:3], grid[3:6], grid[6:]]
        assert abs(worst - 1e-3) <= 1e-9
        assert stable is False

    def test_nan_spectrum_makes_the_error_nan(self, standard_params, monkeypatch):
        solve = oracle.oracle_energies

        def poisoned(system):
            e_sq, stable = solve(system)
            flat = np.arange(e_sq.size).reshape(e_sq.shape)
            return np.where(flat == 2, np.nan, e_sq), stable

        monkeypatch.setattr(oracle, "oracle_energies", poisoned)
        worst, _ = compare_with_closed_forms(standard_params, [0.1, 1.0])
        assert np.isnan(worst)

    def test_empty_grid_is_refused(self, standard_params):
        with pytest.raises(ValueError, match="at least one momentum"):
            compare_with_closed_forms(standard_params, [])

    @pytest.mark.parametrize("momenta, shape", [(0.3, r"\(\)"), ([[0.1, 0.2]], r"\(1, 2\)"),
                                                (np.zeros((0, 3)), r"\(0, 3\)")])
    def test_grid_that_is_not_1d_is_refused(self, standard_params, momenta, shape):
        with pytest.raises(ValueError, match=r"1-D momentum grid, got shape " + shape):
            compare_with_closed_forms(standard_params, momenta)

    @staticmethod
    def _count_solves(monkeypatch):
        calls = {}
        for name in ("cholesky", "eigvalsh", "eigh", "eigvals", "eig"):
            def counted(matrix, *args, _solve=getattr(np.linalg, name), _name=name, **kwargs):
                calls.setdefault(_name, []).append(matrix.shape)
                return _solve(matrix, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
        return calls

    def test_one_eigvalsh_and_no_factorization_per_momentum(self, wide_params, monkeypatch):
        # a work gate that does not depend on the machine: no factorization, no
        # general or eigenvector solve
        momenta = np.logspace(-2, 1, 7)
        calls = self._count_solves(monkeypatch)
        worst, stable = compare_with_closed_forms(wide_params, momenta)
        assert stable and worst <= 1e-9
        assert calls == {"eigvalsh": [(51, 51)] * momenta.size}

    def test_one_eigvalsh_and_no_factorization_per_chunk(self, standard_params, monkeypatch):
        # the chunks bound the stack, and so the temporaries, to _STACK members
        momenta = np.logspace(-2, 1, 2 * oracle._STACK + 1)
        calls = self._count_solves(monkeypatch)
        worst, stable = compare_with_closed_forms(standard_params, momenta)
        assert stable and worst <= 1e-9
        assert calls == {"eigvalsh": [(oracle._STACK, 9, 9)] * 2 + [(1, 9, 9)]}

    @pytest.mark.parametrize("p", [1e200, np.inf, -np.inf, np.nan, 1e150])
    def test_non_finite_kinetic_term_is_an_oracle_error(self, p):
        # overflow is the point here, so its floating-point warnings are silenced
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(OracleError, match="symmetrized eigenproblem failed"):
                compare_with_closed_forms(normalized_params(0.1, 9), [p])

    @pytest.mark.parametrize("momenta", [[0.1, np.inf, 1.0], [0.1, np.nan, 1.0], [0.1, 1e150]])
    def test_non_finite_member_of_a_stack_is_an_oracle_error(self, momenta):
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(OracleError, match="symmetrized eigenproblem failed"):
                compare_with_closed_forms(normalized_params(0.1, 9), momenta)

    @pytest.mark.xfail(strict=True, reason=(
        "ROADMAP item 7: at p = 0 the gapless mode's closed-form E^2 is exactly 0, so the "
        "relative metric divides the oracle's roundoff by its 1e-12 floor (reads ~1.7e-4); "
        "the norm-scaled gate of that item turns this into a pass"))
    def test_gapless_mode_at_zero_momentum_matches(self):
        assert compare_with_closed_forms(normalized_params(0.1, 9), [0.0])[0] <= 1e-9


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

    def test_unstable_mode(self):
        tachyonic = ModelParams(9, 1.0, 1.0, 1.0, -0.1, 0.1)
        with pytest.raises(OracleError, match="mode 1 is dynamically unstable"):
            oracle_amplitudes(build_bdg(tachyonic, 0.0), 1)

    @pytest.mark.parametrize("momenta", [[0.1, 0.2, 0.3], [0.4]])
    def test_stack_is_refused_with_its_shape(self, momenta):
        system = build_bdg(normalized_params(0.1, 3), np.array(momenta))
        with pytest.raises(ValueError, match=rf"one momentum, got shape \({len(momenta)}, 3, 3\)"):
            oracle_amplitudes(system, 1)


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
