import numpy as np
import pytest

from factored_evolution import (
    DenseMatrixOperator,
    DimensionMismatchError,
    FactoredEquation,
    Forcing,
    MixedBackendError,
    NonCommutingFactorsError,
    SpectralDiagonalOperator,
    UnsupportedOperationError,
    build_companion,
    group_factors,
    initial_data_transform,
    oracle_solve,
    solve_full,
)
from factored_evolution.statespace import finite_difference_weights

from conftest import random_spectral_instance


BOTH_SOLVERS = pytest.mark.parametrize(
    "solve", [oracle_solve, solve_full], ids=["oracle_solve", "solve_full"]
)


def scalar_op(label, value):
    return SpectralDiagonalOperator(label, [float(value)])


def diag_op(label, values):
    return SpectralDiagonalOperator(label, np.asarray(values, dtype=float))


class TestGroupFactors:
    def test_runs_grouped_by_first_occurrence(self):
        a, b, c = (diag_op(l, [1.0, 2.0]) for l in "ABC")
        grouped = group_factors([a, a, b, b, c])
        assert [(op.label, m) for op, m in grouped] == [("A", 2), ("B", 2), ("C", 1)]

    def test_single_factor(self):
        a = diag_op("A", [1.0])
        assert [(op.label, m) for op, m in group_factors([a])] == [("A", 1)]

    def test_interleaved_runs_merge(self):
        a = diag_op("A", [1.0, 2.0])
        b = diag_op("B", [3.0, 4.0])
        grouped = group_factors([b, a, b])
        assert [(op.label, m) for op, m in grouped] == [("B", 2), ("A", 1)]

    def test_mixed_backend_rejected(self):
        a = diag_op("A", [1.0, 2.0])
        d = DenseMatrixOperator("D", np.eye(2))
        with pytest.raises(MixedBackendError):
            group_factors([a, d])

    def test_label_reuse_with_different_action_rejected(self):
        a1 = diag_op("A", [1.0, 2.0])
        a2 = diag_op("A", [1.0, 3.0])
        with pytest.raises(ValueError):
            group_factors([a1, a2])


class TestInitialDataTransform:
    def test_first_entry_is_x0(self):
        a = diag_op("A", [2.0, -1.0])
        eq = FactoredEquation((a,), (np.array([1.0, 5.0]),))
        out = initial_data_transform(eq)
        assert len(out) == 1
        assert np.array_equal(out[0], [1.0, 5.0])

    def test_two_factors(self):
        # u_2(0) = x_1 - A_1 x_0 with A_1 the first listed factor
        a, b = scalar_op("a", 3.0), scalar_op("b", 7.0)
        eq = FactoredEquation((a, b), (np.array([2.0]), np.array([5.0])))
        out = initial_data_transform(eq)
        assert out[1][0] == pytest.approx(5.0 - 3.0 * 2.0)

    def test_five_factor_expansion(self):
        # leading four factors (A, B, B, C); the hand expansion collects the
        # elementary symmetric polynomials of that multiset
        rng = np.random.default_rng(1)
        av, bv, cv = rng.uniform(-2, -1, 4), rng.uniform(0.5, 1.5, 4), rng.uniform(2, 3, 4)
        a, b, c = diag_op("A", av), diag_op("B", bv), diag_op("C", cv)
        xs = tuple(rng.standard_normal(4) for _ in range(5))
        eq = FactoredEquation((a, b, b, c, a), xs)
        u5 = initial_data_transform(eq)[4]
        x0, x1, x2, x3, x4 = xs
        expected = (
            x4
            - (av + 2 * bv + cv) * x3
            + (bv**2 + 2 * av * bv + 2 * bv * cv + av * cv) * x2
            - (av * bv**2 + cv * bv**2 + 2 * av * bv * cv) * x1
            + av * bv**2 * cv * x0
        )
        assert np.max(np.abs(u5 - expected)) <= 1e-10 * np.max(np.abs(expected))

    def test_last_entry_independent_of_final_factor(self):
        rng = np.random.default_rng(2)
        a, b = diag_op("A", rng.uniform(-1, 0, 3)), diag_op("B", rng.uniform(1, 2, 3))
        tail1, tail2 = diag_op("T1", rng.uniform(3, 4, 3)), diag_op("T2", rng.uniform(-5, -4, 3))
        xs = tuple(rng.standard_normal(3) for _ in range(3))
        u3_a = initial_data_transform(FactoredEquation((a, b, tail1), xs))[2]
        u3_b = initial_data_transform(FactoredEquation((a, b, tail2), xs))[2]
        assert np.array_equal(u3_a, u3_b)

    def test_repeated_factor_reduces_to_binomials(self):
        rng = np.random.default_rng(3)
        lam = rng.uniform(-1.5, -0.5, 4)
        a = diag_op("A", lam)
        xs = tuple(rng.standard_normal(4) for _ in range(4))
        out = initial_data_transform(FactoredEquation((a, a, a, a), xs))
        from math import comb

        for m in range(1, 5):
            expected = sum(
                (-1) ** k * comb(m - 1, k) * lam**k * xs[m - 1 - k] for k in range(m)
            )
            assert np.max(np.abs(out[m - 1] - expected)) <= 1e-12 * max(
                1.0, np.max(np.abs(expected))
            )

    def test_against_finite_difference_oracle(self):
        # u_3(0) should equal (u'' - (A1+A2) u' + A2 A1 u)(0); measure the
        # derivatives of the oracle trace directly
        rng = np.random.default_rng(4)
        f1, f2, f3 = (diag_op(f"F{j}", rng.uniform(-2 + j, -1.4 + j, 3)) for j in range(3))
        xs = tuple(rng.standard_normal(3) for _ in range(3))
        eq = FactoredEquation((f1, f2, f3), xs)
        h = 1e-4
        offsets = h * np.arange(7)
        trace = oracle_solve(eq, offsets[1:], steps_per_unit=5000)
        samples = np.vstack([xs[0], trace.values])
        derivs = [
            finite_difference_weights(offsets, k) @ samples for k in range(3)
        ]
        expected = (
            derivs[2]
            - (f1.modal_values + f2.modal_values) * derivs[1]
            + f2.modal_values * f1.modal_values * derivs[0]
        )
        u3 = initial_data_transform(eq)[2]
        assert np.max(np.abs(u3 - expected)) <= 1e-5


class TestCompanion:
    def test_single_factor(self):
        a = diag_op("A", [2.0])
        eq = FactoredEquation((a,), (np.array([3.0]),))
        system = build_companion(eq)
        assert np.array_equal(system.dense_matrix(), [[2.0]])
        assert np.array_equal(system.initial_state(), [3.0])

    def test_two_scalar_factors(self):
        a, b = scalar_op("a", 1.0), scalar_op("b", 2.0)
        eq = FactoredEquation((a, b), (np.array([4.0]), np.array([9.0])))
        system = build_companion(eq)
        assert np.array_equal(system.dense_matrix(), [[1.0, 1.0], [0.0, 2.0]])
        assert np.array_equal(system.initial_state(), [4.0, 9.0 - 4.0])

    def test_five_factor_diagonal_order(self):
        # factors supplied as (C, B, B, A, A) put exactly that order on the
        # block diagonal
        a, b, c = scalar_op("A", 1.0), scalar_op("B", 2.0), scalar_op("C", 3.0)
        xs = tuple(np.array([float(k)]) for k in range(5))
        system = build_companion(FactoredEquation((c, b, b, a, a), xs))
        mat = system.dense_matrix()
        assert np.array_equal(np.diag(mat), [3.0, 2.0, 2.0, 1.0, 1.0])
        assert np.array_equal(np.diag(mat, k=1), np.ones(4))
        assert np.count_nonzero(np.tril(mat, k=-1)) == 0

    def test_forcing_enters_last_block_only(self):
        a = diag_op("A", [1.0, 2.0])
        forcing = Forcing(lambda t: np.array([10.0, 20.0]))
        eq = FactoredEquation((a, a), (np.zeros(2), np.zeros(2)), forcing)
        plain = FactoredEquation((a, a), (np.zeros(2), np.zeros(2)))
        state = np.arange(4.0)
        diff = build_companion(eq).vector_field()(0.3, state) - build_companion(
            plain
        ).vector_field()(0.3, state)
        assert np.array_equal(diff, [0.0, 0.0, 10.0, 20.0])

    def test_commutation_gate(self):
        n1 = DenseMatrixOperator("N1", [[0.0, 1.0], [0.0, 0.0]])
        n2 = DenseMatrixOperator("N2", [[0.0, 0.0], [1.0, 0.0]])
        with pytest.raises(NonCommutingFactorsError) as info:
            FactoredEquation((n1, n2), (np.ones(2), np.ones(2)))
        assert info.value.defect == pytest.approx(1.0)


class TestOracle:
    def test_double_zero_root_gives_linear_solution(self):
        z = diag_op("Z", [0.0, 0.0])
        eq = FactoredEquation((z, z), (np.zeros(2), np.ones(2)))
        trace = oracle_solve(eq, np.array([0.3, 1.0, 2.0]))
        expected = np.array([[0.3, 0.3], [1.0, 1.0], [2.0, 2.0]])
        assert np.max(np.abs(trace.values - expected)) <= 1e-10

    def test_cosh_solution(self):
        a, b = scalar_op("a", 1.0), scalar_op("b", -1.0)
        eq = FactoredEquation((a, b), (np.array([1.0]), np.array([0.0])))
        trace = oracle_solve(eq, np.array([1.0]))
        assert abs(trace.values[0, 0] - np.cosh(1.0)) <= 1e-8

    def test_forced_integration(self):
        a = scalar_op("a", 0.0)
        eq = FactoredEquation((a,), (np.array([0.0]),), Forcing(lambda t: np.array([1.0])))
        trace = oracle_solve(eq, np.array([0.5, 1.0]))
        assert np.max(np.abs(trace.values[:, 0] - [0.5, 1.0])) <= 1e-10

    def test_initial_derivatives_match_data(self):
        # forward differences of the oracle trace at t=0 reproduce x_k
        rng = np.random.default_rng(5)
        eq = random_spectral_instance(rng, 3, 4)
        h = 1e-3
        offsets = h * np.arange(7)
        trace = oracle_solve(eq, offsets[1:], steps_per_unit=4000)
        samples = np.vstack([eq.initial_data[0], trace.values])
        for k in range(3):
            w = finite_difference_weights(offsets, k)
            assert np.max(np.abs(w @ samples - eq.initial_data[k])) <= 1e-4

    def test_translation_backend_rejected(self):
        from factored_evolution import TranslationOperator, UniformGrid

        grid = UniformGrid(0.0, 0.1, 32)
        op = TranslationOperator("T", 1.0, grid)
        eq = FactoredEquation((op,), (np.zeros(32),))
        with pytest.raises(UnsupportedOperationError):
            oracle_solve(eq, np.array([1.0]))

    @BOTH_SOLVERS
    def test_time_grid_validation(self, solve):
        a = scalar_op("a", 0.0)
        eq = FactoredEquation((a,), (np.array([1.0]),))
        for bad in ([1.0, 0.5], [-1.0], [], [[0.5, 1.0]]):
            with pytest.raises(ValueError):
                solve(eq, np.array(bad))

    @BOTH_SOLVERS
    def test_forcing_of_wrong_length_raises(self, solve):
        # a length-1 forcing on a d=3 equation must not be broadcast
        a = diag_op("a", [-1.0, -2.0, -3.0])
        eq = FactoredEquation((a,), (np.zeros(3),), Forcing(lambda t: np.ones(1)))
        with pytest.raises(DimensionMismatchError):
            solve(eq, np.array([0.5]))
        # nor may one that has the right length at t = 0 only
        eq = FactoredEquation((a,), (np.zeros(3),), Forcing(lambda t: np.ones(3 if t == 0 else 1)))
        with pytest.raises(DimensionMismatchError):
            solve(eq, np.array([0.5]))

    def test_complex_forcing_on_real_problem_agrees(self):
        # real operators and data with a complex forcing: the oracle
        # integrates in the complex result dtype
        a = diag_op("a", [-1.0, -2.0])
        eq = FactoredEquation((a,), (np.zeros(2),), Forcing(lambda t: np.array([1j, 1.0])))
        t_grid = np.array([0.5, 1.0])
        reference = oracle_solve(eq, t_grid)
        trace = solve_full(eq, t_grid)
        assert np.iscomplexobj(reference.values)
        assert np.max(np.abs(trace.values - reference.values)) <= 1e-6
