import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from factored_evolution import (
    DenseMatrixOperator,
    DimensionMismatchError,
    FactoredEquation,
    Forcing,
    MixedBackendError,
    NonCommutingFactorsError,
    NonFiniteError,
    SpectralDiagonalOperator,
    build_companion,
    group_factors,
    initial_data_transform,
    oracle_solve,
    rk4_integrate,
    solve_full,
)
from factored_evolution.statespace import finite_difference_weights

from conftest import (
    max_rel_dev,
    random_commuting_instance,
    random_smooth_forcing,
    random_spectral_instance,
    random_translation_instance,
)


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
        assert np.array_equal(system.generator(), [[[2.0]]])
        assert np.array_equal(system.initial_state(), [3.0])

    def test_two_scalar_factors(self):
        a, b = scalar_op("a", 1.0), scalar_op("b", 2.0)
        eq = FactoredEquation((a, b), (np.array([4.0]), np.array([9.0])))
        system = build_companion(eq)
        assert np.array_equal(system.generator(), [[[1.0, 1.0], [0.0, 2.0]]])
        assert np.array_equal(system.initial_state(), [4.0, 9.0 - 4.0])

    def test_five_factor_diagonal_order(self):
        # factors supplied as (C, B, B, A, A) put exactly that order on the
        # block diagonal
        a, b, c = scalar_op("A", 1.0), scalar_op("B", 2.0), scalar_op("C", 3.0)
        xs = tuple(np.array([float(k)]) for k in range(5))
        system = build_companion(FactoredEquation((c, b, b, a, a), xs))
        (mat,) = system.generator()
        assert np.array_equal(np.diag(mat), [3.0, 2.0, 2.0, 1.0, 1.0])
        assert np.array_equal(np.diag(mat, k=1), np.ones(4))
        assert np.count_nonzero(np.tril(mat, k=-1)) == 0

    def test_forcing_enters_last_block_only(self):
        # one oracle step of the forced system against RK4 on the flat
        # system (u_1, u_2) with the forcing in the last block, not the first
        a = diag_op("A", [1.0, 2.0])
        forcing = Forcing(lambda t: np.array([10.0, 20.0]))
        eq = FactoredEquation((a, a), (np.zeros(2), np.zeros(2)), forcing)
        plain = FactoredEquation((a, a), (np.zeros(2), np.zeros(2)))
        per_mode = [[[1.0, 1.0], [0.0, 1.0]], [[2.0, 1.0], [0.0, 2.0]]]
        assert np.array_equal(build_companion(eq).generator(), per_mode)
        assert np.array_equal(build_companion(plain).generator(), per_mode)
        flat = np.array([[1, 0, 1, 0], [0, 2, 0, 1], [0, 0, 1, 0], [0, 0, 0, 2]], dtype=float)
        last = rk4_integrate(lambda t, u: flat @ u + [0.0, 0.0, 10.0, 20.0], np.zeros(4), 0.5, 1)
        first = rk4_integrate(lambda t, u: flat @ u + [10.0, 20.0, 0.0, 0.0], np.zeros(4), 0.5, 1)
        diff = oracle_solve(eq, [0.5], 1).values[0] - oracle_solve(plain, [0.5], 1).values[0]
        assert max_rel_dev(diff, last[:2]) <= 1e-14
        assert max_rel_dev(diff, first[:2]) > 0.5

    def test_commutation_gate(self):
        n1 = DenseMatrixOperator("N1", [[0.0, 1.0], [0.0, 0.0]])
        n2 = DenseMatrixOperator("N2", [[0.0, 0.0], [1.0, 0.0]])
        with pytest.raises(NonCommutingFactorsError) as info:
            FactoredEquation((n1, n2), (np.ones(2), np.ones(2)))
        assert info.value.defect == pytest.approx(1.0)


@BOTH_SOLVERS
@pytest.mark.parametrize("forced", [False, True])
@pytest.mark.parametrize("t_grid", [[0.0, np.inf], [np.nan], [0.5, np.nan, 1.0]])
def test_non_finite_sample_times_are_rejected(solve, forced, t_grid):
    # the solver and its referee reject the same grids the same way
    forcing = Forcing(lambda t: np.ones(2)) if forced else None
    eq = FactoredEquation((diag_op("A", [-1.0, -2.0]),) * 2, (np.ones(2), np.zeros(2)), forcing)
    with pytest.raises(ValueError, match="finite"):
        solve(eq, np.array(t_grid))


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

    def test_periodic_translation_matches_its_fourier_mode_equivalent(self):
        # the same problem stated on the mode multipliers, with transformed
        # data and forcing: only the basis changes, so the values agree to roundoff
        eq = random_translation_instance(np.random.default_rng(3), 3, 32, "mixed", forced=True)
        modal = {op.label: SpectralDiagonalOperator(op.label, op.node_multipliers())
                 for op, _ in eq.grouped}
        equivalent = FactoredEquation(
            tuple(modal[op.label] for op in eq.factors),
            tuple(np.fft.fft(x) for x in eq.initial_data),
            Forcing(lambda t: np.fft.fft(eq.forcing(t))),
        )
        t_grid = np.array([0.0, 0.4, 1.0])
        values = oracle_solve(eq, t_grid).values
        reference = np.fft.ifft(oracle_solve(equivalent, t_grid).values, axis=1)
        assert values.dtype == np.float64
        assert max_rel_dev(values, reference) <= 1e-12

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

    def test_forcing_real_at_zero_only_agrees(self):
        # the value at t = 0 does not fix the dtype: f(0) is real here
        a = diag_op("a", [-1.0, -2.0])
        forcing = Forcing(lambda t: np.real_if_close(np.array([np.exp(1j * t), 1.0])))
        assert not np.iscomplexobj(forcing(0.0))
        eq = FactoredEquation((a,), (np.zeros(2),), forcing)
        t_grid = np.array([0.5, 1.0])
        reference = oracle_solve(eq, t_grid)
        assert np.iscomplexobj(reference.values)
        assert np.max(np.abs(solve_full(eq, t_grid).values - reference.values)) <= 1e-6

    def test_blow_up_raises_nonfinite_error(self):
        eq = FactoredEquation((diag_op("a", [800.0]),), (np.ones(1),))
        with pytest.raises(NonFiniteError):
            oracle_solve(eq, np.array([1.0]))

    @pytest.mark.parametrize("steps_per_unit", [0, -5, 0.5])
    def test_steps_per_unit_below_one_rejected(self, steps_per_unit):
        eq = FactoredEquation((scalar_op("a", -1.0),), (np.array([1.0]),))
        with pytest.raises(ValueError, match="steps_per_unit"):
            oracle_solve(eq, np.array([1.0]), steps_per_unit)


def step_by_step_rk4(eq, t_grid, steps_per_unit):
    """RK4 through ``rk4_integrate`` on the flat ``(n d)``-state system, its
    generator put together from the blocks of ``generator()`` (checked to be
    the block bidiagonal of the factors) and the forcing in the last block."""
    system = build_companion(eq)
    blocks = system.generator()
    n, d = eq.n, eq.dim
    m = d // blocks.shape[0]
    flat = np.zeros((n * d, n * d), dtype=blocks.dtype)
    for k, block in enumerate(blocks):  # block k holds coordinates k*m .. k*m+m-1
        idx = (d * np.arange(n)[:, None] + k * m + np.arange(m)).ravel()
        flat[np.ix_(idx, idx)] = block
    bidiagonal = np.eye(n * d, k=d).astype(blocks.dtype)
    for j, op in enumerate(eq.factors):
        gen = op.matrix if op.family == "dense" else np.diag(op.modal_values)
        bidiagonal[j * d : (j + 1) * d, j * d : (j + 1) * d] = gen
    assert np.array_equal(flat, bidiagonal)

    def field(t, u):
        du = flat @ u
        if eq.forcing is not None:
            du[-d:] += eq.forcing(t)
        return du

    state = system.initial_state()
    if eq.forcing is not None:
        state = state.astype(np.result_type(state, flat, eq.forcing(0.0)))
    values, t_prev = [], 0.0
    for t in t_grid:
        if t > t_prev:
            steps = math.ceil((t - t_prev) * steps_per_unit)
            state = rk4_integrate(field, state, t, steps, t0=t_prev)
            t_prev = t
        values.append(state[:d])
    return np.array(values)


@settings(derandomize=True, database=None, max_examples=12, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    family=st.sampled_from(["spectral", "dense"]),
    n=st.integers(1, 4),
    dim=st.integers(1, 4),
    forcing=st.sampled_from([None, "real", "complex"]),
)
@example(seed=7, family="dense", n=3, dim=3, forcing="complex")
@example(seed=8, family="spectral", n=3, dim=3, forcing="complex")
@example(seed=9, family="dense", n=2, dim=4, forcing="real")
@example(seed=10, family="dense", n=4, dim=4, forcing=None)
def test_exact_step_matches_step_by_step_rk4(seed, family, n, dim, forcing):
    rng = np.random.default_rng(seed)
    f = None
    if forcing is not None:
        real = random_smooth_forcing(rng, dim)
        f = real if forcing == "real" else Forcing(lambda t: (1.0 + 0.5j) * real(t))
    eq = random_commuting_instance(rng, n, dim, family, forcing=f)
    t_grid = np.array([0.0, 0.25, 0.6, 1.0])
    reference = step_by_step_rk4(eq, t_grid, 300)
    values = oracle_solve(eq, t_grid, 300).values
    assert values.dtype == reference.dtype
    assert max_rel_dev(values, reference) <= 1e-12


@settings(derandomize=True, database=None, max_examples=12, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    family=st.sampled_from(["spectral", "dense", "periodic-translation"]),
    n=st.integers(1, 4),
    forced=st.booleans(),
)
@example(seed=3, family="periodic-translation", n=3, forced=True)
@example(seed=4, family="periodic-translation", n=4, forced=False)
@example(seed=5, family="dense", n=3, forced=True)
@example(seed=6, family="spectral", n=4, forced=True)
def test_solve_full_agrees_with_oracle(seed, family, n, forced):
    rng = np.random.default_rng(seed)
    if family == "periodic-translation":
        eq = random_translation_instance(rng, n, 16, forced=forced)
    else:
        f = random_smooth_forcing(rng, 4) if forced else None
        eq = random_commuting_instance(rng, n, 4, family, forcing=f)
    t_grid = np.array([0.0, 0.3, 0.8])
    values = solve_full(eq, t_grid).values
    reference = oracle_solve(eq, t_grid).values
    assert values.dtype == reference.dtype
    assert max_rel_dev(values, reference) <= 1e-6
