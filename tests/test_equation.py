import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from factored_evolution import (
    DenseMatrixOperator,
    DimensionMismatchError,
    FactoredEquation,
    Forcing,
    ForcingTypeError,
    MixedBackendError,
    NonCommutingFactorsError,
    NonFiniteError,
    OracleStepOverflowError,
    SpectralDiagonalOperator,
    build_companion,
    compare_with_oracle,
    group_factors,
    initial_data_transform,
    oracle_solve,
    rk4_integrate,
    solve_full,
)
from factored_evolution import equation
from conftest import finite_difference_weights

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

    def test_bare_forcing_rejected(self):
        # the solver and the oracle take the same forcing: a Forcing or None
        a = diag_op("a", [-1.0])
        with pytest.raises(ForcingTypeError, match="Forcing"):
            FactoredEquation((a,), (np.zeros(1),), lambda t: np.ones(1))

    def test_commutation_gate(self):
        n1 = DenseMatrixOperator("N1", [[0.0, 1.0], [0.0, 0.0]])
        n2 = DenseMatrixOperator("N2", [[0.0, 0.0], [1.0, 0.0]])
        with pytest.raises(NonCommutingFactorsError) as info:
            FactoredEquation((n1, n2), (np.ones(2), np.ones(2)))
        # ||N1 N2 - N2 N1||_F = ||diag(1, -1)||_F
        assert info.value.defect == pytest.approx(np.sqrt(2.0))


class TestCommutationGate:
    def test_wide_laplacian_mode_pair_is_accepted(self):
        # eigenvalues up to 4e4: rounding alone puts ||ABv - BAv|| / ||v||
        # near 1e-7 on random v, but the 1x1 blocks commute exactly
        k2 = np.arange(1.0, 201.0) ** 2
        a, b = diag_op("A", -k2), diag_op("B", -(k2 + 0.5))
        # smooth data, mode coefficients decaying like 1/k^2: unit data at
        # this width trip the coefficient residual gate on rounding alone
        rng = np.random.default_rng(5)
        eq = FactoredEquation((a, b), tuple(rng.standard_normal((2, 200)) / k2))
        _, _, dev = compare_with_oracle(eq, np.linspace(0.0, 0.01, 5), steps_per_unit=200000)
        assert dev <= 1e-12

    def test_pair_just_above_the_limit_is_rejected(self):
        # a scaled nilpotent pair: defect s^2 sqrt(2) = 2e-9, far above its
        # rounding floor eps * 2 * s^2
        s = np.sqrt(2e-9 / np.sqrt(2.0))
        n1 = DenseMatrixOperator("N1", [[0.0, s], [0.0, 0.0]])
        n2 = DenseMatrixOperator("N2", [[0.0, 0.0], [s, 0.0]])
        with pytest.raises(NonCommutingFactorsError) as info:
            FactoredEquation((n1, n2), (np.ones(2), np.ones(2)))
        assert info.value.defect == pytest.approx(2e-9)
        floor = np.finfo(float).eps * 2 * s * s
        assert f"defect {info.value.defect:.3e}" in str(info.value)
        assert f"rounding floor {floor:.1e}" in str(info.value)

    def test_wide_dense_pair_in_one_eigenbasis_is_rejected(self):
        # commuting in exact arithmetic, but the rounding in its commutator
        # is above the absolute limit; whether it should pass is open
        rng = np.random.default_rng(3)
        q, _ = np.linalg.qr(rng.standard_normal((64, 64)))
        a, b = (DenseMatrixOperator(label, (q * rng.uniform(-2e5, 0.0, 64)) @ q.T) for label in "AB")
        with pytest.raises(NonCommutingFactorsError, match="rounding floor"):
            FactoredEquation((a, b), (np.ones(64), np.ones(64)))

    def test_overflowing_commutator_is_rejected(self):
        a, b = diag_op("A", [1e200, 1.0]), diag_op("B", [-1e200, 2.0])
        with pytest.raises(NonCommutingFactorsError, match="defect nan"):
            FactoredEquation((a, b), (np.ones(2), np.ones(2)))


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
        # one check per run of 128 steps of 5e-4: the state overflows in
        # the run over [0.832, 0.896]
        with pytest.raises(NonFiniteError, match=r"between t=0\.832 and t=0\.896$"):
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


# ---------------------------------------------------------------------------
# array forcing: Forcing.many and the oracle's batched forcing terms
# ---------------------------------------------------------------------------


def scalar_form(forcing):
    """The same evaluator, called once per time."""
    return Forcing(forcing.evaluator)


@settings(derandomize=True, database=None, max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    dim=st.integers(1, 6),
    kind=st.sampled_from(["smooth", "translation"]),
    times=st.lists(st.floats(0.0, 5.0), min_size=1, max_size=40),
)
def test_many_of_a_vectorized_evaluator_equals_its_scalar_form(seed, dim, kind, times):
    rng = np.random.default_rng(seed)
    if kind == "smooth":
        forcing = random_smooth_forcing(rng, dim)
    else:
        forcing = random_translation_instance(rng, 2, 2 * dim + 2, forced=True).forcing
        dim = 2 * dim + 2
    assert forcing.vectorized
    stack = forcing.many(times, dim)
    reference = scalar_form(forcing).many(times, dim)
    assert stack.shape == (len(times), dim) and stack.dtype == reference.dtype
    assert np.array_equal(stack, reference)


def times_asked(solve, eq, t_grid):
    """Every time at which ``solve`` evaluates the forcing of ``eq``."""
    asked = []
    probe = Forcing(lambda t: asked.append(t) or eq.forcing(t))
    solve(FactoredEquation(eq.factors, eq.initial_data, probe), t_grid)
    return asked


@BOTH_SOLVERS
@pytest.mark.parametrize("vectorized", [False, True], ids=["scalar", "vectorized"])
def test_nan_forcing_at_one_time_raises(solve, vectorized):
    a = diag_op("a", [-1.0, -2.0, -3.0])
    t_grid = np.array([0.0, 0.4, 1.0])
    plain = FactoredEquation((a, a), (np.zeros(3),) * 2, Forcing(lambda t: np.ones(3)))
    asked = times_asked(solve, plain, t_grid)
    poisoned = asked[len(asked) // 2]

    def evaluator(t):
        return np.where(t == poisoned, np.nan, 1.0) * np.ones(3)

    eq = FactoredEquation((a, a), (np.zeros(3),) * 2, Forcing(evaluator, vectorized))
    with pytest.raises(NonFiniteError):
        solve(eq, t_grid)


@BOTH_SOLVERS
@pytest.mark.parametrize("vectorized", [False, True], ids=["scalar", "vectorized"])
def test_forcing_changing_length_at_one_time_raises(solve, vectorized):
    a = diag_op("a", [-1.0, -2.0, -3.0])
    t_grid = np.array([0.0, 0.4, 1.0])
    plain = FactoredEquation((a,), (np.zeros(3),), Forcing(lambda t: np.ones(3)))
    asked = times_asked(solve, plain, t_grid)
    changed = asked[len(asked) // 2]

    def evaluator(t):  # one time or a column of them
        return np.ones(np.shape(t)[:-1] + (4 if np.any(t == changed) else 3,))

    eq = FactoredEquation((a,), (np.zeros(3),), Forcing(evaluator, vectorized))
    with pytest.raises(DimensionMismatchError):
        solve(eq, t_grid)


@BOTH_SOLVERS
def test_vectorized_forcing_dropping_a_row_raises(solve):
    a = diag_op("a", [-1.0, -2.0, -3.0])
    t_grid = np.array([0.0, 0.4, 1.0])
    plain = FactoredEquation((a,), (np.zeros(3),), Forcing(lambda t: np.ones(3)))
    asked = times_asked(solve, plain, t_grid)
    dropped = asked[len(asked) // 2]
    forcing = Forcing(lambda t: np.ones((int(np.sum(t != dropped)), 3)), vectorized=True)
    with pytest.raises(DimensionMismatchError, match="forcing values"):
        solve(FactoredEquation((a,), (np.zeros(3),), forcing), t_grid)


def per_stage_oracle(eq, t_grid, steps_per_unit):
    """The oracle with one forcing call per stage time, each value moved to
    the basis on its own and its step's forcing term formed in the step: the
    loop that the batched forcing terms of ``oracle_solve`` replace."""
    system = build_companion(eq)
    gen, basis = system.generator(), system.basis
    (b, size, _), n, d = gen.shape, eq.n, eq.dim
    m = d // b
    dtypes = {x.dtype for x in eq.initial_data}

    def step_matrices(h):
        x = h * gen
        x2 = x @ x
        x3 = x2 @ x
        eye = np.broadcast_to(np.eye(size), gen.shape)
        ws = (eye + x + x2 / 2 + x3 / 4, 4 * eye + 2 * x + x2 / 2, eye)
        last_columns = np.concatenate([w[..., -m:] for w in ws], axis=-1)
        return x + x2 / 2 + x3 / 6 + x3 @ x / 24, (h / 6) * last_columns

    def last_block(t):
        f = np.asarray(eq.forcing(t))
        assert f.shape == (d,) and np.isfinite(f).all()
        dtypes.add(f.dtype)
        return basis.to_modes(f).reshape(b, m, 1)

    state = system.initial_state().reshape(n, b, m).swapaxes(0, 1).reshape(b, size, 1)
    f_t = last_block(0.0)
    state = state.astype(np.result_type(gen, state, f_t))
    values, t_prev = [], 0.0
    for t in t_grid:
        if t > t_prev:
            steps = math.ceil((t - t_prev) * steps_per_unit)
            p_minus_i, w = step_matrices((t - t_prev) / steps)
            stage = np.linspace(t_prev, t, 2 * steps + 1)
            for k in range(1, 2 * steps, 2):
                f_end = last_block(stage[k + 1])
                du = p_minus_i @ state + w @ np.concatenate([f_t, last_block(stage[k]), f_end], axis=1)
                f_t = f_end
                state = state + du
            t_prev = float(t)
        values.append(state.reshape(b, n, m)[:, 0].reshape(d))
    return basis.from_modes(np.array(values), np.empty(0, np.result_type(*dtypes)))


@pytest.mark.parametrize("family", ["dense", "spectral", "periodic-translation"])
@pytest.mark.parametrize("vectorized", [False, True], ids=["scalar", "vectorized"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_batched_forcing_terms_match_the_per_stage_loop(family, vectorized, seed):
    # 700 steps on [0, 0.35] run over several chunks of steps, and the
    # second interval ends inside one
    rng = np.random.default_rng(seed)
    if family == "periodic-translation":
        eq = random_translation_instance(rng, 3, 16, forced=True)
    else:
        eq = random_commuting_instance(rng, 3, 4, family, forcing=random_smooth_forcing(rng, 4))
    if not vectorized:
        eq = FactoredEquation(eq.factors, eq.initial_data, scalar_form(eq.forcing))
    t_grid = np.array([0.0, 0.35, 0.5, 0.9])
    values = oracle_solve(eq, t_grid, 2000).values
    reference = per_stage_oracle(eq, t_grid, 2000)
    assert values.dtype == reference.dtype
    assert max_rel_dev(values, reference) <= 1e-15


def test_complex_forcing_on_a_real_problem_matches_the_per_stage_loop():
    # f(0) is real, so the state turns complex at the first forcing term
    a = diag_op("a", [-1.0, -2.0])
    forcing = Forcing(lambda t: np.real_if_close(np.array([np.exp(1j * t), 1.0])))
    eq = FactoredEquation((a, a), (np.ones(2), np.zeros(2)), forcing)
    t_grid = np.array([0.5, 1.0])
    values = oracle_solve(eq, t_grid, 400).values
    reference = per_stage_oracle(eq, t_grid, 400)
    assert values.dtype == reference.dtype == np.complex128
    assert max_rel_dev(values, reference) <= 1e-15


def test_oracle_forcing_stack_stays_bounded_on_a_wide_state():
    # d = 2000 over one unit interval is 2000 steps and 4001 stage times;
    # no (4001, 2000) stack may exist at once
    d = 2000
    rows = []
    c0 = np.linspace(-1.0, 1.0, d)

    def evaluator(t):
        rows.append(len(t))
        return c0 * np.cos(t)

    eq = FactoredEquation(
        (SpectralDiagonalOperator("a", -np.linspace(0.5, 1.5, d)),), (np.zeros(d),), Forcing(evaluator, True)
    )
    tracemalloc.start()
    try:
        oracle_solve(eq, np.array([1.0]))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert max(rows) <= 2 * equation._ORACLE_CHUNK_STEPS + 1 < 4001
    assert sum(rows) == 4000 + len(rows)  # chunks share their end times
    assert peak < 4001 * d * 8



def test_oracle_step_budget_rejects_the_grid_before_the_first_step():
    # 2 samples on [0, 1e9] at 2000 steps per unit: 2e12 steps, refused
    # before the forcing is evaluated once
    calls = []
    a, b = diag_op("a", [-1.0, -2.0]), diag_op("b", [-0.5, -0.25])
    forcing = Forcing(lambda t: calls.append(t) or np.ones(2))
    eq = FactoredEquation((a, b), (np.array([1.0, 0.0]), np.array([0.0, 1.0])), forcing)
    with pytest.raises(OracleStepOverflowError, match=r"needs 2e\+12 RK4 steps .* interval \[0, 1e\+09\]"):
        oracle_solve(eq, np.array([0.0, 1e9]))
    assert calls == []


def test_oracle_step_budget_sums_every_interval():
    # no interval is over the budget alone, but their sum is
    a = diag_op("a", [-1.0])
    eq = FactoredEquation((a,), (np.array([1.0]),))
    per_interval = equation._ORACLE_STEP_BUDGET // 2 + 1
    t_grid = np.array([1.0, 2.0, 3.0]) * per_interval
    with pytest.raises(OracleStepOverflowError, match=r"over the sample grid"):
        oracle_solve(eq, t_grid, steps_per_unit=1)
    assert oracle_solve(eq, [1.0, 2.0], steps_per_unit=1).values.shape == (2, 1)
