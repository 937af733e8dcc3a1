import numpy as np
import pytest

import math

from factored_evolution import (
    DenseMatrixOperator,
    DimensionMismatchError,
    FactoredEquation,
    Forcing,
    NonFiniteError,
    NotInvertibleError,
    QuadratureRule,
    QuadratureUnderResolvedError,
    SemigroupOverflowError,
    SingularSystemError,
    SpectralDiagonalOperator,
    TranslationOperator,
    UniformGrid,
    compare_with_oracle,
    initial_derivative_defect,
    lemma2_lhs,
    lemma2_rhs,
    oracle_solve,
    solve_full,
    solve_homogeneous,
    solve_inhomogeneous_zero_ic,
)

from factored_evolution import confluent, operators, solver
from factored_evolution.statespace import finite_difference_weights

from conftest import (
    central_difference_operator,
    max_rel_dev,
    random_commuting_instance,
    random_dense_commuting_instance,
    random_smooth_forcing,
    random_spectral_instance,
)


def scalar_op(label, value):
    return SpectralDiagonalOperator(label, [float(value)])


def diag_op(label, values):
    return SpectralDiagonalOperator(label, np.asarray(values, dtype=float))


class TestSolveHomogeneous:
    def test_single_factor_is_semigroup_action(self):
        op = diag_op("A", [-1.0, 2.0])
        x0 = np.array([3.0, -1.0])
        trace = solve_homogeneous(FactoredEquation((op,), (x0,)), np.array([0.0, 0.5, 1.0]))
        for i, t in enumerate((0.0, 0.5, 1.0)):
            assert np.allclose(trace.values[i], op.semigroup(t, x0), rtol=1e-14, atol=0)

    def test_double_zero_root_is_linear(self):
        z = diag_op("Z", [0.0, 0.0])
        eq = FactoredEquation((z, z), (np.zeros(2), np.ones(2)))
        trace = solve_homogeneous(eq, np.array([0.0, 0.7, 2.0]))
        assert np.array_equal(trace.values[:, 0], [0.0, 0.7, 2.0])

    def test_initial_value_reproduced(self):
        rng = np.random.default_rng(20)
        eq = random_spectral_instance(rng, 4, 5)
        trace = solve_homogeneous(eq, np.array([0.0, 1.0]))
        assert np.max(np.abs(trace.values[0] - eq.initial_data[0])) <= 1e-10

    def test_five_factor_instance_against_oracle(self):
        rng = np.random.default_rng(21)
        a = diag_op("A", rng.uniform(-2.0, -1.5, 3))
        b = diag_op("B", rng.uniform(-0.8, -0.4, 3))
        c = diag_op("C", rng.uniform(0.0, 0.3, 3))
        xs = tuple(rng.standard_normal(3) for _ in range(5))
        eq = FactoredEquation((a, a, b, b, c), xs)
        t_grid = np.array([0.25, 0.5, 1.0])
        trace = solve_homogeneous(eq, t_grid)
        reference = oracle_solve(eq, t_grid)
        assert max_rel_dev(trace.values, reference.values) <= 1e-6

    def test_rejects_forced_equation(self):
        op = scalar_op("a", 0.0)
        eq = FactoredEquation((op,), (np.zeros(1),), Forcing(lambda t: np.ones(1)))
        with pytest.raises(ValueError):
            solve_homogeneous(eq, np.array([1.0]))

    def test_permutation_invariance(self):
        rng = np.random.default_rng(22)
        a = diag_op("A", rng.uniform(-2.0, -1.5, 4))
        b = diag_op("B", rng.uniform(-0.5, 0.0, 4))
        c = diag_op("C", rng.uniform(0.5, 1.0, 4))
        xs = tuple(rng.standard_normal(4) for _ in range(4))
        t_grid = np.array([0.5, 1.0, 1.5])
        reference = None
        for factors in [(a, a, b, c), (b, a, c, a), (c, b, a, a), (a, b, a, c)]:
            trace = solve_homogeneous(FactoredEquation(factors, xs), t_grid)
            if reference is None:
                reference = trace.values
            else:
                assert max_rel_dev(trace.values, reference) <= 1e-6


class TestSolveInhomogeneous:
    def test_plain_integration(self):
        op = scalar_op("a", 0.0)
        eq = FactoredEquation((op,), (np.zeros(1),), Forcing(lambda t: np.ones(1)))
        trace = solve_inhomogeneous_zero_ic(eq, np.array([0.0, 0.5, 1.0]))
        assert np.max(np.abs(trace.values[:, 0] - [0.0, 0.5, 1.0])) <= 1e-12

    def test_double_zero_root_constant_forcing(self):
        z = diag_op("Z", [0.0])
        eq = FactoredEquation((z, z), (np.zeros(1), np.zeros(1)), Forcing(lambda t: np.ones(1)))
        trace = solve_inhomogeneous_zero_ic(eq, np.array([0.5, 1.0, 2.0]))
        assert np.max(np.abs(trace.values[:, 0] - [0.125, 0.5, 2.0])) <= 1e-12

    def test_distinct_scalar_weights_against_oracle(self):
        # factors (0, 1): u'' - u' = 1; the weights (-I, I) produce
        # u(t) = int_0^t (e^{t-s} - 1) ds = e^t - 1 - t
        a, b = scalar_op("a", 0.0), scalar_op("b", 1.0)
        eq = FactoredEquation((a, b), (np.zeros(1), np.zeros(1)), Forcing(lambda t: np.ones(1)))
        t_grid = np.array([0.5, 1.0])
        trace = solve_inhomogeneous_zero_ic(eq, t_grid)
        closed = np.exp(t_grid) - 1.0 - t_grid
        assert np.max(np.abs(trace.values[:, 0] - closed)) <= 1e-10
        reference = oracle_solve(eq, t_grid)
        assert max_rel_dev(trace.values, reference.values) <= 1e-6

    def test_mixed_multiplicities_against_oracle(self):
        a, b = scalar_op("a", -1.0), scalar_op("b", 1.0)
        forcing = Forcing(lambda t: np.array([np.cos(t)]))
        eq = FactoredEquation((a, a, b), (np.zeros(1),) * 3, forcing)
        t_grid = np.array([0.5, 1.0])
        trace = solve_inhomogeneous_zero_ic(eq, t_grid)
        reference = oracle_solve(eq, t_grid)
        assert max_rel_dev(trace.values, reference.values) <= 1e-6

    def test_solution_value_and_slope_vanish_at_zero(self):
        rng = np.random.default_rng(23)
        a = diag_op("a", rng.uniform(-1.5, -1.0, 3))
        b = diag_op("b", rng.uniform(0.2, 0.6, 3))
        forcing = Forcing(lambda t: np.cos(t) * np.ones(3))
        eq = FactoredEquation((a, b), (np.zeros(3), np.zeros(3)), forcing)
        offsets = 1e-3 * np.arange(5)
        values = solve_inhomogeneous_zero_ic(eq, offsets).values
        for k in range(eq.n):
            derivative = finite_difference_weights(offsets[: k + 4], k) @ values[: k + 4]
            assert np.max(np.abs(derivative)) <= 1e-4

    def test_rejects_nonzero_initial_data(self):
        op = scalar_op("a", 0.0)
        eq = FactoredEquation((op,), (np.ones(1),), Forcing(lambda t: np.ones(1)))
        with pytest.raises(ValueError):
            solve_inhomogeneous_zero_ic(eq, np.array([1.0]))

    def test_under_resolved_quadrature_raises(self):
        op = scalar_op("a", 0.0)
        forcing = Forcing(lambda t: np.array([np.cos(40.0 * t)]))
        eq = FactoredEquation((op,), (np.zeros(1),), forcing)
        rule = QuadratureRule("gauss-legendre", panels=1, nodes_per_panel=2)
        with pytest.raises(QuadratureUnderResolvedError):
            solve_inhomogeneous_zero_ic(eq, np.array([2.0]), rule)

    def test_quadrature_convergence_order(self):
        # a 2-point Gauss panel rule has order 4: doubling panels should cut
        # the error by roughly 16 (required: at least 16/10)
        a = scalar_op("a", -0.5)
        forcing = Forcing(lambda t: np.array([np.cos(2.0 * t)]))
        eq = FactoredEquation((a, a), (np.zeros(1), np.zeros(1)), forcing)
        t_grid = np.array([1.5])
        reference = solve_inhomogeneous_zero_ic(
            eq, t_grid, QuadratureRule(panels=64, nodes_per_panel=8)
        ).values
        errs = []
        for panels in (2, 4):
            rule = QuadratureRule(panels=panels, nodes_per_panel=2)
            vals = solve_inhomogeneous_zero_ic(
                eq, t_grid, rule, richardson_tol=float("inf")
            ).values
            errs.append(np.max(np.abs(vals - reference)))
        assert errs[0] / errs[1] >= 2**4 / 10.0


class TestSolveFull:
    def test_without_forcing_matches_homogeneous(self):
        rng = np.random.default_rng(24)
        eq = random_spectral_instance(rng, 3, 4)
        t_grid = np.array([0.0, 0.5, 1.0])
        assert np.array_equal(
            solve_full(eq, t_grid).values, solve_homogeneous(eq, t_grid).values
        )

    def test_zero_data_matches_convolution_part(self):
        a = diag_op("a", [-1.0, -2.0])
        forcing = Forcing(lambda t: np.array([1.0, t]))
        eq = FactoredEquation((a, a), (np.zeros(2), np.zeros(2)), forcing)
        t_grid = np.array([0.5, 1.0])
        full = solve_full(eq, t_grid).values
        conv = solve_inhomogeneous_zero_ic(eq, t_grid).values
        assert np.max(np.abs(full - conv)) <= 1e-12

    def test_superposition_is_exact(self):
        rng = np.random.default_rng(25)
        a = diag_op("a", rng.uniform(-1.0, -0.5, 4))
        b = diag_op("b", rng.uniform(0.0, 0.4, 4))
        forcing = Forcing(lambda t: np.sin(t) * np.ones(4) + 1.0)
        eq = FactoredEquation((a, b, b), tuple(rng.standard_normal(4) for _ in range(3)), forcing)
        t_grid = np.array([0.4, 0.9, 1.6])
        full = solve_full(eq, t_grid).values
        parts = (
            solve_homogeneous(eq.without_forcing(), t_grid).values
            + solve_inhomogeneous_zero_ic(eq.with_zero_initial_data(), t_grid).values
        )
        assert np.max(np.abs(full - parts)) <= 1e-12

    def test_classical_second_order_example(self):
        # u'' - u = 1 with u(0)=1, u'(0)=0 solves to 2 cosh t - 1
        a, b = scalar_op("a", 1.0), scalar_op("b", -1.0)
        forcing = Forcing(lambda t: np.ones(1))
        eq = FactoredEquation((a, b), (np.array([1.0]), np.array([0.0])), forcing)
        t_grid = np.array([0.5, 1.0])
        trace = solve_full(eq, t_grid)
        expected = 2.0 * np.cosh(t_grid) - 1.0
        assert np.max(np.abs(trace.values[:, 0] - expected)) <= 1e-7
        _, _, rel = compare_with_oracle(eq, t_grid)
        assert rel <= 1e-7

    def test_oracle_equivalence_sweep(self):
        rng = np.random.default_rng(26)
        t_grid = np.linspace(0.4, 2.0, 5)
        for i in range(6):
            family = "dense" if i % 2 else "spectral"
            n = int(rng.integers(2, 6))
            dim = int(rng.integers(2, 8))
            eq = random_commuting_instance(rng, n, dim, family)
            _, _, rel = compare_with_oracle(eq, t_grid)
            assert rel <= 1e-6

    def test_derivative_fidelity_homogeneous(self):
        rng = np.random.default_rng(27)
        for _ in range(3):
            eq = random_spectral_instance(rng, 4, 4)
            assert initial_derivative_defect(eq) <= 1e-4

    def test_complex_scale_backend_against_oracle(self):
        # a complex multiplier makes every downstream array complex; the
        # closed form and the oracle must still agree
        op = SpectralDiagonalOperator("R", [-1.0, -4.0], scale=1.0j)
        forcing = Forcing(lambda t: np.array([np.cos(t), 1.0]))
        eq = FactoredEquation(
            (op, op), (np.array([1.0, 0.0]), np.array([0.0, 1.0])), forcing
        )
        t_grid = np.array([0.4, 0.9])
        trace = solve_full(eq, t_grid)
        reference = oracle_solve(eq, t_grid)
        assert np.iscomplexobj(trace.values)
        assert max_rel_dev(trace.values, reference.values) <= 1e-6


class TestFactorizeOnce:
    """``y`` and ``z`` share one factorization, and no solve rebuilds the
    equation (which would rerun the commutation gate)."""

    @staticmethod
    def _count(monkeypatch):
        calls = {"lu": 0, "gate": 0}
        lu = confluent.lu_factor_checked
        gate = FactoredEquation._commutation_gate

        def counting_lu(a):
            calls["lu"] += 1
            return lu(a)

        def counting_gate(grouped):
            calls["gate"] += 1
            return gate(grouped)

        monkeypatch.setattr(confluent, "lu_factor_checked", counting_lu)
        monkeypatch.setattr(FactoredEquation, "_commutation_gate", staticmethod(counting_gate))
        return calls

    def _forced_dense(self):
        rng = np.random.default_rng(28)
        eq = random_dense_commuting_instance(rng, 3, 4, "all-distinct", random_smooth_forcing(rng, 4))
        assert isinstance(eq.factors[0], DenseMatrixOperator) and len(eq.grouped) == 3
        return eq

    def test_forced_dense_solve_factors_once(self, monkeypatch):
        eq = self._forced_dense()
        calls = self._count(monkeypatch)
        solve_full(eq, np.array([0.3, 0.8]))
        assert calls == {"lu": 1, "gate": 0}

    @pytest.mark.parametrize("samples", [3, 9])
    def test_forced_dense_solve_back_substitutes_twice(self, monkeypatch, samples):
        # once for y and once for z; no quadrature pass goes through the LU
        eq = self._forced_dense()
        lu_apply = confluent.lu_apply
        calls = []

        def counting(factors, b):
            calls.append(np.shape(b))
            return lu_apply(factors, b)

        monkeypatch.setattr(confluent, "lu_apply", counting)
        solve_full(eq, np.linspace(0.0, 1.0, samples))
        assert len(calls) == 2

    def test_residual_comes_from_the_gate(self, monkeypatch):
        # M is applied to y once, by the residual gate, and the trace
        # carries exactly the residual that gate measured
        rng = np.random.default_rng(33)
        eq = random_spectral_instance(rng, 3, 4, "mixed")
        apply = confluent.BlockOperatorMatrix.apply
        applies = []

        def counting_apply(matrix, ys):
            applies.append(matrix)
            return apply(matrix, ys)

        monkeypatch.setattr(confluent.BlockOperatorMatrix, "apply", counting_apply)
        trace = solve_full(eq, np.array([0.0, 0.5]))
        assert len(applies) == 1
        ys = confluent.solve_coefficients(applies[0], eq.initial_data)
        expected = max(
            float(np.max(np.abs(row - x))) for row, x in zip(apply(applies[0], ys), eq.initial_data)
        )
        assert trace.diagnostics["coefficient_residual"] == expected == ys.residual

    def test_derivative_defect_reruns_no_gate(self, monkeypatch):
        eq = self._forced_dense()
        calls = self._count(monkeypatch)
        initial_derivative_defect(eq)
        assert calls == {"lu": 1, "gate": 0}

    def test_derivative_defect_equals_per_order_solves(self, monkeypatch):
        # n = 6 reaches the widened step (orders 4 and 5) as well as 1e-3;
        # the reference solves each order's stencil grid on its own
        rng = np.random.default_rng(29)
        eq = random_spectral_instance(rng, 6, 3, "mixed")
        worst = 0.0
        for k in range(eq.n):
            offsets = (1e-3 if k <= 3 else 2e-2) * np.arange(k + 4, dtype=np.float64)
            derivative = finite_difference_weights(offsets, k) @ solve_full(eq, offsets).values
            defect = float(np.max(np.abs(derivative - eq.initial_data[k])))
            worst = max(worst, defect / (1.0 + float(np.max(np.abs(eq.initial_data[k])))))
        grids = []

        def recording_solve(eq, t_grid, rule=None):
            grids.append(t_grid)
            return solve_full(eq, t_grid, rule)

        monkeypatch.setattr(solver, "solve_full", recording_solve)
        assert initial_derivative_defect(eq) == worst
        assert [len(g) for g in grids] == [7, 9]


def per_node_convolution(matrix, z, forcing, t, rule):
    """The convolution pass node by node: one weight solve and one semigroup
    call per node, group and k."""
    pts, wts = rule.nodes(0.0, float(t))
    acc = None
    for s, w in zip(pts, wts):
        weights = z.apply_all(forcing(float(s)))
        offset = 0
        for op, mult in matrix.grouped:
            for k in range(mult):
                tau = float(t - s)
                term = w * (tau**k / math.factorial(k)) * op.semigroup(tau, weights[offset + k])
                acc = term if acc is None else acc + term
            offset += mult
    return acc


def per_sample_homogeneous(matrix, ys, times):
    """The homogeneous part sample by sample: one scalar semigroup call per
    sample, group and k."""
    rows = []
    for t in times:
        acc = None
        for (op, mult), offset in zip(matrix.grouped, matrix.offsets):
            for k in range(mult):
                term = (t**k / math.factorial(k)) * op.semigroup(float(t), ys[offset + k])
                acc = term if acc is None else acc + term
        rows.append(acc)
    return np.stack(rows)


def _periodic(speeds, n=16):
    grid = UniformGrid(0.0, 2 * np.pi / n, n)
    x = grid.points()
    ops = [TranslationOperator(f"T{j}", c, grid) for j, c in enumerate(speeds)]
    # zero mean: distinct speeds coincide on the constant mode
    return ops, lambda t: np.sin(x - t) + 0.3 * t * np.cos(2 * x)


def _convolution_case(name):
    """``(grouped, forcing)`` for one backend of the batched-convolution tests."""
    rng = np.random.default_rng(31)
    d = 5
    c0, c1 = rng.standard_normal((2, d))
    real_forcing = lambda t: c0 * np.cos(1.3 * t) + c1 * t  # noqa: E731
    if name in ("spectral-real-forcing", "spectral-complex-forcing"):
        a, b = diag_op("a", rng.uniform(-2, -1, d)), diag_op("b", rng.uniform(0, 0.5, d))
        if name == "spectral-real-forcing":
            return [(a, 2), (b, 1)], real_forcing
        return [(a, 2), (b, 1)], lambda t: real_forcing(t) + 1j * c1 * np.sin(t)
    if name == "periodic-real-speed":
        ops, forcing = _periodic([0.7, -0.4])
        return [(ops[0], 2), (ops[1], 1)], forcing
    if name == "periodic-complex-speed":
        ops, forcing = _periodic([0.7, -0.6 + 0.2j])
        return [(ops[0], 1), (ops[1], 2)], forcing
    if name == "zero-extension":
        grid = UniformGrid(0.0, 0.1, 40)
        x = grid.points()
        op = central_difference_operator("T", 0.6, grid)
        return [(op, 2)], lambda t: np.exp(-((x - 2.0 - 0.2 * t) ** 2))
    if name == "partially-coincident-spectral":
        # mode 0 coincides; the forcing leaves it unexcited
        a = diag_op("a", [-1.0, -2.0, 0.5, -0.4, 0.2])
        b = diag_op("b", [-1.0, 0.8, -1.2, 1.0, -1.5])
        return [(a, 1), (b, 2)], lambda t: np.concatenate([[0.0], real_forcing(t)[1:]])
    if name == "dense-hermitian":
        eq = random_dense_commuting_instance(rng, 3, d, "mixed")
        return eq.grouped, real_forcing
    assert name == "dense-non-hermitian"
    m = 0.3 * rng.standard_normal((d, d)) / np.sqrt(d)
    eye = np.eye(d)
    a = DenseMatrixOperator("a", -1.0 * eye + 0.7 * m)
    b = DenseMatrixOperator("b", 0.3 * eye + 0.5 * m + 0.1 * (m @ m))
    return [(a, 1), (b, 2)], real_forcing


CONVOLUTION_CASES = [
    "spectral-real-forcing",
    "spectral-complex-forcing",
    "periodic-real-speed",
    "periodic-complex-speed",
    "dense-hermitian",
    "dense-non-hermitian",
    "zero-extension",
    "partially-coincident-spectral",
]


class TestBatchedConvolution:
    """One quadrature pass works on all of its nodes at once and keeps the
    per-node result, the per-node error checks and the per-node tolerances."""

    @pytest.mark.parametrize("kind", ["gauss-legendre", "composite-simpson"])
    @pytest.mark.parametrize("case", CONVOLUTION_CASES)
    def test_equals_per_node_loop(self, case, kind):
        # The Simpson rule's last node sits at s = t, i.e. tau = 0.  Sample
        # times of order 1: for t << 1 the forced value is O(t^n) while the
        # terms of either sum are O(t), so both carry roundoff relative to
        # the terms rather than to the value.
        grouped, evaluator = _convolution_case(case)
        matrix = confluent.build_confluent_matrix(grouped)
        z = confluent.solve_z_vector(matrix)
        forcing = Forcing(evaluator)
        rule = QuadratureRule(kind, panels=4, nodes_per_panel=3)
        for t in (0.9, 1.6):
            batched = solver._convolution_value(matrix, z, forcing, t, rule)
            reference = per_node_convolution(matrix, z, forcing, t, rule)
            assert batched.dtype == reference.dtype
            assert np.max(np.abs(batched - reference)) <= 1e-14 * np.max(np.abs(reference))

    @pytest.mark.parametrize("case", CONVOLUTION_CASES)
    def test_homogeneous_part_equals_per_sample_loop(self, case):
        # initial data from the case's forcing, which leaves coincident
        # modes unexcited; the complex forcing gives complex data
        grouped, evaluator = _convolution_case(case)
        factors = tuple(op for op, mult in grouped for _ in range(mult))
        eq = FactoredEquation(factors, tuple(evaluator(0.4 * k + 0.1) for k in range(len(factors))))
        times = np.array([0.0, 0.3, 0.9, 1.6])
        values = solve_full(eq, times).values
        matrix = confluent.build_confluent_matrix(grouped)
        ys = confluent.solve_coefficients(matrix, eq.initial_data)
        reference = per_sample_homogeneous(matrix, ys, times)
        assert values.dtype == reference.dtype
        assert np.max(np.abs(values - reference)) <= 1e-14 * np.max(np.abs(reference))

    def test_semigroup_called_for_homogeneous_part_only(self, monkeypatch):
        grouped, evaluator = _convolution_case("dense-non-hermitian")
        factors = tuple(op for op, mult in grouped for _ in range(mult))
        rng = np.random.default_rng(32)
        eq = FactoredEquation(factors, tuple(rng.standard_normal(5) for _ in factors), Forcing(evaluator))
        calls = []
        semigroup = DenseMatrixOperator.semigroup

        def counting(self, t, v):
            calls.append(t)
            return semigroup(self, t, v)

        monkeypatch.setattr(DenseMatrixOperator, "semigroup", counting)
        t_grid = np.array([0.0, 0.3, 0.8])
        solve_full(eq, t_grid)
        assert all(np.ndim(t) == 1 for t in calls)
        # one array-time call per group for the homogeneous part, and one per
        # group and pass: a coarse and a doubled pass for each sample time after 0
        passes = 2 * (t_grid.size - 1)
        assert len(calls) == (1 + passes) * len(eq.grouped)

    @pytest.mark.parametrize("family", ["spectral", "dense"])
    def test_one_overflowing_row_raises(self, family):
        rule = QuadratureRule()
        t = 1.0
        taus = t - rule.nodes(0.0, t)[0]
        # only the largest tau (the first node) leaves float range
        lam = 2 * 709.8 / (taus[0] + taus[1])
        assert lam * taus[0] > 709.8 > lam * taus[1]
        values = [lam, -1.0]
        op = diag_op("a", values) if family == "spectral" else DenseMatrixOperator("a", np.diag(values))
        matrix = confluent.build_confluent_matrix([(op, 1)])
        z = confluent.solve_z_vector(matrix)
        with pytest.raises(SemigroupOverflowError, match=f"t={taus[0]:.3g}"):
            solver._convolution_value(matrix, z, Forcing(lambda s: np.ones(2)), t, rule)

    @pytest.mark.parametrize("content, raises", [(2e-11, True), (0.5e-11, False)])
    def test_coincident_mode_excited_at_one_node(self, content, raises):
        # mode 0 coincides; node 5 carries `content` there against its own
        # largest entry 1, every other node carries 0 there and 1e3 elsewhere,
        # so one tolerance for the whole pass would miss it
        a = diag_op("a", [-1.0, -2.0, 0.5])
        b = diag_op("b", [-1.0, -0.3, 0.9])
        matrix = confluent.build_confluent_matrix([(a, 1), (b, 1)])
        z = confluent.solve_z_vector(matrix)
        rule = QuadratureRule()
        t = 1.0
        node = rule.nodes(0.0, t)[0][5]

        def evaluator(s):
            return np.array([content, 1.0, 1.0]) if s == node else np.array([0.0, 1e3, 1e3])

        assert content > operators.DEAD_MODE_RTOL or not raises
        if raises:
            with pytest.raises(SingularSystemError):
                solver._convolution_value(matrix, z, Forcing(evaluator), t, rule)
        else:
            assert np.all(np.isfinite(solver._convolution_value(matrix, z, Forcing(evaluator), t, rule)))

    @pytest.mark.parametrize("wrapped", [True, False])
    def test_nan_forcing_at_one_node_raises(self, wrapped):
        grouped, _ = _convolution_case("dense-hermitian")
        matrix = confluent.build_confluent_matrix(grouped)
        z = confluent.solve_z_vector(matrix)
        rule = QuadratureRule()
        node = rule.nodes(0.0, 1.0)[0][7]

        def evaluator(s):
            return np.full(5, np.nan) if s == node else np.ones(5)

        forcing = Forcing(evaluator) if wrapped else evaluator
        with pytest.raises(NonFiniteError):
            solver._convolution_value(matrix, z, forcing, 1.0, rule)

    def test_forcing_length_changing_at_one_node_raises(self):
        grouped, _ = _convolution_case("dense-hermitian")
        matrix = confluent.build_confluent_matrix(grouped)
        z = confluent.solve_z_vector(matrix)
        rule = QuadratureRule()
        node = rule.nodes(0.0, 1.0)[0][7]
        forcing = Forcing(lambda s: np.ones(6 if s == node else 5))
        with pytest.raises(DimensionMismatchError):
            solver._convolution_value(matrix, z, forcing, 1.0, rule)


class TestLemma2:
    def test_zero_generators_base_case(self):
        a = scalar_op("i", 0.0)
        b = scalar_op("j", 0.0)
        x = np.array([2.0])
        out = lemma2_lhs(a, b, 0, 1.5, x)
        assert out[0] == pytest.approx(1.5 * 2.0, rel=1e-12)

    def test_scalar_value(self):
        i_op, j_op = scalar_op("i", 1.0), scalar_op("j", 2.0)
        x = np.array([1.0])
        expected = np.exp(2.0) - np.exp(1.0)
        assert lemma2_lhs(i_op, j_op, 0, 1.0, x)[0] == pytest.approx(expected, rel=1e-10)
        assert lemma2_rhs(i_op, j_op, 0, 1.0, x)[0] == pytest.approx(expected, rel=1e-12)

    def test_linear_weight_base(self):
        a, b = scalar_op("i", 0.0), scalar_op("j", 0.0)
        out = lemma2_lhs(a, b, 1, 1.0, np.array([1.0]))
        assert out[0] == pytest.approx(0.5, rel=1e-12)

    def test_equal_generators_not_invertible(self):
        op = scalar_op("i", 1.0)
        with pytest.raises(NotInvertibleError):
            lemma2_rhs(op, op, 0, 1.0, np.ones(1))

    @pytest.mark.parametrize("k", [0, 1])
    def test_excited_coincident_mode_raises(self, k):
        # distinct periodic speeds coincide on the constant mode, which
        # 1 + sin(x) excites; the convolution there is t * mean(x) != 0
        grid = UniformGrid(0.0, 2 * np.pi / 32, 32)
        i_op = TranslationOperator("i", 1.0, grid)
        j_op = TranslationOperator("j", -0.5, grid)
        x = 1.0 + np.sin(grid.points())
        with pytest.raises(NotInvertibleError):
            lemma2_rhs(i_op, j_op, k, 0.7, x)
        mean_zero = np.sin(grid.points())
        lhs = lemma2_lhs(i_op, j_op, k, 0.7, mean_zero)
        rhs = lemma2_rhs(i_op, j_op, k, 0.7, mean_zero)
        assert np.max(np.abs(lhs - rhs)) <= 1e-7 * (1.0 + np.max(np.abs(lhs)))

    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_identity_on_random_pairs(self, k):
        rng = np.random.default_rng(30 + k)
        for _ in range(5):
            i_op = diag_op("i", rng.uniform(-2.0, -1.0, 4))
            j_op = diag_op("j", rng.uniform(0.0, 1.0, 4))
            x = rng.standard_normal(4)
            t = float(rng.uniform(0.1, 1.0))
            lhs = lemma2_lhs(i_op, j_op, k, t, x)
            rhs = lemma2_rhs(i_op, j_op, k, t, x)
            assert np.max(np.abs(lhs - rhs)) <= 1e-7 * (1.0 + np.max(np.abs(lhs)))

    def test_under_resolved_quadrature_raises(self):
        i_op, j_op = scalar_op("i", -40.0), scalar_op("j", 35.0)
        rule = QuadratureRule("gauss-legendre", panels=1, nodes_per_panel=2)
        with pytest.raises(QuadratureUnderResolvedError):
            lemma2_lhs(i_op, j_op, 0, 1.0, np.ones(1), rule)
