import numpy as np
import pytest

from factored_evolution import (
    DenseMatrixOperator,
    FactoredEquation,
    Forcing,
    NotInvertibleError,
    QuadratureRule,
    QuadratureUnderResolvedError,
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

from factored_evolution import confluent, solver
from factored_evolution.statespace import finite_difference_weights

from conftest import (
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
        assert initial_derivative_defect(eq) <= 1e-4

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
