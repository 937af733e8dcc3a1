import numpy as np
import pytest
import scipy.linalg

import math

from factored_evolution import (
    DenseMatrixOperator,
    DimensionMismatchError,
    FactoredEquation,
    Forcing,
    MixedBackendError,
    NonFiniteError,
    NotInvertibleError,
    QuadratureRule,
    QuadratureUnderResolvedError,
    SemigroupOverflowError,
    SingularSystemError,
    SpectralDiagonalOperator,
    TranslationOperator,
    UniformGrid,
    UnsupportedOperationError,
    compare_with_oracle,
    initial_derivative_defect,
    lemma2_lhs,
    lemma2_rhs,
    oracle_solve,
    solve_full,
    solve_homogeneous,
    solve_inhomogeneous_zero_ic,
)

from factored_evolution import confluent, operators, solver, statespace
from factored_evolution.cli import DERIVATIVE_FIDELITY_TOL

from conftest import (
    central_difference_operator,
    defective_operator,
    finite_difference_weights,
    max_rel_dev,
    random_commuting_instance,
    random_dense_commuting_instance,
    random_dense_defective_instance,
    random_dense_polynomial_instance,
    random_smooth_forcing,
    random_spectral_instance,
    random_translation_instance,
    zero_mean_profile,
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
        rule = QuadratureRule(panels=1, nodes_per_panel=2)
        with pytest.raises(QuadratureUnderResolvedError):
            solve_full(eq, np.array([2.0]), rule)

    @pytest.mark.parametrize("omega, rejected", [(183.0, True), (145.0, False)])
    def test_gate_reads_the_true_error_of_a_scalar_convolution(self, omega, rejected):
        # u' = lam u + cos(omega t), u(0) = 0, is the exact integral
        # Re (e^{i omega t} - e^{lam t}) / (i omega - lam).  16 panels of 8
        # Gauss nodes leave a relative error of about 1e-5 at omega = 183 and
        # 1e-7 at omega = 145; the Gauss-Kronrod reading lies within a factor
        # 2 of it, so the first solve is rejected and the second accepted.
        lam, times = -1.0, np.array([0.0, 0.5, 1.0])
        forcing = Forcing(lambda s: np.array([np.cos(omega * s)]))
        eq = FactoredEquation((scalar_op("a", lam),), (np.zeros(1),), forcing)
        exact = ((np.exp(1j * omega * times) - np.exp(lam * times)) / (1j * omega - lam)).real[:, None]
        matrix = confluent.build_confluent_matrix(eq.grouped)
        z = confluent.solve_z_vector(matrix)
        gauss, kronrod = solver._duhamel_pass(z, forcing, times, *solver._interval_runs(QuadratureRule(), times))
        error = np.max(np.abs(gauss - exact)) / np.max(np.abs(exact))
        reading = np.max(np.abs(gauss - kronrod)) / np.max(np.abs(kronrod))
        assert (3e-6 <= error <= 3e-5) if rejected else (3e-8 <= error <= 3e-7)
        assert 0.5 <= reading / error <= 2.0
        if rejected:
            with pytest.raises(QuadratureUnderResolvedError, match=f"differ by {reading:.3e} relative"):
                solve_full(eq, times)
        else:
            trace = solve_full(eq, times)
            assert trace.diagnostics["richardson_rel_dev"] == reading
            assert np.array_equal(trace.values, gauss)

    def test_quadrature_convergence_order(self):
        # a 2-point Gauss panel rule has order 4: doubling panels should cut
        # the error by roughly 16 (required: at least 16/10)
        a = scalar_op("a", -0.5)
        forcing = Forcing(lambda t: np.array([np.cos(2.0 * t)]))
        eq = FactoredEquation((a, a), (np.zeros(1), np.zeros(1)), forcing)
        t_grid = np.array([1.5])
        reference = solve_full(eq, t_grid, QuadratureRule(panels=64, nodes_per_panel=8)).values
        # the Gauss sums of each rule's pass, as the CLI's
        # quadrature-convergence record takes them: no Gauss-Kronrod gate
        matrix = confluent.build_confluent_matrix(eq.grouped)
        z = confluent.solve_z_vector(matrix)
        errs = []
        for panels in (2, 4):
            rule = QuadratureRule(panels=panels, nodes_per_panel=2)
            vals = one_pass(z, forcing, t_grid, rule)
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

    @pytest.mark.parametrize("t_grid", [np.array([0.0, 0.5 + 1j]), [0.0, 0.5 + 1j]], ids=["array", "list"])
    @pytest.mark.parametrize("solve", [solve_full, oracle_solve, compare_with_oracle])
    def test_complex_times_are_refused(self, solve, t_grid):
        # refused before the cast to float, which would keep the real part
        forcing = Forcing(lambda t: np.array([np.cos(t), 1.0]))
        eq = FactoredEquation((diag_op("a", [-1.0, -0.5]),), (np.zeros(2),), forcing)
        with pytest.raises(UnsupportedOperationError, match="real times"):
            solve(eq, t_grid)


class TestFactorizeOnce:
    """``y`` and ``z`` share one factorization, and no solve rebuilds the
    equation (which would rerun the commutation gate).  Non-normal dense
    groups take the LU; Hermitian ones the shared eigenbasis."""

    @staticmethod
    def _count(monkeypatch):
        calls = {"lu": 0, "eigenbasis": 0, "gate": 0}
        lu = confluent.lu_factor_checked
        eigenbasis = confluent._shared_eigenbasis
        gate = FactoredEquation._commutation_gate

        def counting_lu(a):
            calls["lu"] += 1
            return lu(a)

        def counting_eigenbasis(matrix):
            shared = eigenbasis(matrix)
            calls["eigenbasis"] += shared is not None and shared[2] <= confluent.RESIDUAL_RTOL
            return shared

        def counting_gate(grouped):
            calls["gate"] += 1
            return gate(grouped)

        monkeypatch.setattr(confluent, "lu_factor_checked", counting_lu)
        monkeypatch.setattr(confluent, "_shared_eigenbasis", counting_eigenbasis)
        monkeypatch.setattr(FactoredEquation, "_commutation_gate", staticmethod(counting_gate))
        return calls

    def _forced_dense(self, make=random_dense_polynomial_instance):
        rng = np.random.default_rng(28)
        eq = make(rng, 3, 4, "all-distinct", random_smooth_forcing(rng, 4))
        assert isinstance(eq.factors[0], DenseMatrixOperator) and len(eq.grouped) == 3
        assert (eq.factors[0].eig is None) == (make is random_dense_polynomial_instance)
        return eq

    def _forced_hermitian(self):
        return self._forced_dense(random_dense_commuting_instance)

    def test_forced_dense_solve_factors_once(self, monkeypatch):
        eq = self._forced_dense()
        calls = self._count(monkeypatch)
        solve_full(eq, np.array([0.3, 0.8]))
        assert calls == {"lu": 1, "eigenbasis": 0, "gate": 0}

    def test_forced_hermitian_solve_builds_one_eigenbasis_record(self, monkeypatch):
        eq = self._forced_hermitian()
        calls = self._count(monkeypatch)
        solve_full(eq, np.array([0.3, 0.8]))
        assert calls == {"lu": 0, "eigenbasis": 1, "gate": 0}

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

    @pytest.mark.parametrize("samples", [3, 9])
    def test_forced_hermitian_solve_solves_in_the_eigenbasis_twice(self, monkeypatch, samples):
        # y and z are both one value per mode: (n, d, 1) stacks
        eq = self._forced_hermitian()
        mode_solve = confluent._mode_solve
        calls = []

        def counting(*args):
            calls.append(np.shape(args[-1]))
            return mode_solve(*args)

        monkeypatch.setattr(confluent, "_mode_solve", counting)
        monkeypatch.setattr(confluent, "lu_factor_checked", lambda a: pytest.fail("LU factored"))
        solve_full(eq, np.linspace(0.0, 1.0, samples))
        assert calls == [(3, 4, 1), (3, 4, 1)]

    def test_residual_comes_from_the_gate(self, monkeypatch):
        # M is walked on y once, by the residual gate, and the trace carries
        # exactly the residual that gate measured: in the identity basis it
        # is the residual of M applied through operator actions
        rng = np.random.default_rng(33)
        eq = random_spectral_instance(rng, 3, 4, "mixed")
        gate = confluent._residual_gate
        gated = []

        def counting_gate(matrix, *args):
            gated.append(matrix)
            return gate(matrix, *args)

        monkeypatch.setattr(confluent, "_residual_gate", counting_gate)
        trace = solve_full(eq, np.array([0.0, 0.5]))
        assert len(gated) == 1
        ys = confluent.solve_coefficients(gated[0], eq.initial_data)
        expected = max(
            float(np.max(np.abs(row - x))) for row, x in zip(gated[0].apply(ys), eq.initial_data)
        )
        assert trace.diagnostics["coefficient_residual"] == expected == ys.residual

    def test_derivative_defect_reruns_no_gate(self, monkeypatch):
        eq = self._forced_dense()
        calls = self._count(monkeypatch)
        initial_derivative_defect(eq)
        assert calls == {"lu": 1, "eigenbasis": 0, "gate": 0}

    def test_derivative_defect_on_hermitian_groups_builds_one_record(self, monkeypatch):
        eq = self._forced_hermitian()
        calls = self._count(monkeypatch)
        initial_derivative_defect(eq)
        assert calls == {"lu": 0, "eigenbasis": 1, "gate": 0}

    @pytest.mark.parametrize("family", ["spectral", "dense-hermitian", "dense-non-normal", "translation"])
    def test_derivative_defect_reads_the_ansatz_of_the_solve(self, family):
        # every u^(k)(0) the check reads off its circle matches row k of M
        # applied through operator actions to the solve's own y
        rng = np.random.default_rng(29)
        eq = {
            "spectral": lambda: random_spectral_instance(rng, 4, 3, "mixed"),
            "dense-hermitian": lambda: random_dense_commuting_instance(rng, 4, 5, "mixed"),
            "dense-non-normal": lambda: random_dense_polynomial_instance(rng, 4, 5, "mixed"),
            "translation": lambda: random_translation_instance(rng, 4, 32, "mixed"),
        }[family]()
        matrix = confluent.build_confluent_matrix(eq.grouped)
        xs = np.stack(eq.initial_data)
        ys = matrix.basis.from_modes(np.stack(confluent.solve_coefficients(matrix, xs)), xs)
        rows = np.stack(matrix.apply(list(ys)))
        derivatives = solver._initial_derivatives(eq)
        assert derivatives.dtype == rows.dtype
        assert np.max(np.abs(derivatives - rows)) <= 1e-10 * np.max(np.abs(rows))
        assert initial_derivative_defect(eq) <= 1e-9


def wide_translation_pair(seed):
    """Two periodic speeds with multiplicities (2, 2) on 256 points.  Row r
    of ``M`` multiplies a mode's rounding by up to ``|lambda|^r``, and
    ``|lambda|`` reaches about 128 times the speed."""
    rng = np.random.default_rng(seed)
    slow = float(rng.uniform(0.4, 0.8))
    grid = UniformGrid(0.0, 2 * np.pi / 256, 256)
    a = TranslationOperator("A", slow, grid)
    b = TranslationOperator("B", slow + float(rng.uniform(0.5, 1.0)), grid)
    return FactoredEquation((a, a, b, b), tuple(zero_mean_profile(rng, 256) for _ in range(4)))


class TestCoefficientsStayInTheirBasis:
    @pytest.mark.parametrize("seed", range(6))
    def test_wide_translation_pair_solves(self, seed):
        # stored on the grid, y met the data only to about 1e-8 (rounded by
        # eps ||y|| on every mode), and the residual gate rejected all six
        eq = wide_translation_pair(seed)
        trace, _, rel = compare_with_oracle(eq, np.linspace(0.0, 1.0, 11))
        assert rel <= 1e-9
        scale = 1.0 + max(float(np.max(np.abs(x))) for x in eq.initial_data)
        assert trace.diagnostics["coefficient_residual"] <= 1e-12 * scale

    def test_first_sample_is_the_initial_value(self):
        eq = wide_translation_pair(0)
        values = solve_full(eq, np.array([0.0, 0.5])).values
        assert not np.iscomplexobj(values)
        assert np.max(np.abs(values[0] - eq.initial_data[0])) <= 1e-12 * np.max(np.abs(eq.initial_data[0]))


class TestInitialDerivatives:
    """``initial_derivative_defect`` reads ``u^(k)(0)`` off the ansatz of
    the solve on a circle of complex times."""

    @staticmethod
    def _instances():
        rng = np.random.default_rng(61)
        return {
            "spectral": random_spectral_instance(rng, 4, 3, "mixed"),
            "dense": random_dense_commuting_instance(rng, 3, 5, "mixed"),
            "translation": random_translation_instance(rng, 3, 32, "mixed"),
        }

    def test_dense_hermitian_wide_instance_passes(self):
        # one-sided stencils read 6.7e-4 here, against the limit of 1e-4
        eq = random_dense_commuting_instance(np.random.default_rng(30), 4, 64, "mixed")
        assert [mult for _, mult in eq.grouped] == [1, 1, 2]
        assert initial_derivative_defect(eq) <= 1e-9

    @pytest.mark.parametrize("family", ["spectral", "dense", "translation"])
    def test_scaled_coefficients_fail(self, monkeypatch, family):
        eq = self._instances()[family]
        assert initial_derivative_defect(eq) <= 1e-9
        solve = solver.solve_coefficients
        monkeypatch.setattr(solver, "solve_coefficients", lambda m, x: [(1 + 1e-3) * y for y in solve(m, x)])
        assert initial_derivative_defect(eq) > 1e-4

    @pytest.mark.parametrize("family", ["spectral", "dense", "translation"])
    def test_scaled_semigroup_times_fail(self, monkeypatch, family):
        # every group action of the ansatz comes from matrix.propagators(),
        # or for a group that grows its modes by their values from the
        # homogeneous sum's own exp_rows
        eq = self._instances()[family]
        propagators = confluent.BlockOperatorMatrix.propagators
        monkeypatch.setattr(confluent.BlockOperatorMatrix, "propagators", lambda self: [
            lambda t, v, grow=grow: grow(t * (1 + 1e-3), v) for grow in propagators(self)
        ])
        exp_rows = statespace.exp_rows
        monkeypatch.setattr(solver, "exp_rows", lambda values, t, out=None: exp_rows(values, t * (1 + 1e-3), out))
        assert initial_derivative_defect(eq) > 1e-4

    @pytest.mark.parametrize(
        "family", ["spectral", "dense", "dense-diagonalizable", "dense-non-normal", "translation"]
    )
    def test_real_problem_reads_half_the_circle(self, monkeypatch, family):
        # u(conj t) = conj u(t): nodes 0 .. N/2 give the rest.  The same
        # data held as complex take the whole circle.  The non-normal
        # generators are defective, so they count scaled-and-squared
        # exponentials.
        rng = np.random.default_rng(62)
        eq = {
            **self._instances(),
            "dense-diagonalizable": random_dense_polynomial_instance(rng, 3, 16, "mixed"),
            "dense-non-normal": random_dense_defective_instance(rng, 3, 16, "mixed"),
        }[family]
        if family == "dense-non-normal":
            assert all(op.propagate.func is statespace._pade_expm_apply for op, _ in eq.grouped)
        as_complex = FactoredEquation(eq.factors, tuple(x.astype(np.complex128) for x in eq.initial_data))
        assert solver._initial_derivatives(eq).dtype == np.float64
        matrices = []
        expm = scipy.linalg.expm
        monkeypatch.setattr(scipy.linalg, "expm", lambda s: matrices.append(len(s)) or expm(s))
        half = initial_derivative_defect(eq)
        full = initial_derivative_defect(as_complex)
        assert abs(half - full) <= 1e-14
        if family == "dense-non-normal":
            groups = len(eq.grouped)
            assert matrices == [13] * groups + [24] * groups

    def test_complex_times_stay_out_of_the_user_semigroup(self, monkeypatch):
        eq = self._instances()["dense"]
        monkeypatch.setattr(DenseMatrixOperator, "semigroup", lambda *a: pytest.fail("semigroup called"))
        assert initial_derivative_defect(eq) <= 1e-9

    ORDER_10 = {
        "spectral": lambda rng, n: random_spectral_instance(rng, n, 8, "mixed"),
        "dense-hermitian": lambda rng, n: random_dense_commuting_instance(rng, n, 8, "mixed"),
        "dense-polynomial": lambda rng, n: random_dense_polynomial_instance(rng, n, 8, "mixed"),
        "translation": lambda rng, n: random_translation_instance(rng, n, 32, "mixed"),
    }

    @pytest.mark.parametrize("seed", [0, 3, 4])
    def test_order_10_translations_pass(self, seed):
        # a radius set by |lambda| <= 30 on modes the data leave dead read
        # 2.3e-1, 6.5 and 6.8e-2 here, though the oracle agrees to 3e-12
        eq = self.ORDER_10["translation"](np.random.default_rng(seed), 10)
        assert initial_derivative_defect(eq) <= DERIVATIVE_FIDELITY_TOL
        assert compare_with_oracle(eq, [0.0, 0.5])[2] <= 1e-9

    @pytest.mark.parametrize(
        "family, seed, before",
        [
            (family, seed, before)
            for family, readings in {
                "spectral": (1.518e-08, 1.397e-08, 8.606e-08, 2.490e-08),
                "dense-hermitian": (1.338e-08, 2.191e-08, 1.236e-07, 2.140e-07),
                "dense-polynomial": (2.222e-08, 2.559e-08, 1.339e-07, 4.193e-07),
            }.items()
            for seed, before in enumerate(readings)
        ],
    )
    def test_order_10_reads_no_worse_than_a_norm_sized_circle(self, family, seed, before):
        # ``before``: the reading on a circle of radius 4 / max_j ||B_j||_inf
        # with 24 nodes
        eq = self.ORDER_10[family](np.random.default_rng(seed), 10)
        assert initial_derivative_defect(eq) <= 2.0 * before

    @pytest.mark.parametrize("family", list(ORDER_10))
    def test_one_perturbed_row_fails_up_to_order_10(self, monkeypatch, family):
        solve = solver.solve_coefficients
        for n in range(1, 11):
            eq = self.ORDER_10[family](np.random.default_rng(0), n)
            for row in range(n):
                def perturbed(m, x, row=row):
                    y = np.array(solve(m, x))
                    y[row] *= 1 + 1e-3
                    return y

                monkeypatch.setattr(solver, "solve_coefficients", perturbed)
                assert initial_derivative_defect(eq) > DERIVATIVE_FIDELITY_TOL, (n, row)

    @pytest.mark.parametrize("n, nodes", [(1, 24), (3, 24), (4, 28), (10, 50)])
    def test_circle_radius_and_nodes_follow_the_order(self, n, nodes):
        # modes 1-6 of the data excite |lambda| <= 6 |speed|; the grid's
        # modes reach 15 |speed|
        eq = self.ORDER_10["translation"](np.random.default_rng(0), n)
        matrix = confluent.build_confluent_matrix(eq.grouped)
        xs = np.stack(eq.initial_data)
        tau = 6.0 * max(abs(op.speed) for op, _ in eq.grouped)
        rho, count = solver._circle(matrix, xs, n)
        assert count == nodes
        assert rho == pytest.approx(min(1.0, (n - 1) / tau), rel=1e-12)
        assert (rho * tau) ** count / math.factorial(count) <= np.finfo(float).eps


def per_node_convolution(matrix, z, forcing, t, rule, a=0.0, b=None, kronrod=False):
    """The convolution at time ``t`` over the nodes of ``rule`` on ``[a, b]``
    (``b = t`` by default), node by node: one weight solve and one semigroup
    call per node, group and k.  With ``kronrod`` the nodes and weights are
    those of the rule's Gauss-Kronrod layout."""
    b = float(t if b is None else b)
    pts, wts = rule.gauss_kronrod(a, b)[:2] if kronrod else rule.nodes(a, b)
    acc = np.zeros(matrix.dim)
    for s, w in zip(pts, wts):
        weights = z.apply_all(forcing(float(s)))
        offset = 0
        for op, mult in matrix.grouped:
            for k in range(mult):
                tau = float(t - s)
                acc = acc + w * (tau**k / math.factorial(k)) * op.semigroup(tau, weights[offset + k])
            offset += mult
    return acc


def literal_forced_values(matrix, z, forcing, times, rule, kronrod=False):
    """The forced part at every sample time by the literal rule: sample ``t``
    sums, node by node, every node of the sample intervals up to ``t``, with
    the panel counts the marching pass gives those intervals; the Gauss rule,
    or with ``kronrod`` the Kronrod rule."""
    edges, runs = solver._interval_runs(rule, times)
    rules = [r for start, stop, r in runs for _ in range(start, stop)]
    rows = []
    for t in times:
        acc = np.zeros(matrix.dim)
        for r, a, b in zip(rules, edges[:-1], edges[1:]):
            if b <= t:
                acc = acc + per_node_convolution(matrix, z, forcing, t, r, a, b, kronrod)
        rows.append(acc)
    return np.stack(rows)


def one_pass(z, forcing, times, rule, kronrod=False):
    """The Gauss sums, or with ``kronrod`` the Kronrod sums, of the marching
    pass over the sample intervals of ``times``; a bare evaluator is wrapped
    in :class:`Forcing`, as an equation requires."""
    if not isinstance(forcing, Forcing):
        forcing = Forcing(forcing)
    times = np.asarray(times, dtype=np.float64)
    return solver._duhamel_pass(z, forcing, times, *solver._interval_runs(rule, times))[int(kronrod)]


def per_interval_carry_pass(z, forcing, times, rule):
    """The Gauss and the Kronrod sums of the marching pass with its carry
    taken literally: one call of each group's action of width ``D`` on the
    shifted ``(2, S_j, d)`` stack per interval, the shift ``1`` of a group
    of multiplicity 1 included, where :func:`solver._duhamel_pass` lets a
    modal group multiply by one carry row held per run."""
    matrix = z.matrix
    edges, runs = solver._interval_runs(rule, times)
    widths = np.diff(edges)
    mult_max = max(mult for _, mult in matrix.grouped)
    layouts = []
    for start, stop, r in runs:
        width = widths[start]
        xi, wts, gauss, gauss_wts = r.gauss_kronrod(0.0, width)
        powers = np.array([(width - xi) ** k / math.factorial(k) for k in range(mult_max)])
        layouts.append((edges[start:stop, None] + xi, width, xi, gauss, gauss_wts * powers[:, gauss], wts * powers))
    g = forcing.many(np.concatenate([nodes.ravel() for nodes, *_ in layouts]), matrix.dim)
    g_hat = z.modes_of(g)
    blocks = np.split(g_hat, np.cumsum([nodes.size for nodes, *_ in layouts])[:-1])
    h = []
    for (_, mult), grow in zip(matrix.grouped, matrix.propagators()):
        carried, prev = [], np.zeros((2, mult, g_hat.shape[-1]))
        for (nodes, width, xi, gauss, gauss_moments, moments), block in zip(layouts, blocks):
            grown = grow(width - xi, block.reshape(*nodes.shape, -1))
            local = np.stack([gauss_moments[:mult] @ grown.take(gauss, axis=1), moments[:mult] @ grown], axis=1)
            for integral in local:
                prev = grow(np.full(mult, width), solver._binomial_shift(width, mult) @ prev) + integral
                carried.append(prev)
        h.append(np.stack(carried, axis=1))
    at_zero = np.zeros((times.size - widths.size, matrix.dim))
    return tuple(np.concatenate([at_zero, z.weigh(sums, g)]) for sums in np.concatenate(h, axis=2))


def _held_row_case(name):
    """``(grouped, forcing)`` of multiplicities 1, 2 and 3 on a modal family
    for the held-carry-row test."""
    rng = np.random.default_rng(37)
    d = 5
    c0, c1 = rng.standard_normal((2, d))
    if name == "spectral":
        ops = [diag_op(label, center + 0.2 * rng.uniform(-1, 1, d))
               for label, center in zip("abc", (-1.5, -0.3, 0.6))]
        forcing = lambda t: c0 * np.cos(1.3 * t) + c1 * t  # noqa: E731
    elif name == "dense-shared-basis":
        q, _ = np.linalg.qr(rng.standard_normal((d, d)))
        ops = []
        for label, center in zip("abc", (-1.5, -0.3, 0.6)):
            mat = q @ np.diag(center + 0.1 * rng.uniform(-1, 1, d)) @ q.T
            ops.append(DenseMatrixOperator(label, 0.5 * (mat + mat.T)))
        forcing = lambda t: c0 * np.cos(1.3 * t) + c1 * t  # noqa: E731
    else:
        ops, forcing = _periodic([0.7, -0.6 + 0.2j, 0.3] if name == "periodic-complex-speed" else [0.7, -0.4, 1.1])
    return [(op, mult) for op, mult in zip(ops, (1, 2, 3))], forcing


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


MARCHING_GRIDS = {
    "uniform": np.linspace(0.0, 1.6, 5),
    "non-uniform": np.array([0.0, 0.1, 0.5, 0.6, 1.6]),
    "first-sample-after-zero": np.array([0.4, 0.9, 1.6]),
}


class TestBatchedConvolution:
    """One quadrature pass works on all of its nodes at once, marches across
    the sample intervals, and keeps the per-node result, the per-node error
    checks and the per-node tolerances."""

    @pytest.mark.parametrize("kronrod", [False, True])
    @pytest.mark.parametrize("case", CONVOLUTION_CASES)
    def test_equals_per_node_loop(self, case, kronrod):
        # Marching equals the literal rule on the same nodes, for the Gauss
        # and for the Kronrod sums.  Sample times of order 1: for t << 1 the
        # forced value is O(t^n) while the terms of either sum are O(t), so
        # both carry roundoff relative to the terms rather than to the value.
        grouped, evaluator = _convolution_case(case)
        forcing = Forcing(evaluator)
        matrix = confluent.build_confluent_matrix(grouped)
        z = confluent.solve_z_vector(matrix)
        rule = QuadratureRule(panels=4, nodes_per_panel=3)
        for times in MARCHING_GRIDS.values():
            batched = one_pass(z, forcing, times, rule, kronrod)
            reference = literal_forced_values(matrix, z, forcing, times, rule, kronrod)
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
        xs = np.stack(eq.initial_data)
        ys = matrix.basis.from_modes(np.stack(confluent.solve_coefficients(matrix, xs)), xs)
        reference = per_sample_homogeneous(matrix, ys, times)
        assert values.dtype == reference.dtype
        assert np.max(np.abs(values - reference)) <= 1e-14 * np.max(np.abs(reference))

    def test_solve_grows_every_stack_through_propagate(self, monkeypatch):
        grouped, evaluator = _convolution_case("dense-non-hermitian")
        factors = tuple(op for op, mult in grouped for _ in range(mult))
        rng = np.random.default_rng(32)
        eq = FactoredEquation(factors, tuple(rng.standard_normal(5) for _ in factors), Forcing(evaluator))
        calls, actions = [], []
        semigroup = DenseMatrixOperator.semigroup

        def counting(self, t, v):
            calls.append((self.label, t))
            return semigroup(self, t, v)

        def counting_action(op):
            propagate = op.propagate

            def counted(t, v_hat):
                actions.append((op.label, t))
                return propagate(t, v_hat)

            return counted

        monkeypatch.setattr(DenseMatrixOperator, "semigroup", counting)
        for op, _ in eq.grouped:
            monkeypatch.setattr(op, "propagate", counting_action(op))
        t_grid = np.array([0.0, 0.3, 0.8])
        solve_full(eq, t_grid)
        assert all(np.ndim(t) == 1 for _, t in calls + actions)
        labels = sorted(op.label for op, _ in eq.grouped)
        assert not calls
        # per group, through the action: one array-time call for the
        # homogeneous part, and in the Gauss-Kronrod pass one growth per run
        # of intervals of one shape plus one propagator call per sample
        # interval; [0, 0.3] and [0.3, 0.8] differ in width, so each is a run
        # of its own
        intervals = runs = t_grid.size - 1
        assert sorted(label for label, _ in actions) == sorted(labels * (1 + runs + intervals))

    @pytest.mark.parametrize("family", ["spectral", "dense"])
    def test_one_overflowing_row_raises(self, family):
        rule = QuadratureRule()
        t = 1.0
        taus = t - rule.gauss_kronrod(0.0, t)[0]
        # only the largest tau (the first node, a Kronrod one) leaves float
        # range
        lam = 2 * 709.8 / (taus[0] + taus[1])
        assert lam * taus[0] > 709.8 > lam * taus[1]
        values = [lam, -1.0]
        op = diag_op("a", values) if family == "spectral" else DenseMatrixOperator("a", np.diag(values))
        matrix = confluent.build_confluent_matrix([(op, 1)])
        z = confluent.solve_z_vector(matrix)
        with pytest.raises(SemigroupOverflowError, match=f"t={taus[0]:.3g}"):
            one_pass(z, Forcing(lambda s: np.ones(2)), [t], rule)

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
                one_pass(z, Forcing(evaluator), [t], rule)
        else:
            assert np.all(np.isfinite(one_pass(z, Forcing(evaluator), [t], rule)))

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
            one_pass(z, forcing, [1.0], rule)

    def test_forcing_length_changing_at_one_node_raises(self):
        grouped, _ = _convolution_case("dense-hermitian")
        matrix = confluent.build_confluent_matrix(grouped)
        z = confluent.solve_z_vector(matrix)
        rule = QuadratureRule()
        node = rule.nodes(0.0, 1.0)[0][7]
        forcing = Forcing(lambda s: np.ones(6 if s == node else 5))
        with pytest.raises(DimensionMismatchError):
            one_pass(z, forcing, [1.0], rule)


class TestOverflow:
    """An overflowing solve raises a named error, with no numpy warning,
    instead of returning inf."""

    @pytest.mark.parametrize("family", ["spectral", "dense"])
    def test_homogeneous_product_overflow_raises(self, family):
        # e^700 is finite, e^700 * 1e10 is not
        op = scalar_op("A", 700.0) if family == "spectral" else DenseMatrixOperator("A", [[700.0]])
        eq = FactoredEquation((op,), (np.array([1e10]),))
        with pytest.raises(SemigroupOverflowError, match="'A' overflows float range at t=1"):
            solve_full(eq, [0.0, 1.0])

    @pytest.mark.parametrize("family", ["spectral", "dense"])
    def test_forced_product_overflow_raises(self, family):
        op = scalar_op("A", 690.0) if family == "spectral" else DenseMatrixOperator("A", [[690.0]])
        eq = FactoredEquation((op,), (np.zeros(1),), Forcing(lambda t: np.array([1e30])))
        with pytest.raises(NonFiniteError, match="solution"):
            solve_full(eq, [0.0, 1.0])
        with pytest.raises(NonFiniteError):
            oracle_solve(eq, [0.0, 1.0])

    def test_overflow_at_the_first_kronrod_node_fails_the_gate(self):
        # the layout's first node, a Kronrod one, lies nearer s = 0 than the
        # first Gauss node, so its tau grows further: with this forcing only
        # the Kronrod sum overflows, and the NaN reading it leaves fails the
        # Gauss-Kronrod gate while the Gauss sum stays finite
        rule, lam = QuadratureRule(), 700.0
        pts, _, gauss, _ = rule.gauss_kronrod(0.0, 1.0)
        assert pts[0] < pts[gauss[0]]
        taus = [1.0 - pts[0], 1.0 - pts[gauss[0]]]
        value = math.exp(math.log(np.finfo(float).max) - lam * sum(taus) / 2)
        eq = FactoredEquation((scalar_op("a", lam),), (np.zeros(1),), Forcing(lambda t: np.array([value])))
        with pytest.raises(QuadratureUnderResolvedError, match="by nan relative"):
            solve_full(eq, [0.0, 1.0], rule)

    def test_overflowing_carry_row_names_its_group(self):
        # one panel: the offsets reach 0.997 of the width, so e^{710 tau}
        # stays finite at every node and only the carry row e^{710 D}, formed
        # once for the run, overflows
        rule = QuadratureRule(panels=1)
        pts = rule.gauss_kronrod(0.0, 1.0)[0]
        assert 710.0 * (1.0 - pts[0]) < math.log(np.finfo(float).max) < 710.0
        grouped = [(scalar_op("a", -1.0), 1), (scalar_op("g", 710.0), 2)]
        z = confluent.solve_z_vector(confluent.build_confluent_matrix(grouped))
        with pytest.raises(SemigroupOverflowError, match="semigroup of 'g' overflows float range at t=1$"):
            one_pass(z, lambda t: np.ones(1), [0.0, 1.0], rule)


class TestMarching:
    """The forced part marches across the sample intervals: each pass covers
    ``[0, t_last]`` once and carries ``H_jk`` with the exact propagator."""

    @staticmethod
    def interval_panels(runs):
        """The panel count of every interval, read off its run's rule."""
        return [rule.panels for start, stop, rule in runs for _ in range(start, stop)]

    @pytest.mark.parametrize("samples, count", [(5, 4), (9, 2), (17, 1)])
    def test_uniform_grid_gives_every_interval_the_same_panels(self, samples, count):
        # 16 * (0.7 / (samples - 1)) / 0.7 lands a few ulps above `count` on
        # some intervals of linspace(0, 0.7, samples)
        edges, runs = solver._interval_runs(QuadratureRule(), np.linspace(0.0, 0.7, samples))
        assert self.interval_panels(runs) == [count] * (samples - 1)

    def test_no_panel_wider_than_the_widest_of_one_rule_over_the_grid(self):
        rule = QuadratureRule()
        times = np.array([0.0, 0.3, 1.0, 1.05, 2.0])
        edges, runs = solver._interval_runs(rule, times)
        assert self.interval_panels(runs) == [3, 6, 1, 8]
        widths = np.diff(edges) / self.interval_panels(runs)
        assert np.all(widths <= times[-1] / rule.panels * (1 + 1e-12))

    @pytest.mark.parametrize(
        "times, panels",
        [
            (np.linspace(0.0, 1.0, 11), [2] * 10),
            (np.array([0.25, 0.5, 1.0, 2.0]), [2, 2, 4, 8]),
            (np.array([0.0, 0.3, 1.0]), [5, 12]),
        ],
    )
    def test_forcing_called_once_per_node_of_the_pass(self, times, panels):
        calls = []

        def evaluator(t):
            calls.append(t)
            return np.array([np.cos(t), 1.0])

        eq = FactoredEquation(
            (diag_op("a", [-1.0, -0.5]), diag_op("b", [0.2, 0.4])), (np.zeros(2),) * 2, Forcing(evaluator)
        )
        rule = QuadratureRule()
        solve_full(eq, times, rule)
        # p_i panels of q Gauss nodes and q + 1 Kronrod nodes each
        assert len(calls) == sum(p * (2 * rule.nodes_per_panel + 1) for p in panels)

    @staticmethod
    def _count_expm_matrices(monkeypatch, times) -> int:
        """The ``scipy.linalg.expm`` matrices of a forced defective
        ``(A, A, B)`` solve, d = 8, on ``times``."""
        rng = np.random.default_rng(45)
        a = defective_operator("A", -1.0, 0.7, 8)
        b = defective_operator("B", 0.2, 0.9, 8)
        assert a.propagate.func is b.propagate.func is statespace._pade_expm_apply
        data = tuple(rng.standard_normal(8) for _ in range(3))
        c0, c1 = rng.standard_normal(8), rng.standard_normal(8)
        eq = FactoredEquation((a, a, b), data, Forcing(lambda t: c0 + t * c1))
        matrices = []
        expm = scipy.linalg.expm
        monkeypatch.setattr(scipy.linalg, "expm", lambda s: matrices.append(len(s)) or expm(s))
        solve_full(eq, times)
        return sum(matrices)

    def test_repeated_dense_group_exponentiates_once_per_interval(self, monkeypatch):
        # Defective generators take scaled-and-squared exponentials.  The
        # four intervals get 3, 6, 1 and 8 panels of 17 Gauss-Kronrod nodes,
        # each node grown by both groups; the homogeneous part takes 5 times
        # per group.  The group of multiplicity 2 is carried across an
        # interval by one exponential, as the simple group is, for the Gauss
        # and the Kronrod sums at once.
        nodes = 18 * 17
        matrices = self._count_expm_matrices(monkeypatch, np.array([0.0, 0.3, 1.0, 1.05, 2.0]))
        assert matrices == 2 * 5 + 2 * nodes + 2 * 4

    def test_uniform_grid_exponentiates_each_offset_once(self, monkeypatch):
        # Four intervals of 4 panels of 17 nodes: one node layout, so each
        # group grows the forcing with 68 distinct offsets, where every
        # interval of its own would take 272.
        matrices = self._count_expm_matrices(monkeypatch, np.linspace(0.0, 1.0, 5))
        assert matrices == 2 * 5 + 2 * 68 + 2 * 4

    @pytest.mark.parametrize("family", ["spectral", "dense-hermitian"])
    def test_uniform_grid_grows_each_run_from_one_row_of_offsets(self, monkeypatch, family):
        # Four intervals of 4 panels of 17 nodes are one run: each group
        # exponentiates the run's 68 offsets, not 272, besides 5 sample times
        # for the homogeneous part and one carry row for the run, which
        # carries both sums across every interval.
        rng = np.random.default_rng(49)
        make = random_spectral_instance if family == "spectral" else random_dense_commuting_instance
        eq = make(rng, 3, 4, "mixed", random_smooth_forcing(rng, 4))
        assert len(eq.grouped) == 2
        rows = []
        exp_rows = statespace.exp_rows

        def counting(values, t, out=None):
            rows.append(t.size)
            return exp_rows(values, t, out)

        # every exponential is one exp_rows: the homogeneous sum's own, and
        # checked_exp's under each Duhamel growth
        monkeypatch.setattr(solver, "exp_rows", counting)
        monkeypatch.setattr(statespace, "exp_rows", counting)
        solve_full(eq, np.linspace(0.0, 1.0, 5))
        assert sorted(rows) == sorted([5, 68] * 2 + [1, 1])

    @pytest.mark.parametrize(
        "times, calls",
        [
            # the widths lie within 8 ulps of the first
            (np.linspace(0.0, 0.7, 9), 1),
            # the last width is 1e-12 relative off the other three
            (np.array([0.25, 0.5, 0.75, 1.0 + 2.5e-13]), 2),
            # the widths spread over 96 ulps of the first, but under one
            # ulp of the last time
            (np.linspace(0.0, 0.7, 51), 1),
        ],
    )
    def test_intervals_of_one_shape_share_one_nodes_call(self, monkeypatch, times, calls):
        widths = np.diff(np.concatenate([[0.0], times]))
        assert np.unique(widths).size > 1
        seen = []
        layout = QuadratureRule.gauss_kronrod
        monkeypatch.setattr(QuadratureRule, "gauss_kronrod", lambda r, a, b: seen.append(r) or layout(r, a, b))
        forcing = Forcing(lambda t: np.array([np.cos(t), 1.0]))
        eq = FactoredEquation((diag_op("a", [-1.0, -0.5]),), (np.zeros(2),), forcing)
        solve_full(eq, times)
        # one Gauss-Kronrod layout per shape
        assert len(seen) == calls

    def test_one_pass_takes_the_runs_on_a_non_uniform_grid(self, monkeypatch):
        # a forced solve makes one pass, over the runs of equal width and
        # panel count, each with its own panel count
        passes = []
        duhamel_pass = solver._duhamel_pass
        monkeypatch.setattr(
            solver, "_duhamel_pass", lambda *args: passes.append(args[-1]) or duhamel_pass(*args)
        )
        forcing = Forcing(lambda t: np.array([np.cos(t), 1.0]))
        eq = FactoredEquation((diag_op("a", [-1.0, -0.5]),), (np.zeros(2),), forcing)
        solve_full(eq, np.array([0.0, 0.3, 0.6, 0.9, 1.0, 1.05, 1.1, 2.0, 2.9]))
        (runs,) = passes
        assert [(start, stop) for start, stop, _ in runs] == [(0, 3), (3, 4), (4, 6), (6, 8)]
        assert [r.panels for *_, r in runs] == [2, 1, 1, 5]

    @pytest.mark.parametrize("case", CONVOLUTION_CASES)
    def test_shared_layouts_on_a_mixed_grid_equal_the_literal_rule(self, case):
        # four equal intervals share one layout, the last is wider
        grouped, evaluator = _convolution_case(case)
        matrix = confluent.build_confluent_matrix(grouped)
        z = confluent.solve_z_vector(matrix)
        forcing = Forcing(evaluator)
        rule = QuadratureRule(panels=4, nodes_per_panel=3)
        times = np.array([0.0, 0.25, 0.5, 0.75, 1.0, 1.3])
        marched = one_pass(z, forcing, times, rule)
        reference = literal_forced_values(matrix, z, forcing, times, rule)
        assert marched.dtype == reference.dtype
        assert np.max(np.abs(marched - reference)) <= 1e-14 * np.max(np.abs(reference))

    @pytest.mark.parametrize(
        "times", [np.linspace(0.0, 1.0, 5), np.array([0.0, 0.25, 0.5, 0.75, 1.0, 1.3])], ids=["uniform", "mixed"]
    )
    @pytest.mark.parametrize(
        "case", ["spectral", "dense-shared-basis", "periodic-real-speed", "periodic-complex-speed"]
    )
    def test_held_carry_row_equals_the_per_interval_action(self, case, times):
        # a modal group multiplies by e^{D lambda}, formed once per run: both
        # sums are those of one action of width D per interval, bit for bit
        grouped, evaluator = _held_row_case(case)
        matrix = confluent.build_confluent_matrix(grouped)
        assert matrix.basis.fourier or matrix.growth_values is not None
        z = confluent.solve_z_vector(matrix)
        forcing = Forcing(evaluator)
        rule = QuadratureRule()
        held = solver._duhamel_pass(z, forcing, times, *solver._interval_runs(rule, times))
        literal = per_interval_carry_pass(z, forcing, times, rule)
        for value, reference in zip(held, literal):
            assert value.dtype == reference.dtype
            assert np.array_equal(value, reference)

    def test_grid_at_zero_only_makes_no_forcing_call(self):
        calls = []

        def evaluator(t):
            calls.append(t)
            return np.ones(2)

        eq = FactoredEquation((diag_op("a", [-1.0, 0.5]),), (np.zeros(2),), Forcing(evaluator))
        trace = solve_full(eq, np.array([0.0]))
        assert np.array_equal(trace.values, np.zeros((1, 2)))
        assert calls == []

    def test_panel_counts_at_the_float_limit(self):
        # panels * width / t_last overflowed at t_last = 1e308 and gave a
        # negative panel count; the ratio comes first, so every interval
        # gets its count and the overflowing nodes fail by name
        eq = FactoredEquation((diag_op("a", [-1.0, -2.0]),), (np.zeros(2),), Forcing(lambda t: np.ones(2)))
        _, runs = solver._interval_runs(QuadratureRule(), np.array([0.0, 1e307, 1e308]))
        assert [rule.panels for _, _, rule in runs] == [2, 15]
        with pytest.raises(SemigroupOverflowError):
            solve_full(eq, np.array([0.0, 1e308]))


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

    @pytest.mark.parametrize("k", [0, 1, 2, 3])
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

    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    @pytest.mark.parametrize("family", ["dense-hermitian", "dense-non-normal", "dense-defective"])
    def test_identity_on_dense_pairs(self, monkeypatch, family, k):
        # the left side's pass grows the forcing through the semigroup of
        # A_j, so each dense action is reached: the unitary eigenbasis, a
        # non-unitary one, and scaling and squaring for a Jordan block
        rng = np.random.default_rng(40 + k)
        make = {
            "dense-hermitian": random_dense_commuting_instance,
            "dense-non-normal": random_dense_polynomial_instance,
            "dense-defective": random_dense_defective_instance,
        }[family]
        (i_op, _), (j_op, _) = make(rng, 2, 6, "all-distinct").grouped
        action = statespace._pade_expm_apply if family == "dense-defective" else statespace._eigvec_expm_apply
        assert {op.propagate.func for op in (i_op, j_op)} == {action}
        assert (i_op.eig is None) == (family != "dense-hermitian")
        matrices = []
        expm = scipy.linalg.expm
        monkeypatch.setattr(scipy.linalg, "expm", lambda s: matrices.append(len(s)) or expm(s))
        x = rng.standard_normal(6)
        lhs = lemma2_lhs(i_op, j_op, k, 0.7, x)
        assert bool(matrices) == (family == "dense-defective")
        rhs = lemma2_rhs(i_op, j_op, k, 0.7, x)
        assert np.max(np.abs(lhs - rhs)) <= 1e-7 * (1.0 + np.max(np.abs(lhs)))

    def test_time_and_order_rules(self):
        # a negative or non-finite t is no interval; t = 0 is the empty one;
        # k + 1 repeated factors are capped as any equation's order is
        i_op, j_op = diag_op("i", [-1.0, 0.5]), diag_op("j", [0.3, -2.0])
        x = np.array([1.0, -2.0])
        for t in (-0.5, -np.inf, np.nan):
            with pytest.raises(ValueError, match="t must be"):
                lemma2_lhs(i_op, j_op, 0, t, x)
        assert np.array_equal(lemma2_lhs(i_op, j_op, 2, 0.0, x), np.zeros(2))
        assert np.array_equal(lemma2_rhs(i_op, j_op, 2, 0.0, x), np.zeros(2))
        with pytest.raises(UnsupportedOperationError):
            lemma2_lhs(i_op, j_op, confluent.MAX_ORDER, 0.5, x)

    @pytest.mark.parametrize("side", [lemma2_lhs, lemma2_rhs], ids=["lhs", "rhs"])
    @pytest.mark.parametrize(
        "j_op, k, t, error",
        [
            (diag_op("j", [0.3, -2.0]), -1, 0.5, ValueError),
            (diag_op("j", [0.3, -2.0]), 1.5, 0.5, ValueError),
            (diag_op("j", [0.3, -2.0]), 1.0, 0.5, ValueError),
            (diag_op("j", [0.3, -2.0]), True, 0.5, ValueError),
            (diag_op("j", [0.3, -2.0]), confluent.MAX_ORDER, 0.5, UnsupportedOperationError),
            (diag_op("j", [0.3, -2.0]), 40, 0.5, UnsupportedOperationError),
            (diag_op("j", [0.3, -2.0]), 0, -1.0, ValueError),
            (diag_op("j", [0.3, -2.0]), 0, np.nan, ValueError),
            (diag_op("j", [0.3, -2.0]), 0, np.inf, ValueError),
            # refused before a cast keeps the real part
            (diag_op("j", [0.3, -2.0]), 0, np.complex128(0.5 + 1j), UnsupportedOperationError),
            (diag_op("j", [0.3, -2.0]), 0, 0.5 + 1j, UnsupportedOperationError),
            (DenseMatrixOperator("j", np.diag([0.3, -2.0])), 0, 0.5, MixedBackendError),
            (diag_op("j", [0.3, -2.0, 1.0]), 0, 0.5, DimensionMismatchError),
        ],
        ids=["k-negative", "k-fraction", "k-float", "k-bool", "order-past-the-cap", "k-40", "t-negative",
             "t-nan", "t-inf", "t-complex-numpy", "t-complex-python", "mixed-families", "other-dimension"],
    )
    def test_both_sides_refuse_the_same_arguments(self, side, j_op, k, t, error):
        with pytest.raises(error):
            side(diag_op("i", [-1.0, 0.5]), j_op, k, t, np.array([1.0, -2.0]))

    @pytest.mark.parametrize("k", [2, 3])
    def test_rhs_past_float_range_raises_a_named_error(self, k):
        # t^k / k! leaves float range at t = 1e160 while the semigroups
        # decay to 0
        i_op, j_op = diag_op("a", [-1.0, -2.0]), diag_op("b", [-0.5, -3.0])
        with pytest.raises(NonFiniteError, match="convolution"):
            lemma2_rhs(i_op, j_op, k, 1e160, np.array([1.0, -1.0]))

    def test_dense_difference_is_factored_once(self, monkeypatch):
        # k = 3 applies (A_j - A_i)^{-1} five times through one LU, and
        # equals the value of one factorization per application
        rng = np.random.default_rng(34)
        eq = random_dense_polynomial_instance(rng, 2, 4, "all-distinct")
        (i_op, _), (j_op, _) = eq.grouped
        x = rng.standard_normal(4)
        factored = []
        lu = operators.lu_factor_checked
        monkeypatch.setattr(operators, "lu_factor_checked", lambda diff: factored.append(1) or lu(diff))
        value = lemma2_rhs(i_op, j_op, 3, 0.7, x)
        assert len(factored) == 1
        resolvent = lambda v: operators.resolvent_solve(j_op, i_op)(v)  # noqa: E731
        reference = i_op.semigroup(0.7, x)
        lead = resolvent(j_op.semigroup(0.7, x))
        for m in range(4):
            reference = (0.7**m / math.factorial(m)) * lead - resolvent(reference)
        assert len(factored) == 1 + 5
        assert np.array_equal(value, reference)

    def test_overflowing_value_raises_a_named_error(self):
        # the weighted sum of values near the float limit overflows
        with pytest.raises(NonFiniteError, match="convolution"):
            lemma2_lhs(scalar_op("a", 0.0), scalar_op("b", 1e-3), 0, 1.5, np.array([1.7e308]))

    def test_under_resolved_quadrature_raises(self):
        # e^{6000 i s} turns about 950 times over [0, 1]: 16 panels of 8
        # Gauss nodes under-resolve it, and doubling them moves the value
        i_op = SpectralDiagonalOperator("i", [3000j])
        j_op = SpectralDiagonalOperator("j", [-3000j])
        with pytest.raises(QuadratureUnderResolvedError):
            lemma2_lhs(i_op, j_op, 0, 1.0, np.ones(1))


def per_group_sum(matrix, y, taus, like):
    """The homogeneous sum group by group: one call of each group's action
    from ``matrix.propagators()`` on a fresh contiguous stack, its exact
    ``tau = 0`` rows, each group's rows checked on their own, summed in
    group order and taken back once."""
    basis = matrix.basis
    kept = basis.kept_modes(like)
    zero = taus == 0
    acc = None
    for (op, mult), offset, grow in zip(matrix.grouped, matrix.offsets, matrix.propagators()):
        p = np.ascontiguousarray(np.broadcast_to(y[offset][:kept], (taus.size, kept)))
        if mult > 1:
            p = sum((taus**k / math.factorial(k))[:, None] * y[offset + k][:kept] for k in range(mult))
        grown = grow(taus, p)
        grown[zero] = p[zero]
        statespace.checked_rows(grown, taus, f"semigroup of {op.label!r}")
        acc = grown if acc is None else acc + grown
    return basis.from_modes(acc, like)


class TestSemigroupSum:
    """Groups that grow their modes by their values share one scratch stack
    and the sum is checked once; the rows are those of a group-by-group sum
    bit for bit, and an overflow still names its group and time."""

    @staticmethod
    def _instance(family):
        rng = np.random.default_rng(71)
        return {
            "spectral": lambda: random_spectral_instance(rng, 5, 6, "mixed"),
            "spectral-complex": lambda: FactoredEquation(
                (diag_op("A", [-1.0, -0.5, 0.2]), diag_op("A", [-1.0, -0.5, 0.2]),
                 SpectralDiagonalOperator("B", [0.3 + 1j, -2.0 + 0.5j, 1.1j])),
                tuple(rng.standard_normal(3) for _ in range(3)),
            ),
            "translation": lambda: random_translation_instance(rng, 4, 32, "mixed"),
            "dense-shared": lambda: random_dense_commuting_instance(rng, 5, 6, "mixed"),
            "dense-grid": lambda: random_dense_polynomial_instance(rng, 4, 5, "mixed"),
        }[family]()

    @pytest.mark.parametrize(
        "family", ["spectral", "spectral-complex", "translation", "dense-shared", "dense-grid"]
    )
    def test_bit_identical_to_the_group_by_group_sum(self, family):
        eq = self._instance(family)
        matrix = confluent.build_confluent_matrix(eq.grouped)
        assert max(mult for _, mult in eq.grouped) > 1 and len(eq.grouped) > 1
        shared = matrix.basis.unitary is not None
        assert shared == (family == "dense-shared")
        assert (matrix.growth_values is not None) == (family in ("spectral", "spectral-complex", "dense-shared"))
        xs = np.stack(eq.initial_data)
        ys = np.array(confluent.solve_coefficients(matrix, xs))
        times = np.linspace(0.0, 1.0, 7)
        circle = 0.8 * np.exp(2j * np.pi * np.arange(13) / 24)
        for y, taus, like in ((ys, times, xs), (ys.astype(np.complex128), circle, ys.astype(np.complex128))):
            out, reference = solver._semigroup_sum(matrix, y, taus, like), per_group_sum(matrix, y, taus, like)
            assert out.dtype == reference.dtype
            assert np.ascontiguousarray(out).tobytes() == np.ascontiguousarray(reference).tobytes()

    def test_overflow_in_the_second_group_names_it_and_its_first_bad_time(self):
        # B first overflows at t = 0.9 (800 t > 709.8); C would at t = 0.5,
        # but the first bad group in order is named, at its own first bad time
        a = diag_op("A", [-1.0, -2.0])
        b = diag_op("B", [0.5, 800.0])
        c = diag_op("C", [1500.0, 0.25])
        eq = FactoredEquation((a, b, c), (np.ones(2), np.array([1.0, -1.0]), np.array([0.5, 2.0])))
        times = np.array([0.0, 0.3, 0.5, 0.9, 1.0])
        with pytest.raises(SemigroupOverflowError, match=r"^semigroup of 'B' overflows float range at t=0\.9$"):
            solve_full(eq, times)
        matrix = confluent.build_confluent_matrix(eq.grouped)
        ys = confluent.solve_coefficients(matrix, eq.initial_data)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(SemigroupOverflowError) as reference:
            per_group_sum(matrix, ys, times, np.stack(eq.initial_data))
        assert "'B'" in str(reference.value) and "t=0.9" in str(reference.value)

    def test_finite_rows_whose_sum_overflows_fail_the_solution_check(self):
        # e^709 and e^709.5 times y = (1, 1) are finite, their sum is not
        eq = FactoredEquation((scalar_op("A", 709.0), scalar_op("B", 709.5)), (np.array([2.0]), np.array([1418.5])))
        with pytest.raises(NonFiniteError, match="solution"):
            solve_full(eq, [0.0, 1.0])


def _real_translation_problem(d, mults, speeds=(0.7, -1.3, 0.45), forced=False, complex_data=False, seed=0):
    """Translations with the given multiplicities on a d-point periodic
    grid, and data exciting every mode but the constant and Nyquist ones,
    where distinct speeds coincide."""
    rng = np.random.default_rng([seed, d, *mults])
    grid = UniformGrid(0.0, 2.0 * np.pi / d, d)
    factors = []
    for j, mult in enumerate(mults):
        factors += [TranslationOperator(f"T{j}", speeds[j], grid)] * mult

    def profile():
        v_hat = np.fft.fft(rng.standard_normal(d) + (1j * rng.standard_normal(d) if complex_data else 0.0))
        v_hat[0] = 0.0
        if d % 2 == 0:
            v_hat[d // 2] = 0.0
        v = np.fft.ifft(v_hat)
        return v if complex_data else v.real

    data = tuple(profile() for _ in factors)
    forcing = None
    if forced:
        c0, c1 = profile(), profile()
        forcing = Forcing(lambda t: c0 * np.cos(1.3 * t) + c1 * t, vectorized=True)
    return FactoredEquation(tuple(factors), data, forcing)


def _full_spectrum_homogeneous(eq, times):
    """``sum_j sum_k (t^k/k!) ifft(exp(outer(t, lambda_j)) * y_jk)`` over
    every Fourier mode, from the solver's own coefficients."""
    matrix = confluent.build_confluent_matrix(eq.grouped)
    ys = confluent.solve_coefficients(matrix, eq.initial_data)
    acc = 0.0
    for (op, mult), offset in zip(matrix.grouped, matrix.offsets):
        grow = np.exp(np.multiply.outer(times, op.modal_values))
        for k in range(mult):
            acc = acc + (times**k / math.factorial(k))[:, None] * grow * ys[offset + k]
    out = np.fft.ifft(acc, axis=-1)
    return out if np.iscomplexobj(np.stack(eq.initial_data)) or np.iscomplexobj(eq.factors[0].speed) else out.real


def _propagated_widths(monkeypatch):
    """The mode counts of every stack a translation propagates."""
    widths = []
    propagate = TranslationOperator.propagate
    monkeypatch.setattr(
        TranslationOperator, "propagate", lambda self, t, v_hat: widths.append(v_hat.shape[-1]) or propagate(self, t, v_hat)
    )
    return widths


class TestHalfSpectrum:
    """A real periodic output assembles in its modes 0 .. d//2 and goes
    back by irfft; complex data or speeds keep every mode."""

    TIMES = np.array([0.0, 0.05, 0.4, 1.0])

    @pytest.mark.parametrize("d", [63, 64, 65])
    @pytest.mark.parametrize("mults", [(1,), (2,), (3,), (1, 1), (2, 1), (1, 3), (1, 2, 1)])
    def test_homogeneous_matches_the_full_spectrum(self, monkeypatch, d, mults):
        eq = _real_translation_problem(d, mults)
        widths = _propagated_widths(monkeypatch)
        values = solve_full(eq, self.TIMES).values
        assert values.dtype == np.float64
        assert set(widths) == {d // 2 + 1}
        reference = _full_spectrum_homogeneous(eq, self.TIMES)
        assert max_rel_dev(values, reference) <= 1e-14
        assert np.max(np.abs(values[0] - eq.initial_data[0])) <= 1e-14 * np.max(np.abs(eq.initial_data[0]))

    @pytest.mark.parametrize("d", [63, 64, 65])
    @pytest.mark.parametrize("mults", [(1,), (2,), (3,), (1, 1), (2, 1), (1, 2, 1)])
    def test_forced_matches_the_full_spectrum(self, monkeypatch, d, mults):
        eq = _real_translation_problem(d, mults, forced=True)
        widths = _propagated_widths(monkeypatch)
        values = solve_full(eq, self.TIMES).values
        assert values.dtype == np.float64
        assert set(widths) == {d // 2 + 1}
        monkeypatch.setattr(operators.ModeBasis, "kept_modes", lambda self, like: like.shape[-1])
        reference = solve_full(eq, self.TIMES).values
        assert set(widths) == {d // 2 + 1, d}
        assert max_rel_dev(values, reference) <= 1e-14

    @pytest.mark.parametrize("d", [63, 64])
    def test_semigroup_keeps_half_the_modes_and_exact_rows_at_zero(self, monkeypatch, d):
        op = TranslationOperator("T", 0.8, UniformGrid(0.0, 2.0 * np.pi / d, d))
        v = np.random.default_rng(d).standard_normal((4, d))
        t = np.array([0.0, 0.3, 0.0, 1.7])
        widths = _propagated_widths(monkeypatch)
        rows = op.semigroup(t, v)
        assert widths == [d // 2 + 1] and rows.dtype == np.float64
        assert np.array_equal(rows[[0, 2]], v[[0, 2]])
        reference = np.fft.ifft(np.exp(np.multiply.outer(t, op.modal_values)) * np.fft.fft(v), axis=-1).real
        assert max_rel_dev(rows, reference) <= 1e-14
        assert np.array_equal(op.semigroup(0.0, v[1]), v[1])

    @pytest.mark.parametrize("d", [63, 64])
    def test_complex_data_on_a_real_speed_keeps_every_mode(self, monkeypatch, d):
        eq = _real_translation_problem(d, (2, 1), complex_data=True)
        widths = _propagated_widths(monkeypatch)
        values = solve_full(eq, self.TIMES).values
        assert set(widths) == {d}
        assert np.iscomplexobj(values) and np.max(np.abs(values.imag)) > 0.1
        assert max_rel_dev(values, _full_spectrum_homogeneous(eq, self.TIMES)) <= 1e-14
        op = eq.factors[0]
        widths.clear()
        op.semigroup(0.4, eq.initial_data[0])
        assert widths == [d]

    def test_complex_speed_keeps_every_mode(self, monkeypatch):
        d = 32
        grid = UniformGrid(0.0, 2.0 * np.pi / d, d)
        a, b = TranslationOperator("a", 1.0 + 0.05j, grid), TranslationOperator("b", -0.6 + 0.02j, grid)
        x = grid.points()
        eq = FactoredEquation((a, b), (np.sin(x), np.cos(2 * x)))
        widths = _propagated_widths(monkeypatch)
        values = solve_full(eq, self.TIMES).values
        assert set(widths) == {d} and np.iscomplexobj(values)
        assert max_rel_dev(values, _full_spectrum_homogeneous(eq, self.TIMES)) <= 1e-14
        widths.clear()
        a.semigroup(0.4, np.sin(x))
        assert widths == [d]

    def test_kept_modes_rule(self):
        real, spectral = operators.ModeBasis(fourier=True), operators.ModeBasis(fourier=False)
        complex_speed = operators.ModeBasis(fourier=True, real=False)
        for d in (63, 64, 65):
            assert real.kept_modes(np.zeros(d)) == d // 2 + 1
            assert real.kept_modes(np.zeros((3, d), dtype=complex)) == d
            assert complex_speed.kept_modes(np.zeros(d)) == d
            assert spectral.kept_modes(np.zeros(d)) == d
