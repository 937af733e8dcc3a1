import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from factored_evolution import (
    DenseMatrixOperator,
    NonFiniteError,
    QuadratureRule,
    SemigroupOverflowError,
    SingularMatrixError,
    expm_apply,
    lu_solve,
    rk4_integrate,
)
from factored_evolution import statespace
from factored_evolution.statespace import finite_difference_weights


class TestLuSolve:
    def test_identity(self):
        x = lu_solve(np.eye(3), np.array([1.0, 2.0, 3.0]))
        assert np.allclose(x, [1.0, 2.0, 3.0], rtol=0, atol=1e-14)

    def test_diagonal(self):
        x = lu_solve(np.diag([2.0, 4.0]), np.array([2.0, 8.0]))
        assert np.allclose(x, [1.0, 2.0], rtol=0, atol=1e-14)

    def test_recovers_known_solution(self):
        # b is constructed from a chosen x*, so recovery is the oracle
        rng = np.random.default_rng(11)
        a = rng.standard_normal((8, 8)) + 8.0 * np.eye(8)
        x_star = rng.standard_normal(8)
        x = lu_solve(a, a @ x_star)
        assert np.max(np.abs(x - x_star)) <= 1e-10 * np.max(np.abs(x_star))

    def test_residual_contract(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            a = rng.standard_normal((6, 6)) + 6.0 * np.eye(6)
            b = rng.standard_normal(6)
            x = lu_solve(a, b)
            bound = 1e-10 * (
                np.max(np.sum(np.abs(a), axis=1)) * np.max(np.abs(x)) + np.max(np.abs(b))
            )
            assert np.max(np.abs(a @ x - b)) <= bound

    def test_singular_raises(self):
        with pytest.raises(SingularMatrixError):
            lu_solve(np.array([[1.0, 0.0], [0.0, 0.0]]), np.ones(2))

    def test_nearly_singular_raises(self):
        a = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-16]])
        with pytest.raises(SingularMatrixError):
            lu_solve(a, np.ones(2))

    def test_singularity_matches_condition_estimate(self):
        singular = np.array([[1.0, 2.0], [2.0, 4.0]])
        with pytest.raises(SingularMatrixError):
            lu_solve(singular, np.ones(2))


class TestExpmApply:
    def test_zero_matrix_is_identity(self):
        v = np.array([1.0, -2.0, 3.0])
        assert np.array_equal(expm_apply(np.zeros((3, 3)), 1.7, v), v)

    def test_diagonal(self):
        out = expm_apply(np.diag([1.0, -1.0]), np.log(2.0), np.array([1.0, 1.0]))
        assert np.allclose(out, [2.0, 0.5], rtol=1e-14, atol=0)

    def test_against_rk4_oracle(self):
        # independent referee: integrate w' = A w with tiny steps
        rng = np.random.default_rng(2)
        a = rng.standard_normal((5, 5))
        a = 0.5 * (a + a.T)
        v = rng.standard_normal(5)
        t = 0.8
        reference = rk4_integrate(lambda _, u: a @ u, v, t, steps=8000)
        assert np.max(np.abs(expm_apply(a, t, v) - reference)) <= 1e-8

    def test_nonsymmetric_against_rk4_oracle(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((4, 4))
        v = rng.standard_normal(4)
        reference = rk4_integrate(lambda _, u: a @ u, v, 0.6, steps=6000)
        assert np.max(np.abs(expm_apply(a, 0.6, v) - reference)) <= 1e-8

    def test_semigroup_law(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((4, 4))
        a = 0.5 * (a + a.T)
        v = rng.standard_normal(4)
        for t, s in rng.uniform(0.0, 2.0, (5, 2)):
            once = expm_apply(a, t + s, v)
            twice = expm_apply(a, s, expm_apply(a, t, v))
            assert np.max(np.abs(once - twice)) <= 1e-9 * max(1.0, np.max(np.abs(once)))

    def test_commuting_exponentials(self):
        rng = np.random.default_rng(6)
        q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        a = q @ np.diag(rng.uniform(-1, 1, 4)) @ q.T
        b = q @ np.diag(rng.uniform(-1, 1, 4)) @ q.T
        v = rng.standard_normal(4)
        ab = expm_apply(a, 0.7, expm_apply(b, 1.1, v))
        ba = expm_apply(b, 1.1, expm_apply(a, 0.7, v))
        assert np.max(np.abs(ab - ba)) <= 1e-9 * max(1.0, np.max(np.abs(ab)))

    def test_overflow_raises(self):
        with pytest.raises(SemigroupOverflowError):
            expm_apply(np.diag([1000.0, 1000.0]), 10.0, np.ones(2))


class TestSkewHermitianAction:
    """Skew-Hermitian generators go through the eigendecomposition of the
    Hermitian ``i a``, not through per-time Pade."""

    def skew(self, kind):
        rng = np.random.default_rng(12)
        b = rng.standard_normal((12, 12))
        if kind == "complex":
            b = b + 1j * rng.standard_normal((12, 12))
        return 0.5 * (b - b.conj().T)

    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_matches_scipy_expm_row_by_row(self, kind):
        a = self.skew(kind)
        action = statespace.expm_action(a)
        assert action.func is statespace._eigh_expm_apply
        rng = np.random.default_rng(13)
        t = np.array([0.3, 1.1, 2.5, 7.0])
        v = rng.standard_normal((t.size, 12)) + 1j * rng.standard_normal((t.size, 12))
        out = action(t, v)
        for t_i, v_i, row in zip(t, v, out):
            reference = scipy.linalg.expm(t_i * a) @ v_i
            assert np.max(np.abs(row - reference)) <= 1e-13 * np.max(np.abs(reference))

    def test_real_inputs_give_float64(self):
        action = statespace.expm_action(self.skew("real"))
        v = np.random.default_rng(14).standard_normal((2, 12))
        t = np.array([0.5, 1.5])
        assert action(t, v).dtype == np.float64
        assert action(t, v.astype(np.complex128)).dtype == np.complex128
        assert statespace.expm_action(self.skew("complex"))(t, v).dtype == np.complex128

    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_t_zero_row_is_exact(self, kind):
        op = DenseMatrixOperator("K", self.skew(kind))
        v = np.random.default_rng(15).standard_normal((3, 12))
        out = op.semigroup(np.array([0.4, 0.0, 1.0]), v)
        assert np.array_equal(out[1], v[1])
        assert np.array_equal(op.semigroup(0.0, v[0]), v[0])


class TestExpmStackCap:
    """Stacked Pade exponentials are chunked at ``EXPM_STACK_ENTRIES``."""

    @staticmethod
    def _non_hermitian(shift, m, d=64, seed=40):
        rng = np.random.default_rng(seed)
        a = shift * np.eye(d) + 0.5 * rng.standard_normal((d, d)) / np.sqrt(d)
        op = DenseMatrixOperator("N", a)
        return op, np.linspace(0.0, 2.0, m), rng.standard_normal((m, d))

    def test_peak_memory_is_capped(self):
        # one 512-matrix stack of d = 64 peaks at 32 MiB, chunks of 2^18
        # entries at 4.4 MiB
        op, taus, vs = self._non_hermitian(-1.0, 512)
        tracemalloc.start()
        try:
            op.semigroup(taus, vs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12 * 2**20

    def test_chunks_equal_one_stack_and_keep_zero_rows(self, monkeypatch):
        op, taus, vs = self._non_hermitian(-1.0, 300)
        zero = np.zeros(taus.size, dtype=bool)
        zero[[0, 100, 299]] = True
        taus[zero] = 0.0
        chunked = op.semigroup(taus, vs)
        monkeypatch.setattr(statespace, "EXPM_STACK_ENTRIES", 2**40)
        assert np.array_equal(chunked, op.semigroup(taus, vs))
        assert np.array_equal(chunked[zero], vs[zero])

    def test_overflow_in_a_later_chunk_raises(self):
        # the spectral abscissa is about 0.44: only the last time overflows
        op, taus, vs = self._non_hermitian(0.0, 300)
        taus[-1] = 5000.0
        assert taus.size > statespace.EXPM_STACK_ENTRIES // op.matrix.size
        assert np.all(np.isfinite(op.semigroup(taus[:-1], vs[:-1])))
        with pytest.raises(SemigroupOverflowError):
            op.semigroup(taus, vs)


class TestRk4:
    def test_constant_solution(self):
        out = rk4_integrate(lambda t, u: np.zeros_like(u), np.array([1.0, 2.0]), 3.7, 10)
        assert np.array_equal(out, [1.0, 2.0])

    def test_scalar_exponential(self):
        out = rk4_integrate(lambda t, u: u, np.array([1.0]), 1.0, 1000)
        assert abs(out[0] - np.e) <= 1e-10

    def test_fourth_order_convergence(self):
        # u' = cos(t) u has solution e^{sin t}; halving h cuts the error ~16x
        exact = np.exp(np.sin(1.0))
        errs = []
        for steps in (100, 200):
            out = rk4_integrate(lambda t, u: np.cos(t) * u, np.array([1.0]), 1.0, steps)
            errs.append(abs(out[0] - exact))
        ratio = errs[0] / errs[1]
        assert 12.0 <= ratio <= 20.0

    def test_nonfinite_raises(self):
        with pytest.raises(NonFiniteError):
            rk4_integrate(lambda t, u: np.full_like(u, np.inf), np.ones(2), 1.0, 4)

    def test_bad_steps_raises(self):
        with pytest.raises(ValueError):
            rk4_integrate(lambda t, u: u, np.ones(1), 1.0, 0)


class TestQuadratureRule:
    @pytest.mark.parametrize(
        "rule",
        [
            QuadratureRule("gauss-legendre", panels=7, nodes_per_panel=4),
            QuadratureRule("composite-simpson", panels=9, nodes_per_panel=3),
        ],
    )
    def test_weights_sum_to_interval(self, rule):
        _, w = rule.nodes(-0.3, 2.1)
        assert abs(np.sum(w) - 2.4) <= 1e-13 * 2.4

    def test_gauss_exact_on_polynomials(self):
        rule = QuadratureRule("gauss-legendre", panels=2, nodes_per_panel=8)
        x, w = rule.nodes(0.0, 1.5)
        for k in range(rule.order):
            exact = 1.5 ** (k + 1) / (k + 1)
            assert abs(np.dot(w, x**k) - exact) <= 1e-12 * exact

    def test_simpson_exact_on_cubics(self):
        rule = QuadratureRule("composite-simpson", panels=3, nodes_per_panel=3)
        x, w = rule.nodes(0.0, 2.0)
        for k in range(4):
            exact = 2.0 ** (k + 1) / (k + 1)
            assert abs(np.dot(w, x**k) - exact) <= 1e-12 * exact

    def test_refined_doubles_panels(self):
        rule = QuadratureRule(panels=4)
        assert rule.refined().panels == 8
        assert rule.refined(3).panels == 12

    def test_empty_interval(self):
        x, w = QuadratureRule().nodes(0.7, 0.7)
        assert x.size == 0 and w.size == 0

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            QuadratureRule("trapezoid")
        with pytest.raises(ValueError):
            QuadratureRule(panels=0)
        with pytest.raises(ValueError):
            QuadratureRule("composite-simpson", nodes_per_panel=5)


class TestFiniteDifferenceWeights:
    def test_first_derivative_of_polynomial(self):
        offsets = np.array([0.0, 1.0, 2.0, 3.0]) * 1e-2
        w = finite_difference_weights(offsets, 1)
        values = 3.0 + 2.0 * offsets + 5.0 * offsets**2
        assert abs(np.dot(w, values) - 2.0) <= 1e-9

    def test_second_derivative(self):
        offsets = np.array([-2.0, -1.0, 0.0, 1.0, 2.0]) * 1e-2
        w = finite_difference_weights(offsets, 2)
        values = np.sin(offsets)
        assert abs(np.dot(w, values) - 0.0) <= 1e-8

    def test_order_bound(self):
        with pytest.raises(ValueError):
            finite_difference_weights([0.0, 1.0], 2)
