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
    rk4_integrate,
    solve_full,
)
from factored_evolution import statespace
from factored_evolution.statespace import lu_apply, lu_factor_checked
from factored_evolution.equation import build_companion
from conftest import (
    defective_operator,
    finite_difference_weights,
    random_dense_commuting_instance,
    random_dense_polynomial_instance,
)


class TestLuSolve:
    def test_identity(self):
        x = lu_apply(lu_factor_checked(np.eye(3)), np.array([1.0, 2.0, 3.0]))
        assert np.allclose(x, [1.0, 2.0, 3.0], rtol=0, atol=1e-14)

    def test_diagonal(self):
        x = lu_apply(lu_factor_checked(np.diag([2.0, 4.0])), np.array([2.0, 8.0]))
        assert np.allclose(x, [1.0, 2.0], rtol=0, atol=1e-14)

    def test_recovers_known_solution(self):
        # b is constructed from a chosen x*, so recovery is the oracle
        rng = np.random.default_rng(11)
        a = rng.standard_normal((8, 8)) + 8.0 * np.eye(8)
        x_star = rng.standard_normal(8)
        x = lu_apply(lu_factor_checked(a), a @ x_star)
        assert np.max(np.abs(x - x_star)) <= 1e-10 * np.max(np.abs(x_star))

    def test_residual_contract(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            a = rng.standard_normal((6, 6)) + 6.0 * np.eye(6)
            b = rng.standard_normal(6)
            x = lu_apply(lu_factor_checked(a), b)
            bound = 1e-10 * (
                np.max(np.sum(np.abs(a), axis=1)) * np.max(np.abs(x)) + np.max(np.abs(b))
            )
            assert np.max(np.abs(a @ x - b)) <= bound

    def test_singular_raises(self):
        with pytest.raises(SingularMatrixError):
            lu_apply(lu_factor_checked(np.array([[1.0, 0.0], [0.0, 0.0]])), np.ones(2))

    def test_nearly_singular_raises(self):
        a = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-16]])
        with pytest.raises(SingularMatrixError):
            lu_apply(lu_factor_checked(a), np.ones(2))

    def test_singularity_matches_condition_estimate(self):
        singular = np.array([[1.0, 2.0], [2.0, 4.0]])
        with pytest.raises(SingularMatrixError):
            lu_apply(lu_factor_checked(singular), np.ones(2))


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
        action = statespace.expm_action(a, statespace.unitary_eigh(a))
        assert action.func is statespace._eigvec_expm_apply
        rng = np.random.default_rng(13)
        t = np.array([0.3, 1.1, 2.5, 7.0])
        v = rng.standard_normal((t.size, 12)) + 1j * rng.standard_normal((t.size, 12))
        out = action(t, v)
        for t_i, v_i, row in zip(t, v, out):
            reference = scipy.linalg.expm(t_i * a) @ v_i
            assert np.max(np.abs(row - reference)) <= 1e-13 * np.max(np.abs(reference))

    def test_real_inputs_give_float64(self):
        a = self.skew("real")
        action = statespace.expm_action(a, statespace.unitary_eigh(a))
        v = np.random.default_rng(14).standard_normal((2, 12))
        t = np.array([0.5, 1.5])
        assert action(t, v).dtype == np.float64
        assert action(t, v.astype(np.complex128)).dtype == np.complex128
        a = self.skew("complex")
        assert statespace.expm_action(a, statespace.unitary_eigh(a))(t, v).dtype == np.complex128

    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_t_zero_row_is_exact(self, kind):
        op = DenseMatrixOperator("K", self.skew(kind))
        v = np.random.default_rng(15).standard_normal((3, 12))
        out = op.semigroup(np.array([0.4, 0.0, 1.0]), v)
        assert np.array_equal(out[1], v[1])
        assert np.array_equal(op.semigroup(0.0, v[0]), v[0])


def close_to_expm(a, t, v, out, rtol=1e-13):
    """Each row of ``out`` is ``scipy.linalg.expm(t_i a) @ v_i`` to ``rtol``
    of the larger of that row's input and output: scaling and squaring
    itself loses relative digits on a decaying row."""
    for t_i, v_i, row in zip(t, v, out):
        reference = scipy.linalg.expm(t_i * a) @ v_i
        scale = max(np.max(np.abs(reference)), np.max(np.abs(v_i)))
        assert np.max(np.abs(row - reference)) <= rtol * scale


class TestEigenvectorAction:
    """Diagonalizable non-normal generators act through the eigenvectors
    of ``np.linalg.eig`` when those are well conditioned."""

    @staticmethod
    def action(a):
        action = statespace.expm_action(a, statespace.unitary_eigh(a))
        assert action.func is statespace._eigvec_expm_apply
        return action

    @staticmethod
    def complex_matrix(d=12):
        rng = np.random.default_rng(16)
        return (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2 * d) - 0.3 * np.eye(d)

    @staticmethod
    def rotating_matrix(d=10):
        """A real matrix whose eigenpairs are complex."""
        a = np.random.default_rng(17).standard_normal((d, d)) / np.sqrt(d)
        assert np.any(np.linalg.eigvals(a).imag != 0.0)
        return a

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("d", [8, 32, 128])
    def test_dense_polynomials_match_scipy_expm(self, d, seed):
        eq = random_dense_polynomial_instance(np.random.default_rng(seed), 2, d, "all-distinct")
        rng = np.random.default_rng(seed)
        t = np.array([0.1, 0.7, 1.5, 3.0])
        for op, _ in eq.grouped:
            assert op.eig is None and op.propagate.func is statespace._eigvec_expm_apply
            v = rng.standard_normal((t.size, d))
            out = op.propagate(t, v)
            assert out.dtype == np.float64
            close_to_expm(op.matrix, t, v, out)

    def test_complex_non_normal_matrix_matches_scipy_expm(self):
        a = self.complex_matrix()
        rng = np.random.default_rng(18)
        t = np.array([0.2, 0.9, 2.0, 4.0])
        v = rng.standard_normal((t.size, 12)) + 1j * rng.standard_normal((t.size, 12))
        close_to_expm(a, t, v, self.action(a)(t, v))

    def test_real_matrix_with_complex_eigenpairs_gives_float64(self):
        a = self.rotating_matrix()
        action = self.action(a)
        v = np.random.default_rng(19).standard_normal((3, 10))
        t = np.array([0.5, 1.5, 3.0])
        out = action(t, v)
        assert out.dtype == np.float64
        close_to_expm(a, t, v, out)
        assert action(t, v.astype(np.complex128)).dtype == np.complex128

    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_complex_times(self, kind):
        # the derivative check's circle: a real matrix and real data give
        # complex rows off the real axis
        a = self.rotating_matrix() if kind == "real" else self.complex_matrix()
        d = a.shape[0]
        t = 0.8 * np.exp(2j * np.pi * np.arange(6) / 6)
        v = np.random.default_rng(20).standard_normal((t.size, d))
        out = self.action(a)(t, v)
        assert out.dtype == np.complex128
        close_to_expm(a, t, v, out)

    def test_t_zero_rows_are_exact(self):
        op = random_dense_polynomial_instance(np.random.default_rng(21), 1, 8).factors[0]
        v = np.random.default_rng(22).standard_normal((3, 8))
        out = op.semigroup(np.array([0.4, 0.0, 1.0]), v)
        assert np.array_equal(out[1], v[1])
        assert np.array_equal(op.semigroup(0.0, v[0]), v[0])

    def test_overflowing_row_raises(self):
        a = 0.5 * np.eye(8) + self.rotating_matrix(8) / 4
        op = DenseMatrixOperator("P", a)
        assert op.propagate.func is statespace._eigvec_expm_apply
        taus = np.array([0.5, 2.0, 5000.0])
        vs = np.random.default_rng(23).standard_normal((3, 8))
        assert np.all(np.isfinite(op.semigroup(taus[:-1], vs[:-1])))
        with pytest.raises(SemigroupOverflowError, match="t=5e\\+03"):
            op.semigroup(taus, vs)


class TestPadeFallback:
    """A matrix whose eigenvectors are singular or worse conditioned than
    ``EIGVEC_COND_LIMIT`` keeps scaling and squaring, and never raises for it."""

    @staticmethod
    def kappa(a) -> float:
        q = np.linalg.eig(a)[1]
        return np.linalg.norm(q, 1) * np.linalg.norm(np.linalg.inv(q), 1)

    @staticmethod
    def nearly_defective(delta):
        return np.array([[1.0, 1.0], [0.0, 1.0 + delta]])

    @pytest.mark.parametrize(
        "a", [np.eye(6, k=1), -0.5 * np.eye(6) + np.eye(6, k=1)], ids=["nilpotent", "jordan-block"]
    )
    def test_defective_matrices_keep_pade(self, a):
        op = DenseMatrixOperator("J", a)
        assert op.propagate.func is statespace._pade_expm_apply
        t = np.array([0.0, 0.5, 2.0])
        v = np.random.default_rng(24).standard_normal((3, 6))
        close_to_expm(a, t, v, op.semigroup(t, v), rtol=1e-15)

    def test_condition_just_above_the_limit_keeps_pade(self):
        a = self.nearly_defective(1.99e-4)
        assert statespace.EIGVEC_COND_LIMIT < self.kappa(a) < 1.01 * statespace.EIGVEC_COND_LIMIT
        assert statespace.expm_action(a, statespace.unitary_eigh(a)).func is statespace._pade_expm_apply

    def test_condition_just_below_the_limit_takes_the_eigenvectors(self):
        a = self.nearly_defective(2.01e-4)
        assert 0.99 * statespace.EIGVEC_COND_LIMIT < self.kappa(a) < statespace.EIGVEC_COND_LIMIT
        action = statespace.expm_action(a, statespace.unitary_eigh(a))
        assert action.func is statespace._eigvec_expm_apply
        t = np.array([0.5, 2.0])
        v = np.random.default_rng(25).standard_normal((2, 2))
        close_to_expm(a, t, v, action(t, v), rtol=1e-11)


class TestExpmStackCap:
    """Stacked Pade exponentials are chunked at ``EXPM_STACK_ENTRIES``."""

    @staticmethod
    def _defective(shift, m, d=64, seed=40):
        rng = np.random.default_rng(seed)
        op = defective_operator("N", shift, 0.5, d)
        assert op.propagate.func is statespace._pade_expm_apply
        return op, np.linspace(0.0, 2.0, m), rng.standard_normal((m, d))

    def test_peak_memory_is_capped(self):
        # one 512-matrix stack of d = 64 peaks at 32 MiB, chunks of 2^18
        # entries at 4.4 MiB
        op, taus, vs = self._defective(-1.0, 512)
        tracemalloc.start()
        try:
            op.semigroup(taus, vs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12 * 2**20

    def test_chunks_equal_one_stack_and_keep_zero_rows(self, monkeypatch):
        op, taus, vs = self._defective(-1.0, 300)
        zero = np.zeros(taus.size, dtype=bool)
        zero[[0, 100, 299]] = True
        taus[zero] = 0.0
        chunked = op.semigroup(taus, vs)
        monkeypatch.setattr(statespace, "EXPM_STACK_ENTRIES", 2**40)
        assert np.array_equal(chunked, op.semigroup(taus, vs))
        assert np.array_equal(chunked[zero], vs[zero])

    def test_repeated_times_give_the_rows_of_distinct_ones(self, monkeypatch):
        op, _, vs = self._defective(-1.0, 6)
        taus = np.array([0.25, 0.5, 0.25, 0.0, 0.5, 0.25])
        matrices = []
        expm = scipy.linalg.expm
        monkeypatch.setattr(scipy.linalg, "expm", lambda s: matrices.append(len(s)) or expm(s))
        out = op.semigroup(taus, vs)
        assert matrices == [3]
        for i, t in enumerate(taus):
            assert np.array_equal(out[i], op.semigroup(np.array([t]), vs[i : i + 1])[0])

    def test_overflow_in_a_later_chunk_raises(self):
        # the spectral abscissa is 0.5: only the last time overflows
        op, taus, vs = self._defective(0.5, 300)
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
    def test_weights_sum_to_interval(self):
        _, w = QuadratureRule(panels=7, nodes_per_panel=4).nodes(-0.3, 2.1)
        assert abs(np.sum(w) - 2.4) <= 1e-13 * 2.4

    def test_gauss_exact_on_polynomials(self):
        rule = QuadratureRule(panels=2, nodes_per_panel=8)
        x, w = rule.nodes(0.0, 1.5)
        for k in range(rule.order):
            exact = 1.5 ** (k + 1) / (k + 1)
            assert abs(np.dot(w, x**k) - exact) <= 1e-12 * exact

    def test_refined_doubles_panels(self):
        rule = QuadratureRule(panels=4)
        assert rule.refined().panels == 8

    def test_empty_interval(self):
        x, w = QuadratureRule().nodes(0.7, 0.7)
        assert x.size == 0 and w.size == 0

    def test_gauss_kronrod_layout_keeps_the_gauss_rule(self):
        # the Gauss nodes of the layout are the points of nodes(), bit for
        # bit, and carry its weights; the Kronrod weights sum to the width
        rule = QuadratureRule(panels=3, nodes_per_panel=5)
        pts, wts, gauss, gauss_wts = rule.gauss_kronrod(0.3, 1.1)
        x, w = rule.nodes(0.3, 1.1)
        assert pts.size == wts.size == 3 * 11
        assert np.array_equal(pts[gauss], x) and np.array_equal(gauss_wts, w)
        assert np.all(np.diff(pts) > 0)
        assert abs(np.sum(wts) - 0.8) <= 1e-14

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            QuadratureRule(panels=0)
        with pytest.raises(ValueError):
            QuadratureRule(nodes_per_panel=0)
        with pytest.raises(ValueError, match=f"got {statespace.MAX_NODES_PER_PANEL + 1}"):
            QuadratureRule(nodes_per_panel=statespace.MAX_NODES_PER_PANEL + 1)
        # a non-integer size would run as another rule than it records, or
        # fail later with a raw TypeError
        for size in (2.5, 3.0, True, "4"):
            with pytest.raises(ValueError, match="integer"):
                QuadratureRule(panels=size)
            with pytest.raises(ValueError, match="integer"):
                QuadratureRule(nodes_per_panel=size)
        assert QuadratureRule(panels=np.int64(3), nodes_per_panel=np.int32(4)).nodes(0.0, 1.0)[0].size == 12
        with pytest.raises(TypeError):  # Gauss-Legendre panels are the only family
            QuadratureRule(kind="composite-simpson")


def _scipy_gauss_kronrod(monkeypatch, table):
    """``(x, gauss_w, kronrod_w)`` of one of scipy's Gauss-Kronrod tables on
    ``[-1, 1]``, in increasing order: the table function hands its
    constants to ``_quadrature_gk``, which returns them here."""
    from scipy.integrate import _quad_vec

    monkeypatch.setattr(_quad_vec, "_quadrature_gk", lambda a, b, f, norm, x, w, v: (x, w, v))
    return tuple(np.array(c[::-1], dtype=np.float64) for c in table(-1.0, 1.0, None, None))


class TestGaussKronrodReference:
    @pytest.mark.parametrize("q, table", [(7, "_quadrature_gk15"), (10, "_quadrature_gk21")])
    def test_matches_scipy_tables(self, monkeypatch, q, table):
        from scipy.integrate import _quad_vec

        nodes, gauss_weights, weights = _scipy_gauss_kronrod(monkeypatch, getattr(_quad_vec, table))
        x, w, gauss = statespace._gauss_kronrod_reference(q)
        assert np.max(np.abs(x - nodes)) <= 1e-15
        assert np.max(np.abs(w - weights)) <= 1e-15
        assert np.max(np.abs(statespace._gauss_legendre_reference(q)[1] - gauss_weights)) <= 1e-15
        assert np.array_equal(gauss, np.arange(1, 2 * q, 2))

    @pytest.mark.parametrize("q", range(1, 13))
    def test_exact_on_monomials_through_degree_3q_plus_1(self, q):
        x, w, _ = statespace._gauss_kronrod_reference(q)
        for k in range(3 * q + 2):
            exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
            assert abs(np.dot(w, x**k) - exact) <= 5e-15

    @pytest.mark.parametrize("q", range(1, 13))
    def test_nodes_interior_and_increasing(self, q):
        x, w, _ = statespace._gauss_kronrod_reference(q)
        assert x.size == w.size == 2 * q + 1
        assert -1.0 < x[0] and x[-1] < 1.0
        assert np.all(np.diff(x) > 0)

    @pytest.mark.parametrize("q", range(1, 13))
    def test_gauss_subset_is_leggauss_bit_for_bit(self, q):
        x, _, gauss = statespace._gauss_kronrod_reference(q)
        assert np.array_equal(x[gauss], np.polynomial.legendre.leggauss(q)[0])


    def test_kronrod_properties_hold_at_the_node_bound(self):
        q = QuadratureRule(panels=1, nodes_per_panel=statespace.MAX_NODES_PER_PANEL).nodes_per_panel
        x, w, gauss = statespace._gauss_kronrod_reference(q)
        assert -1.0 < x[0] and x[-1] < 1.0 and np.all(np.diff(x) > 0)
        assert np.all(w > 0) and abs(np.sum(w) - 2.0) <= 1e-14
        assert np.array_equal(x[gauss], np.polynomial.legendre.leggauss(q)[0])
        # exact through degree 3q + 1: every Legendre moment past P_0 vanishes
        moments = np.polynomial.legendre.legvander(x, 3 * q + 1).T @ w
        assert abs(moments[0] - 2.0) <= 1e-14 and np.max(np.abs(moments[1:])) <= 2e-14


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


class TestUnitaryEigh:
    """Real symmetric matrices take divide and conquer; complex Hermitian
    ones, and the ``i a`` of a real skew-symmetric ``a``, the default driver."""

    @pytest.mark.parametrize("kind, driver", [
        ("real-symmetric", "evd"), ("complex-hermitian", None), ("real-skew", None),
    ])
    def test_driver(self, monkeypatch, kind, driver):
        rng = np.random.default_rng(21)
        b = rng.standard_normal((6, 6))
        if kind == "complex-hermitian":
            b = b + 1j * rng.standard_normal((6, 6))
        a = b - b.T if kind == "real-skew" else b + b.conj().T
        eigh, drivers = scipy.linalg.eigh, []
        monkeypatch.setattr(scipy.linalg, "eigh", lambda m, driver=None: drivers.append(driver) or eigh(m, driver=driver))
        w, q = statespace.unitary_eigh(a)
        assert drivers == [driver]
        assert np.max(np.abs(q @ np.diag(w) @ q.conj().T - a)) <= 1e-13 * np.max(np.abs(a))

    def test_real_symmetric_solve_matches_the_companion_exponential(self):
        # d = 128, (1, 1, 1): the MRRR driver left ||q^T q - I||_F at about
        # 4e-13 and the solve 5e-14 to 1.5e-13 from expm of the companion
        # generator (seeds 0-5)
        for seed in (0, 2):
            eq = random_dense_commuting_instance(np.random.default_rng(seed), 3, 128, "all-distinct")
            q = eq.factors[0].eig[1]
            assert q.dtype == np.float64
            assert np.linalg.norm(q.T @ q - np.eye(128)) <= 1e-13
            times = np.linspace(0.0, 1.0, 4)
            system = build_companion(eq)
            generator, start = system.generator()[0], system.initial_state()
            reference = np.array([(scipy.linalg.expm(t * generator) @ start)[:128] for t in times])
            values = solve_full(eq, times).values
            assert np.max(np.abs(values - reference)) <= 1e-14 * np.max(np.abs(reference))
