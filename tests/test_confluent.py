import gc
import sys
import threading
import weakref
from functools import cached_property
from math import comb

import numpy as np
import pytest
import scipy.linalg

from factored_evolution import (
    DenseMatrixOperator,
    DimensionMismatchError,
    FactoredEquation,
    Forcing,
    MixedBackendError,
    NonCommutingFactorsError,
    SingularSystemError,
    SpectralDiagonalOperator,
    TranslationOperator,
    UniformGrid,
    UnsupportedOperationError,
    build_confluent_matrix,
    group_factors,
    initial_derivative_defect,
    oracle_solve,
    scalar_confluent_matrix,
    solve_coefficients,
    solve_full,
    solve_z_vector,
    two_operator_closed_form,
)
from factored_evolution import confluent, operators
from factored_evolution import equation as equation_module
from factored_evolution.confluent import ZCoefficients
from factored_evolution.operators import generator_blocks, shared_mode_basis

from conftest import (
    central_difference_operator,
    random_dense_commuting_instance,
    random_spectral_instance,
    zero_mean_profile,
)


def diag_op(label, values):
    return SpectralDiagonalOperator(label, np.asarray(values, dtype=float))


def operator_substitution(op, rhs):
    """Reference single-group solve of ``M y = rhs`` by forward substitution
    with operator actions: ``B^(r-k) y_k`` by repeated ``op.apply``."""
    ys, powered = [], []
    for r in range(len(rhs)):
        acc = rhs[r]
        for k in range(r):
            powered[k] = op.apply(powered[k])
            acc = acc - comb(r, k) * powered[k]
        acc = np.array(acc, copy=True)
        ys.append(acc)
        powered.append(acc)
    return ys


def blocks_times(blocks, modal):
    """Reference ``z_k g`` for every k: blocks ``(n, b, m, m)`` times a
    modal state ``(d,)`` by a broadcast product and a sum."""
    m = blocks.shape[-1]
    out = (blocks * modal.reshape(-1, 1, m)).sum(-1)
    return out.reshape(out.shape[:-2] + (-1,))


def single_group_case(backend, rng):
    """One operator of ``backend`` and data it can be solved for."""
    grid = UniformGrid(0.0, 2 * np.pi / 32, 32)
    if backend == "dense-hermitian":
        mat = rng.standard_normal((6, 6))
        op = DenseMatrixOperator("A", -0.5 * (mat + mat.T))
    elif backend == "dense-non-normal":
        op = DenseMatrixOperator("A", np.triu(rng.standard_normal((6, 6))) - 2.0 * np.eye(6))
    elif backend == "zero-extension":
        op = central_difference_operator("A", 0.7, UniformGrid(-4.0, 0.1, 81))
    elif backend == "spectral":
        op = diag_op("A", rng.uniform(-2.0, 0.5, 6))
    elif backend == "translation-real":
        op = TranslationOperator("A", 0.8, grid)
    else:
        op = TranslationOperator("A", 0.6 + 0.3j, grid)
    if backend.startswith("translation"):
        draw = lambda: zero_mean_profile(rng, op.dim, 4)  # noqa: E731
    else:
        draw = lambda: rng.standard_normal(op.dim)  # noqa: E731
    return op, draw


class TestStructure:
    def test_single_factor_is_identity(self):
        m = build_confluent_matrix([(diag_op("A", [1.0]), 1)])
        assert m.symbol_grid() == [[(1, 0, "A")]]

    def test_repeated_factor_binomial_triangle(self):
        m = build_confluent_matrix([(diag_op("A", [1.0]), 3)])
        assert m.symbol_grid() == [
            [(1, 0, "A"), None, None],
            [(1, 1, "A"), (1, 0, "A"), None],
            [(1, 2, "A"), (2, 1, "A"), (1, 0, "A")],
        ]

    def test_column_blocks_follow_grouped_layout(self):
        a, b = diag_op("A", [1.0]), diag_op("B", [2.0])
        m = build_confluent_matrix([(b, 1), (a, 2)])
        assert m.offsets == [0, 1]
        assert m.entry(2, 2) == ((2, 1, "A"),)
        assert m.entry(0, 2) == ()

    def test_order_cap(self):
        with pytest.raises(UnsupportedOperationError):
            build_confluent_matrix([(diag_op("A", [1.0]), 31)])

    def test_mixed_families_rejected(self):
        # one family rule for every entry point
        with pytest.raises(MixedBackendError):
            build_confluent_matrix([(diag_op("A", [1.0]), 1), (DenseMatrixOperator("D", [[1.0]]), 1)])

    def test_mixed_dimensions_rejected(self):
        with pytest.raises(DimensionMismatchError):
            build_confluent_matrix([(diag_op("A", [1.0]), 1), (diag_op("B", [1.0, 2.0]), 1)])

    def test_entry_bounds(self):
        m = build_confluent_matrix([(diag_op("A", [1.0]), 2)])
        with pytest.raises(IndexError):
            m.entry(2, 0)
        with pytest.raises(IndexError):
            m.entry(0, 2)

    def test_str_rendering(self):
        m = build_confluent_matrix([(diag_op("B", [1.0]), 2)])
        assert str(m).split("\n")[1].split() == ["B", "I"]

    @pytest.mark.parametrize("mults", [(2, 1), (1, 1, 1)], ids=["2-1", "1-1-1"])
    @pytest.mark.parametrize("kind", ["spectral", "translation", "dense-hermitian", "dense-non-normal"])
    def test_operator_walk_equals_the_assembled_matrix(self, kind, mults):
        # the residual gate's M (operator actions) and the assembled M of
        # the solves (generator blocks) check each other
        rng = np.random.default_rng(71)
        centers = [-1.5, -0.6, 0.3][: len(mults)]
        if kind == "spectral":
            ops = [diag_op(l, c + 0.12 * rng.uniform(-1, 1, 6)) for l, c in zip("ABC", centers)]
        elif kind == "translation":
            grid = UniformGrid(0.0, 2 * np.pi / 16, 16)
            ops = [TranslationOperator(l, c, grid) for l, c in zip("ABC", centers)]
        elif kind == "dense-hermitian":
            ops = shared_basis_groups(rng, 6, [c + 0.12 * rng.uniform(-1, 1, 6) for c in centers])
        else:  # polynomials in one random matrix: commuting, not normal
            base = 0.3 * rng.standard_normal((6, 6)) / np.sqrt(6)
            ops = [DenseMatrixOperator(l, c * np.eye(6) + rng.uniform(0.5, 1.0) * base + 0.1 * base @ base)
                   for l, c in zip("ABC", centers)]
        m = build_confluent_matrix(list(zip(ops, mults)))
        ys = rng.standard_normal((m.n, m.dim))
        basis = shared_mode_basis(ops)
        walked = basis.to_modes(np.stack(m.apply(list(ys))))
        v = confluent._confluent_blocks(generator_blocks(ops), mults)  # (b, n m, n m)
        b = v.shape[0]
        stacked = basis.to_modes(ys).reshape(m.n, b, -1).transpose(1, 0, 2).reshape(b, -1)
        assembled = (v @ stacked[..., None]).reshape(b, m.n, -1).transpose(1, 0, 2).reshape(m.n, -1)
        assert np.max(np.abs(walked - assembled)) <= 1e-13 * np.max(np.abs(assembled))


class TestSolveCoefficients:
    def test_repeated_scalar_forward_substitution(self):
        a = diag_op("a", [3.0])
        m = build_confluent_matrix([(a, 2)])
        x0, x1 = np.array([2.0]), np.array([5.0])
        y = solve_coefficients(m, [x0, x1])
        assert y[0][0] == pytest.approx(2.0)
        assert y[1][0] == pytest.approx(5.0 - 3.0 * 2.0)

    def test_distinct_scalars_partial_fractions(self):
        a, b = diag_op("a", [1.0]), diag_op("b", [-1.0])
        m = build_confluent_matrix([(a, 1), (b, 1)])
        y = solve_coefficients(m, [np.array([1.0]), np.array([0.0])])
        # cosh t = (e^t + e^{-t}) / 2
        assert y[0][0] == pytest.approx(0.5)
        assert y[1][0] == pytest.approx(0.5)

    def test_distinct_scalars_match_plain_vandermonde(self):
        # multiplicity-1 case: coefficients are the classical partial-fraction
        # weights from the plain Vandermonde system
        rng = np.random.default_rng(6)
        nodes = np.array([-1.5, -0.3, 0.4, 1.2])
        ops = [diag_op(f"L{j}", [v]) for j, v in enumerate(nodes)]
        xs = [rng.standard_normal(1) for _ in range(4)]
        m = build_confluent_matrix([(op, 1) for op in ops])
        y = solve_coefficients(m, xs)
        vander = np.vander(nodes, 4, increasing=True).T
        direct = np.linalg.solve(vander, np.array([x[0] for x in xs]))
        assert np.max(np.abs(np.array([v[0] for v in y]) - direct)) <= 1e-12

    def test_five_factor_scalar_instance(self):
        ops = {l: diag_op(l, [v]) for l, v in {"A": 1.0, "B": 2.0, "C": 3.0}.items()}
        grouped = group_factors([ops["C"], ops["B"], ops["B"], ops["A"], ops["A"]])
        m = build_confluent_matrix(grouped)
        rng = np.random.default_rng(7)
        xs = [rng.standard_normal(1) for _ in range(5)]
        y = solve_coefficients(m, xs)
        direct = np.linalg.solve(
            scalar_confluent_matrix([3.0, 2.0, 1.0], [1, 2, 2]),
            np.array([x[0] for x in xs]),
        )
        assert np.max(np.abs(np.array([v[0] for v in y]) - direct)) <= 1e-10

    @pytest.mark.parametrize("family", ["spectral", "dense"])
    def test_residual_property(self, family):
        rng = np.random.default_rng(8)
        for _ in range(6):
            n = int(rng.integers(2, 6))
            dim = int(rng.integers(2, 7))
            eq = (
                random_spectral_instance(rng, n, dim)
                if family == "spectral"
                else random_dense_commuting_instance(rng, n, dim)
            )
            m = build_confluent_matrix(eq.grouped)
            xs = np.stack(eq.initial_data)
            ys = m.basis.from_modes(np.stack(solve_coefficients(m, xs)), xs)  # on the grid
            scale = 1.0 + max(np.max(np.abs(x)) for x in eq.initial_data)
            worst = max(
                np.max(np.abs(row - x)) for row, x in zip(m.apply(list(ys)), eq.initial_data)
            )
            assert worst <= 1e-9 * scale

    def test_residual_property_translation(self):
        grid = UniformGrid(0.0, 2 * np.pi / 64, 64)
        x = grid.points()
        left = TranslationOperator("L", 1.0, grid)
        right = TranslationOperator("R", -0.5, grid)
        m = build_confluent_matrix([(left, 1), (right, 1)])
        data = [np.sin(x), np.cos(x) - np.cos(2 * x)]  # mean-zero
        ys = solve_coefficients(m, data)  # Fourier coefficients
        on_grid = m.basis.from_modes(np.stack(ys), data[0])
        worst = max(np.max(np.abs(row - v)) for row, v in zip(m.apply(list(on_grid)), data))
        assert worst <= 1e-9 * (1.0 + max(np.max(np.abs(v)) for v in data))

    def test_coincident_spectral_labels_raise(self):
        a = diag_op("a1", [1.0, 2.0])
        b = diag_op("a2", [1.0, 2.0])
        m = build_confluent_matrix([(a, 1), (b, 1)])
        with pytest.raises(SingularSystemError) as info:
            solve_coefficients(m, [np.ones(2), np.ones(2)])
        assert "a1" in str(info.value) and "a2" in str(info.value)

    def test_coincident_dense_labels_raise(self):
        mat = np.diag([1.0, 2.0])
        a = DenseMatrixOperator("d1", mat)
        b = DenseMatrixOperator("d2", mat.copy())
        m = build_confluent_matrix([(a, 1), (b, 1)])
        with pytest.raises(SingularSystemError):
            solve_coefficients(m, [np.ones(2), np.ones(2)])

    def test_partial_coincidence_with_unexcited_mode_passes(self):
        # the operators agree only on mode 0; data with nothing on that mode
        # is still solvable and the solution there is zero
        a = diag_op("a", [1.0, 2.0])
        b = diag_op("b", [1.0, 5.0])
        m = build_confluent_matrix([(a, 1), (b, 1)])
        data = [np.array([0.0, 3.0]), np.array([0.0, -1.0])]
        ys = solve_coefficients(m, data)
        assert ys[0][0] == 0.0 and ys[1][0] == 0.0
        worst = max(np.max(np.abs(row - v)) for row, v in zip(m.apply(ys), data))
        assert worst <= 1e-9 * 4.0


SINGLE_GROUP_BACKENDS = [
    "dense-hermitian",
    "dense-non-normal",
    "zero-extension",
    "spectral",
    "translation-real",
    "translation-complex",
]


class TestSingleGroup:
    """A single group is substituted on its generator's blocks."""

    @pytest.mark.parametrize("backend", SINGLE_GROUP_BACKENDS)
    def test_matches_operator_substitution(self, backend):
        rng = np.random.default_rng(41)
        op, draw = single_group_case(backend, rng)
        for n in (1, 2, 4):
            xs = [draw() for _ in range(n)]
            m = build_confluent_matrix([(op, n)])
            ys = m.basis.from_modes(np.stack(solve_coefficients(m, xs)), xs[0])
            reference = operator_substitution(op, xs)
            scale = max(np.max(np.abs(y)) for y in reference)
            worst = max(np.max(np.abs(y - r)) for y, r in zip(ys, reference))
            assert worst <= 1e-14 * scale

    @pytest.mark.parametrize("backend", SINGLE_GROUP_BACKENDS)
    def test_z_is_exactly_e_n(self, backend):
        op, _ = single_group_case(backend, np.random.default_rng(42))
        zeta = solve_z_vector(build_confluent_matrix([(op, 3)])).zeta
        assert not np.any(zeta[:-1])
        assert np.array_equal(zeta[-1], np.broadcast_to(np.eye(zeta.shape[-1]), zeta.shape[1:]))

    def test_solve_takes_no_operator_action(self, monkeypatch):
        # the solve transforms into modes once and keeps y there; the
        # residual gate walks M in the modes and transforms back once
        grid = UniformGrid(0.0, 2 * np.pi / 32, 32)
        op = TranslationOperator("A", 0.8, grid)
        calls = []
        apply = TranslationOperator.apply
        monkeypatch.setattr(TranslationOperator, "apply", lambda self, v: calls.append(1) or apply(self, v))
        rng = np.random.default_rng(43)
        solve_coefficients(build_confluent_matrix([(op, 4)]), [zero_mean_profile(rng, 32) for _ in range(4)])
        assert not calls


class TestFactorizationRecord:
    def test_coincident_mode_in_coefficient_data_raises(self):
        a, b = diag_op("a", [1.0, 2.0, -1.0]), diag_op("b", [1.0, 5.0, -1.0])
        m = build_confluent_matrix([(a, 1), (b, 1)])
        with pytest.raises(SingularSystemError) as info:
            solve_coefficients(m, [np.array([0.0, 1.0, 0.0]), np.array([1e-3, 1.0, 0.0])])
        assert str(info.value) == (
            "declared-distinct factors act identically on excited modes: "
            "labels 'a' and 'b' coincide at modes [0, 2]"
        )

    def test_coefficient_data_is_measured_as_one_block(self):
        # x_0 lives on the coincident mode only, but far below the largest
        # entry of the whole right-hand side: it counts as unexcited
        a, b = diag_op("a", [1.0, 2.0]), diag_op("b", [1.0, 5.0])
        m = build_confluent_matrix([(a, 1), (b, 1)])
        ys = solve_coefficients(m, [np.array([1e-13, 0.0]), np.array([0.0, 1.0])])
        assert ys[0][0] == 0.0 and ys[1][0] == 0.0

    def test_coincident_mode_in_forcing_raises(self):
        a, b = diag_op("a", [1.0, 2.0]), diag_op("b", [1.0, 5.0])
        eq = FactoredEquation((a, b), (np.zeros(2), np.zeros(2)), Forcing(lambda t: np.array([t, 1.0])))
        with pytest.raises(SingularSystemError) as info:
            solve_full(eq, np.linspace(0.0, 1.0, 3))
        assert str(info.value) == (
            "declared-distinct factors act identically on excited modes: "
            "labels 'a' and 'b' coincide at modes [0]"
        )

    def test_singular_dense_matrix_names_its_pivot(self):
        mat = np.diag([1.0, 2.0])
        m = build_confluent_matrix(
            [(DenseMatrixOperator("d1", mat), 1), (DenseMatrixOperator("d2", mat.copy()), 1)]
        )
        with pytest.raises(SingularSystemError, match=(
            r"^assembled coefficient matrix for groups \['d1', 'd2'\] is singular \(pivot "
            r"\S+ below threshold \S+; matrix is numerically singular\); some pair of "
            r"declared-distinct factors may coincide$"
        )):
            solve_coefficients(m, [np.ones(2), np.ones(2)])

    @pytest.mark.parametrize("case", ["single", "spectral", "translation", "dense"])
    def test_apply_all_matches_the_blockwise_product(self, case):
        rng = np.random.default_rng(44)
        if case == "single":
            grouped, g = [(diag_op("A", rng.uniform(-1, 0, 5)), 3)], rng.standard_normal(5)
        elif case == "spectral":
            eq = random_spectral_instance(rng, 4, 5, "mixed")
            grouped, g = eq.grouped, rng.standard_normal(5)
        elif case == "translation":
            grid = UniformGrid(0.0, 2 * np.pi / 16, 16)
            ops = [TranslationOperator(l, c, grid) for l, c in (("L", 0.5), ("R", -1.0))]
            grouped, g = [(ops[0], 2), (ops[1], 1)], zero_mean_profile(rng, 16, 3)
        else:
            eq = random_dense_commuting_instance(rng, 4, 5, "mixed")
            grouped, g = eq.grouped, rng.standard_normal(5)
        z = solve_z_vector(build_confluent_matrix(grouped))
        reference = z.basis.from_modes(blocks_times(z.zeta, z.basis.to_modes(g)), g)
        out = z.apply_all(g)
        assert np.max(np.abs(out - reference)) <= 1e-15 * np.max(np.abs(reference))


def lu_reference(grouped, rhs):
    """``M^{-1} rhs`` through scipy's LU of the assembled ``(n d) x (n d)`` ``M``."""
    ops = [op for op, _ in grouped]
    v = confluent._confluent_blocks(generator_blocks(ops), [mult for _, mult in grouped])[0]
    return scipy.linalg.lu_solve(scipy.linalg.lu_factor(v), rhs)


def shared_basis_groups(rng, d, spectra, complex_basis=False, factor=1.0):
    """``factor`` times the Hermitian ``q diag(lambda_j) q^H`` for one random
    unitary ``q``, one per row of ``spectra``, labelled A, B, ..."""
    z = rng.standard_normal((d, d)) + (1j * rng.standard_normal((d, d)) if complex_basis else 0)
    q, _ = np.linalg.qr(z)
    ops = []
    for label, lam in zip("ABCD", spectra):
        mat = q @ np.diag(lam) @ q.conj().T
        ops.append(DenseMatrixOperator(label, factor * 0.5 * (mat + mat.conj().T)))
    return ops


class TestEigenbasisStructure:
    """Dense groups that one group's unitary eigenbasis diagonalizes are
    modal in it: ``y`` and ``z`` are solved mode by mode and kept per mode.
    Every other dense case keeps the LU on the grid."""

    @staticmethod
    def case(kind, rng):
        if kind == "real-symmetric":
            eq = random_dense_commuting_instance(rng, 4, 8, "mixed")
            return eq.grouped, eq.initial_data
        if kind == "zero-extension":  # real skew-symmetric, with a complex eigenbasis
            grid = UniformGrid(-3.0, 0.15, 40)  # even: no mode where both speeds vanish
            t, s = (central_difference_operator(l, c, grid) for l, c in (("T", 0.7), ("S", -1.3)))
            x = grid.points()
            return [(t, 2), (s, 1)], [np.exp(-x**2), x * np.exp(-x**2), np.zeros(40)]
        spectra = [c + 0.12 * rng.uniform(-1, 1, 7) for c in (-1.5, -0.6, 0.3)]
        factor = 1.0 if kind == "complex-hermitian" else 1j  # i H is skew-Hermitian
        a, b, c = shared_basis_groups(rng, 7, spectra, complex_basis=True, factor=factor)
        return [(a, 2), (b, 1), (c, 1)], [rng.standard_normal(7) for _ in range(4)]

    @staticmethod
    def assert_y_and_z_match_the_lu(grouped, data):
        # both on the grid: y through basis.from_modes, and z_k as the d x d
        # matrix whose column i is z_k e_i
        m = build_confluent_matrix(grouped)
        n, d = m.n, m.dim
        xs = np.stack(data)
        ys = m.basis.from_modes(np.stack(solve_coefficients(m, xs)), xs).ravel()
        y_ref = lu_reference(grouped, xs.ravel())
        assert ys.dtype == y_ref.dtype
        assert np.max(np.abs(ys - y_ref)) <= 1e-13 * np.max(np.abs(y_ref))
        last = np.zeros((n * d, d))
        last[-d:] = np.eye(d)
        z_ref = lu_reference(grouped, last)
        z = solve_z_vector(m)
        zeta = np.stack([z.apply_all(e) for e in np.eye(d)], axis=-1).reshape(n * d, d)
        assert zeta.dtype == z_ref.dtype
        assert np.max(np.abs(zeta - z_ref)) <= 1e-13 * np.max(np.abs(z_ref))
        return m

    @staticmethod
    def count_lu(monkeypatch) -> list:
        lu = confluent.lu_factor_checked
        calls = []
        monkeypatch.setattr(confluent, "lu_factor_checked", lambda v: calls.append(v) or lu(v))
        return calls

    @pytest.mark.parametrize("kind", ["real-symmetric", "complex-hermitian", "complex-skew-hermitian"])
    def test_y_and_z_match_the_lu_of_the_same_matrix(self, kind):
        grouped, data = self.case(kind, np.random.default_rng(61))
        m = self.assert_y_and_z_match_the_lu(grouped, data)
        assert m.basis.unitary is not None and m._factorization.solve.func is confluent._mode_solve
        assert solve_z_vector(m).zeta.shape == (m.n, m.dim, 1, 1)  # one weight per mode and k

    def test_real_skew_symmetric_groups_keep_the_lu(self, monkeypatch):
        # their eigenbasis is complex, so the rotations would turn a real
        # system complex: zero extension keeps one LU
        calls = self.count_lu(monkeypatch)
        grouped, data = self.case("zero-extension", np.random.default_rng(61))
        assert grouped[0][0].eig is not None
        self.assert_y_and_z_match_the_lu(grouped, data)
        assert len(calls) == 1

    def test_a_basis_that_does_not_diagonalize_falls_back_to_one_lu(self, monkeypatch):
        # A repeats -1, so eigh picks some basis of that plane, which B
        # (distinct there) does not share
        rng = np.random.default_rng(62)
        a, b = shared_basis_groups(rng, 5, [[-1.0, -1.0, -2.0, -1.5, -0.5], [0.1, 0.3, 0.5, 0.2, 0.4]])
        q = a.eig[1]
        rotated = q.T @ b.matrix @ q
        assert np.linalg.norm(rotated - np.diag(np.diag(rotated))) > 1e-3 * np.linalg.norm(b.matrix)
        calls = self.count_lu(monkeypatch)
        grouped = [(a, 2), (b, 1)]
        data = [rng.standard_normal(5) for _ in range(3)]
        m = build_confluent_matrix(grouped)
        ys = np.concatenate(solve_coefficients(m, data))
        solve_z_vector(m)
        assert len(calls) == 1
        y_ref = lu_reference(grouped, np.concatenate(data))
        assert np.max(np.abs(ys - y_ref)) <= 1e-13 * np.max(np.abs(y_ref))

    def test_a_coincident_mode_keeps_the_lu_message(self):
        rng = np.random.default_rng(63)
        a, b = shared_basis_groups(rng, 4, [[-1.0, -2.0, -3.0, -0.5], [-1.0, 0.2, 0.4, 0.3]])
        m = build_confluent_matrix([(a, 1), (b, 1)])
        with pytest.raises(SingularSystemError, match=(
            r"^assembled coefficient matrix for groups \['A', 'B'\] is singular \(pivot "
            r"\S+ below threshold \S+; matrix is numerically singular\); some pair of "
            r"declared-distinct factors may coincide$"
        )):
            solve_coefficients(m, [np.ones(4), np.ones(4)])


    @pytest.mark.parametrize("kind", ["real-symmetric", "complex-hermitian", "complex-skew-hermitian"])
    def test_a_fresh_solve_decomposes_one_matrix(self, monkeypatch, kind):
        # the set's basis is its first group's eig; no other operator
        # decomposes its matrix or binds its own action until a call needs it
        rng = np.random.default_rng(64)
        spectra = [c + 0.12 * rng.uniform(-1, 1, 6) for c in (-1.8, -1.0, -0.2, 0.5)]
        ops = shared_basis_groups(
            rng, 6, spectra, complex_basis=kind != "real-symmetric", factor=1j if "skew" in kind else 1.0
        )
        factors = (ops[0],) + tuple(ops)
        c = rng.standard_normal(6)
        eq = FactoredEquation(
            factors, tuple(rng.standard_normal(6) for _ in factors), Forcing(lambda t: np.cos(t) * c)
        )
        eigh, calls = scipy.linalg.eigh, []
        monkeypatch.setattr(scipy.linalg, "eigh", lambda *args, **kw: calls.append(args[0]) or eigh(*args, **kw))
        times = np.linspace(0.0, 1.0, 5)
        values = solve_full(eq, times).values
        assert len(calls) == 1 and build_confluent_matrix(eq.grouped).basis.unitary is not None
        assert "eig" in vars(ops[0])
        assert not any("propagate" in vars(op) for op in ops)
        assert not any("eig" in vars(op) for op in ops[1:])
        ops[2].semigroup(0.5, np.ones(6))
        assert len(calls) == 2 and "eig" in vars(ops[2]) and "eig" not in vars(ops[1])
        for arr in ops[2].eig:
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0.0
        reference = oracle_solve(eq, times).values
        assert np.max(np.abs(values - reference)) <= 1e-6 * np.max(np.abs(reference))

    @pytest.mark.parametrize("gap", [1e-4, 1e-7])
    def test_the_refined_basis_stays_unitary(self, gap):
        # both groups have a pair of eigenvalues a small gap apart: the
        # Jacobi step divides the rounding of q^H B_j q on that pair by the
        # gap, and the part of it that is not anti-symmetric must not
        # stretch q
        rng = np.random.default_rng(66)
        lam, mu = np.linspace(-2.0, -1.0, 16), np.linspace(0.2, 0.5, 16)
        lam[1], mu[1] = lam[0] + gap, mu[0] + gap
        a, b = shared_basis_groups(rng, 16, [lam, mu])
        basis = build_confluent_matrix([(a, 2), (b, 1)]).basis
        q = basis.unitary[0]
        assert np.linalg.norm(q.T @ q - np.eye(16)) <= 1e-14
        x = rng.standard_normal(16)
        assert np.max(np.abs(basis.from_modes(basis.to_modes(x), x) - x)) <= 1e-14 * np.max(np.abs(x))

    def test_the_shared_basis_ends_at_its_bound(self, monkeypatch):
        # B is diagonal in A's basis but for s on one pair of modes, which
        # no rotation takes off both groups, so the reading grows with s:
        # just below the bound the set is modal, just above it one LU
        d = 6
        a = np.diag(np.linspace(-2.0, -0.5, d))
        b = np.diag(np.linspace(0.2, 0.45, d))
        pair = np.zeros((d, d))
        pair[0, 1] = pair[1, 0] = 1.0

        def grouped(s):
            return [(DenseMatrixOperator("A", a), 2), (DenseMatrixOperator("B", b + s * pair), 1)]

        def reading(s):
            return confluent._shared_eigenbasis(confluent.BlockOperatorMatrix(tuple(grouped(s))))[2]

        per_unit = reading(1e-12) / 1e-12
        rng = np.random.default_rng(65)
        data = tuple(rng.standard_normal(d) for _ in range(3))
        c = rng.standard_normal(d)
        times = np.linspace(0.0, 1.0, 5)
        for share, modal in ((0.9, True), (1.1, False)):
            s = share * confluent.RESIDUAL_RTOL / per_unit
            assert (reading(s) <= confluent.RESIDUAL_RTOL) == modal
            eq = FactoredEquation(tuple(op for op, mult in grouped(s) for _ in range(mult)), data,
                                  Forcing(lambda t: np.sin(t) * c))
            calls = self.count_lu(monkeypatch)
            values = solve_full(eq, times).values
            assert (build_confluent_matrix(eq.grouped).basis.unitary is not None) == modal
            assert len(calls) == (0 if modal else 1)
            reference = oracle_solve(eq, times).values
            assert np.max(np.abs(values - reference)) <= 1e-6 * np.max(np.abs(reference))


class TestDeterminantReduction:
    def test_matches_node_difference_product(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            groups = int(rng.integers(1, 4))
            mults = [int(rng.integers(1, 3)) for _ in range(groups)]
            while sum(mults) > 5:
                mults[np.argmax(mults)] -= 1
            nodes = rng.uniform(-3, 3, groups)
            while groups > 1 and np.min(np.abs(np.subtract.outer(nodes, nodes))[~np.eye(groups, dtype=bool)]) < 0.3:
                nodes = rng.uniform(-3, 3, groups)
            v = scalar_confluent_matrix(nodes, mults)
            det = np.linalg.det(v)
            prod = 1.0
            for j in range(groups):
                for k in range(j + 1, groups):
                    prod *= (nodes[k] - nodes[j]) ** (mults[j] * mults[k])
            assert det == pytest.approx(prod, rel=1e-9)


class TestZVector:
    def test_single_factor_identity(self):
        z = solve_z_vector(build_confluent_matrix([(diag_op("A", [2.0, 3.0]), 1)]))
        g = np.array([4.0, -1.0])
        assert np.array_equal(z.apply_all(g)[0], g)

    def test_repeated_scalar(self):
        z = solve_z_vector(build_confluent_matrix([(diag_op("a", [5.0]), 2)]))
        out = z.apply_all(np.array([3.0]))
        assert out[0][0] == 0.0
        assert out[1][0] == pytest.approx(3.0)

    def test_distinct_scalars(self):
        a, b = diag_op("a", [0.0]), diag_op("b", [1.0])
        z = solve_z_vector(build_confluent_matrix([(a, 1), (b, 1)]))
        out = z.apply_all(np.array([1.0]))
        assert out[0][0] == pytest.approx(-1.0)
        assert out[1][0] == pytest.approx(1.0)

    def test_leading_entries_sum_to_zero_for_mixed_groups(self):
        # with several groups only the sum of the block-leading weights
        # vanishes; the individual entries need not (and here do not)
        rng = np.random.default_rng(10)
        a = diag_op("a", rng.uniform(-2, -1, 3))
        b = diag_op("b", rng.uniform(0.5, 1.0, 3))
        m = build_confluent_matrix([(a, 2), (b, 1)])
        g = rng.standard_normal(3)
        out = z_entries = solve_z_vector(m).apply_all(g)
        leading = z_entries[0] + z_entries[2]
        assert np.max(np.abs(leading)) <= 1e-10 * max(1.0, np.max(np.abs(g)))
        assert np.max(np.abs(out[2])) > 1e-3  # individually nonzero

    def test_row_identities_repeated_factor(self):
        rng = np.random.default_rng(11)
        a = diag_op("A", rng.uniform(-1.5, -0.5, 4))
        m = build_confluent_matrix([(a, 3)])
        z = solve_z_vector(m)
        g = rng.standard_normal(4)
        rows = m.apply(z.apply_all(g))
        assert max(np.max(np.abs(r)) for r in rows[:-1]) <= 1e-10
        assert np.max(np.abs(rows[-1] - g)) <= 1e-9

    def test_singular_dense_z_raises(self):
        mat = np.diag([1.0, 2.0])
        m = build_confluent_matrix(
            [(DenseMatrixOperator("d1", mat), 1), (DenseMatrixOperator("d2", mat.copy()), 1)]
        )
        with pytest.raises(SingularSystemError):
            solve_z_vector(m)

    def test_weights_are_solved_once_per_matrix(self, monkeypatch):
        # z depends on M alone: the matrix keeps the weights that passed
        # their gate, and a failed gate keeps nothing
        rng = np.random.default_rng(14)
        m = build_confluent_matrix([(diag_op("a", rng.uniform(-2, -1, 3)), 2), (diag_op("b", [0.5] * 3), 1)])
        init = ZCoefficients.__init__

        def corrupted(self, matrix):
            init(self, matrix)
            self.zeta = self.zeta * (1.0 + 1e-6)

        monkeypatch.setattr(ZCoefficients, "__init__", corrupted)
        with pytest.raises(SingularSystemError, match="forcing-weight"):
            solve_z_vector(m)
        monkeypatch.setattr(ZCoefficients, "__init__", init)
        gate = confluent._residual_gate
        gated = []
        monkeypatch.setattr(confluent, "_residual_gate", lambda *args: gated.append(args[-1]) or gate(*args))
        z = solve_z_vector(m)
        assert solve_z_vector(m) is z and solve_z_vector(build_confluent_matrix(m.grouped)) is z
        assert gated == ["forcing-weight"]
        assert not z.zeta.flags.writeable


class TestModalPath:
    """Spectral and periodic translation groups take one modal path."""

    def test_forced_translation_matches_fourier_twin(self):
        # the Fourier-mode spectral twin of a periodic translation problem,
        # solved and transformed back, is the same solution
        grid = UniformGrid(0.0, 2 * np.pi / 32, 32)
        x = grid.points()
        left = TranslationOperator("L", 1.0, grid)
        right = TranslationOperator("R", -0.5, grid)
        data = (np.sin(x), np.cos(2 * x), np.sin(3 * x) - np.cos(x))  # mean-zero
        forcing = lambda t: np.cos(t) * np.sin(x) + t * np.cos(2 * x)  # noqa: E731
        times = np.linspace(0.0, 1.0, 5)
        eq = FactoredEquation((left, left, right), data, Forcing(forcing))
        values = solve_full(eq, times).values

        twin_left = SpectralDiagonalOperator("L", left.node_multipliers())
        twin_right = SpectralDiagonalOperator("R", right.node_multipliers())
        twin = FactoredEquation(
            (twin_left, twin_left, twin_right),
            tuple(np.fft.fft(v) for v in data),
            Forcing(lambda t: np.fft.fft(forcing(t))),
        )
        reference = np.fft.ifft(solve_full(twin, times).values, axis=1)
        assert not np.iscomplexobj(values)
        scale = np.max(np.abs(reference))
        assert np.max(np.abs(values - reference)) <= 1e-12 * scale

    def test_partially_coincident_pair_matches_resolvent_recursion(self):
        # A and B coincide on mode 0 only; data that leaves mode 0 unexcited
        # is solvable, and the recursion referee accepts it too
        a = diag_op("A", [1.0, -1.5, -2.0])
        b = diag_op("B", [1.0, 0.7, 0.4])
        rng = np.random.default_rng(14)
        xs = tuple(np.concatenate([[0.0], rng.standard_normal(2)]) for _ in range(3))
        eq = FactoredEquation((b, a, a), xs)
        generic = solve_coefficients(build_confluent_matrix(eq.grouped), xs)
        sub_data = [xs[k + 1] - b.apply(xs[k]) for k in range(2)]
        prev = solve_coefficients(build_confluent_matrix([(a, 2)]), sub_data)
        recursive = two_operator_closed_form(a, b, xs[0], prev)
        worst = max(np.max(np.abs(p - q)) for p, q in zip(generic, recursive))
        assert worst <= 1e-8


class TestTwoOperatorClosedForm:
    def test_order_two_formulas(self):
        a, b = diag_op("A", [2.0]), diag_op("B", [-1.0])
        x0, u2 = np.array([3.0]), np.array([5.0])
        y = two_operator_closed_form(a, b, x0, [u2])
        gap = 2.0 - (-1.0)
        assert y[0][0] == pytest.approx(3.0 - u2[0] / gap)
        assert y[1][0] == pytest.approx(u2[0] / gap)

    def test_zero_previous_coefficients_propagate(self):
        a, b = diag_op("A", [3.0, 3.0]), diag_op("B", [1.0, 1.0])
        u1 = np.array([2.0, -4.0])
        y = two_operator_closed_form(a, b, u1, [np.zeros(2), np.zeros(2)])
        assert np.array_equal(y[0], u1)
        assert np.array_equal(y[1], np.zeros(2))
        assert np.array_equal(y[2], np.zeros(2))

    def test_matches_generic_solve(self):
        rng = np.random.default_rng(12)
        a = diag_op("A", rng.uniform(-2.0, -1.2, 4))
        b = diag_op("B", rng.uniform(0.4, 1.0, 4))
        xs = tuple(rng.standard_normal(4) for _ in range(4))
        eq = FactoredEquation((b, a, a, a), xs)
        generic = solve_coefficients(build_confluent_matrix(eq.grouped), xs)
        sub_data = [xs[k + 1] - b.apply(xs[k]) for k in range(3)]
        prev = solve_coefficients(build_confluent_matrix([(a, 3)]), sub_data)
        recursive = two_operator_closed_form(a, b, xs[0], prev)
        worst = max(np.max(np.abs(p - q)) for p, q in zip(generic, recursive))
        assert worst <= 1e-8

    def test_dense_difference_is_factored_once(self, monkeypatch):
        rng = np.random.default_rng(15)
        base = 0.3 * rng.standard_normal((4, 4))
        a = DenseMatrixOperator("A", -np.eye(4) + base)
        b = DenseMatrixOperator("B", 0.5 * np.eye(4) + 0.4 * base)
        factored = []
        lu = operators.lu_factor_checked
        monkeypatch.setattr(operators, "lu_factor_checked", lambda diff: factored.append(1) or lu(diff))
        prev = [rng.standard_normal(4) for _ in range(3)]
        two_operator_closed_form(a, b, rng.standard_normal(4), prev)
        assert len(factored) == 1  # for the 6 applications of (A - B)^{-1}

    def test_reconstructs_oracle_solution(self):
        rng = np.random.default_rng(13)
        a = diag_op("A", rng.uniform(-1.0, -0.5, 3))
        b = diag_op("B", rng.uniform(0.5, 1.0, 3))
        xs = tuple(rng.standard_normal(3) for _ in range(3))
        eq = FactoredEquation((b, a, a), xs)
        sub_data = [xs[k + 1] - b.apply(xs[k]) for k in range(2)]
        prev = solve_coefficients(build_confluent_matrix([(a, 2)]), sub_data)
        y = two_operator_closed_form(a, b, xs[0], prev)
        t = 0.8
        u = b.semigroup(t, y[0]) + a.semigroup(t, y[1]) + t * a.semigroup(t, y[2])
        reference = oracle_solve(eq, np.array([t])).values[0]
        assert np.max(np.abs(u - reference)) <= 1e-8


def copies(ops):
    """Fresh operator objects with the same generators as ``ops``."""
    out = []
    for op in ops:
        if isinstance(op, DenseMatrixOperator):
            out.append(DenseMatrixOperator(op.label, op.matrix))
        elif isinstance(op, SpectralDiagonalOperator):
            out.append(SpectralDiagonalOperator(op.label, op.eigenvalues, op.scale))
        else:
            out.append(TranslationOperator(op.label, op.speed, op.grid))
    return out


class TestOperatorSlot:
    """The last operator set that passed the gate keeps its verdict, and the
    last one factorized keeps its ``M``."""

    @staticmethod
    def operator_set(kind, rng):
        """Two or three distinct, commuting operators of one family."""
        if kind in ("dense-hermitian", "dense-non-normal"):
            base = 0.3 * rng.standard_normal((6, 6))
            if kind == "dense-hermitian":
                base = base + base.T
            return [DenseMatrixOperator(f"G{j}", c * np.eye(6) + s * base)
                    for j, (c, s) in enumerate([(-1.5, 0.7), (-0.5, 0.9), (0.3, 0.5)])]
        if kind == "spectral":
            return [diag_op(f"G{j}", c + 0.1 * rng.uniform(-1, 1, 5)) for j, c in enumerate([-1.5, -0.5, 0.3])]
        grid = UniformGrid(0.0, 2 * np.pi / 32, 32)
        return [TranslationOperator("G0", 0.6, grid), TranslationOperator("G1", 1.4, grid)]

    @staticmethod
    def equation(ops, rng, forced=False):
        factors = (ops[0], *ops)  # multiplicities (2, 1, ...)
        dim = ops[0].dim
        data = tuple(zero_mean_profile(rng, dim) for _ in factors)
        forcing = None
        if forced:
            c0, c1 = zero_mean_profile(rng, dim, 3), zero_mean_profile(rng, dim, 3)
            forcing = Forcing(lambda t: c0 + t * c1)
        return FactoredEquation(factors, data, forcing)

    @staticmethod
    def count(monkeypatch) -> dict:
        calls = {"defect": 0, "factorization": 0}
        defect, blocks = equation_module.commutation_defect, confluent._confluent_blocks
        factorization = confluent.BlockOperatorMatrix.__dict__["_factorization"].func

        def counting_defect(a, b):
            calls["defect"] += 1
            return defect(a, b)

        def counting_factorization(matrix):
            calls["factorization"] += 1
            return factorization(matrix)

        prop = cached_property(counting_factorization)
        prop.__set_name__(confluent.BlockOperatorMatrix, "_factorization")
        monkeypatch.setattr(equation_module, "commutation_defect", counting_defect)
        monkeypatch.setattr(confluent.BlockOperatorMatrix, "_factorization", prop)
        return calls

    @pytest.mark.parametrize("kind", ["dense-hermitian", "dense-non-normal", "spectral", "translation"])
    @pytest.mark.parametrize("forced", [False, True])
    def test_resolve_on_shared_operators_equals_fresh_copies(self, kind, forced):
        rng = np.random.default_rng(81)
        ops = self.operator_set(kind, rng)
        times = np.linspace(0.0, 1.0, 5)
        solve_full(self.equation(ops, rng, forced), times)
        state = rng.bit_generator.state
        shared = solve_full(self.equation(ops, rng, forced), times)
        rng.bit_generator.state = state
        fresh = solve_full(self.equation(copies(ops), rng, forced), times)
        assert np.array_equal(shared.values, fresh.values)
        assert shared.diagnostics["coefficient_residual"] == fresh.diagnostics["coefficient_residual"]

    @pytest.mark.parametrize("kind", ["dense-hermitian", "dense-non-normal"])
    def test_second_equation_runs_no_gate_and_no_factorization(self, monkeypatch, kind):
        rng = np.random.default_rng(82)
        ops = self.operator_set(kind, rng)
        calls = self.count(monkeypatch)
        solve_full(self.equation(ops, rng, forced=True), np.array([0.5, 1.0]))
        assert calls == {"defect": 3, "factorization": 1}
        solve_full(self.equation(ops, rng, forced=True), np.array([0.2, 0.7]))
        initial_derivative_defect(self.equation(ops, rng))
        assert calls == {"defect": 3, "factorization": 1}

    def test_other_multiplicity_or_factor_order_misses(self, monkeypatch):
        rng = np.random.default_rng(83)
        a, b, _ = self.operator_set("dense-non-normal", rng)
        calls = self.count(monkeypatch)
        first = build_confluent_matrix([(a, 2), (b, 1)])
        assert build_confluent_matrix([(a, 2), (b, 1)]) is first
        first._factorization
        assert build_confluent_matrix([(a, 1), (b, 1)]) is not first
        other = build_confluent_matrix([(a, 1), (b, 1)])
        other._factorization
        assert build_confluent_matrix([(a, 2), (b, 1)]) is not first
        assert calls["factorization"] == 2
        # the gate's verdict belongs to the operators, in order
        FactoredEquation((a, b), (np.zeros(6),) * 2)
        FactoredEquation((a, a, b), (np.zeros(6),) * 3)
        assert calls["defect"] == 1
        FactoredEquation((b, a), (np.zeros(6),) * 2)
        assert calls["defect"] == 2
        assert build_confluent_matrix([(b, 1), (a, 1)]) is not other

    def test_gating_another_set_keeps_the_factorized_matrix(self, monkeypatch):
        rng = np.random.default_rng(87)
        ops = self.operator_set("dense-non-normal", rng)
        eq = self.equation(ops, rng, forced=True)
        solve_full(eq, np.array([0.5, 1.0]))
        kept = build_confluent_matrix(eq.grouped)
        calls = self.count(monkeypatch)
        other = self.equation(self.operator_set("dense-non-normal", rng), rng)
        assert calls == {"defect": 3, "factorization": 0}
        assert build_confluent_matrix(eq.grouped) is kept
        solve_full(eq, np.array([0.2]))
        assert calls["factorization"] == 0
        assert build_confluent_matrix(other.grouped) is not kept

    def test_failed_gate_is_never_recorded(self, monkeypatch):
        rng = np.random.default_rng(84)
        ops = self.operator_set("dense-non-normal", rng)
        eq = self.equation(ops, rng)
        solve_full(eq, np.array([0.5]))
        calls = self.count(monkeypatch)
        nilpotent = [[0.0] * 6 for _ in range(6)]
        nilpotent[0][1] = 1.0
        n, m = DenseMatrixOperator("N", nilpotent), DenseMatrixOperator("M", np.array(nilpotent).T)
        for _ in range(2):
            with pytest.raises(NonCommutingFactorsError):
                FactoredEquation((n, m), (np.zeros(6),) * 2)
        assert calls["defect"] == 2
        solve_full(self.equation(ops, rng), np.array([0.5]))
        assert calls == {"defect": 2, "factorization": 0}  # the set before still holds

    def test_slot_lets_go_of_the_last_set(self):
        rng = np.random.default_rng(85)
        ops = self.operator_set("dense-hermitian", rng)
        solve_full(self.equation(ops, rng, forced=True), np.array([0.5, 1.0]))
        ref = weakref.ref(ops[0])
        del ops
        gc.collect()
        assert ref() is not None  # held for the next solve on the set
        other = self.operator_set("dense-hermitian", rng)
        solve_full(self.equation(other, rng), np.array([0.5]))
        gc.collect()
        assert ref() is None

    def test_threads_sharing_the_slot_never_get_a_wrong_verdict(self):
        # one thread's commuting set and another's non-commuting pair race
        # for the slot: the pair must fail every time, and every solve on
        # the set must give the single-thread values
        rng = np.random.default_rng(86)
        eq = self.equation(self.operator_set("dense-non-normal", rng), rng)
        times = np.array([0.5, 1.0])
        expected = solve_full(eq, times).values
        nilpotent = np.eye(6, k=1)
        pair = (DenseMatrixOperator("N", nilpotent), DenseMatrixOperator("M", nilpotent.T))
        errors = []

        def solve():
            for _ in range(200):
                again = FactoredEquation(eq.factors, eq.initial_data)
                if not np.array_equal(solve_full(again, times).values, expected):
                    errors.append("values differ")

        def gate():
            for _ in range(200):
                try:
                    FactoredEquation(pair, (np.zeros(6),) * 2)
                    errors.append("non-commuting pair passed")
                except NonCommutingFactorsError:
                    pass

        def guarded(fn):
            def run():
                try:
                    fn()
                except Exception as exc:  # named in the failure, not lost with the thread
                    errors.append(f"{type(exc).__name__}: {exc}")
            return run

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=guarded(fn)) for fn in (solve, gate, solve, gate)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert np.array_equal(solve_full(eq, times).values, expected)
