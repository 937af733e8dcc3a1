import numpy as np
import pytest

from factored_evolution import (
    DenseMatrixOperator,
    FactoredEquation,
    SingularSystemError,
    SpectralDiagonalOperator,
    TranslationOperator,
    UniformGrid,
    UnsupportedOperationError,
    build_confluent_matrix,
    group_factors,
    oracle_solve,
    scalar_confluent_matrix,
    solve_coefficients,
    solve_z_vector,
    two_operator_closed_form,
)

from conftest import random_dense_commuting_instance, random_spectral_instance


def diag_op(label, values):
    return SpectralDiagonalOperator(label, np.asarray(values, dtype=float))


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

    def test_entry_bounds(self):
        m = build_confluent_matrix([(diag_op("A", [1.0]), 2)])
        with pytest.raises(IndexError):
            m.entry(2, 0)
        with pytest.raises(IndexError):
            m.entry(0, 2)

    def test_str_rendering(self):
        m = build_confluent_matrix([(diag_op("B", [1.0]), 2)])
        assert str(m).split("\n")[1].split() == ["B", "I"]


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
            ys = solve_coefficients(m, eq.initial_data)
            scale = 1.0 + max(np.max(np.abs(x)) for x in eq.initial_data)
            worst = max(
                np.max(np.abs(row - x)) for row, x in zip(m.apply(ys), eq.initial_data)
            )
            assert worst <= 1e-9 * scale

    def test_residual_property_translation(self):
        grid = UniformGrid(0.0, 2 * np.pi / 64, 64)
        x = grid.points()
        left = TranslationOperator("L", 1.0, grid)
        right = TranslationOperator("R", -0.5, grid)
        m = build_confluent_matrix([(left, 1), (right, 1)])
        data = [np.sin(x), np.cos(x) - np.cos(2 * x)]  # mean-zero
        ys = solve_coefficients(m, data)
        worst = max(np.max(np.abs(row - v)) for row, v in zip(m.apply(ys), data))
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
