"""Properties of the closed form over the random instance generators:
factor-order invariance, superposition, the confluent residuals, the
initial data the ansatz meets, and the commutation that lets the forced
part weigh by ``z`` last."""

import numpy as np
from hypothesis import given, settings, strategies as st

from factored_evolution import FactoredEquation, confluent, initial_derivative_defect, operators, solve_full

from conftest import (
    max_rel_dev,
    random_commuting_instance,
    random_dense_commuting_instance,
    random_smooth_forcing,
    random_translation_instance,
)

PROPERTY = settings(derandomize=True, database=None, max_examples=12, deadline=None)
FAMILIES = st.sampled_from(["spectral", "dense", "periodic-translation"])
T_GRID = np.array([0.0, 0.3, 0.8])


def instance(seed, family, n, forced=True):
    rng = np.random.default_rng(seed)
    if family == "periodic-translation":
        return random_translation_instance(rng, n, 16, forced=forced)
    forcing = random_smooth_forcing(rng, 4) if forced else None
    return random_commuting_instance(rng, n, 4, family, forcing=forcing)


def worst_row_residual(rows, rhs) -> float:
    scale = 1.0 + max(float(np.max(np.abs(x))) for x in rhs)
    return max(float(np.max(np.abs(r - x))) for r, x in zip(rows, rhs)) / scale


@PROPERTY
@given(seed=st.integers(0, 2**16), family=FAMILIES, n=st.integers(2, 4), forced=st.booleans())
def test_factor_order_does_not_change_the_solution(seed, family, n, forced):
    eq = instance(seed, family, n, forced)
    order = np.random.default_rng(seed + 1).permutation(n)
    permuted = FactoredEquation(tuple(eq.factors[i] for i in order), eq.initial_data, eq.forcing)
    values = solve_full(eq, T_GRID).values
    assert max_rel_dev(solve_full(permuted, T_GRID).values, values) <= 1e-12


@PROPERTY
@given(seed=st.integers(0, 2**16), family=FAMILIES, n=st.integers(1, 4))
def test_solution_is_homogeneous_plus_forced_part(seed, family, n):
    eq = instance(seed, family, n)
    values = solve_full(eq, T_GRID).values
    homogeneous = solve_full(eq.without_forcing(), T_GRID).values
    forced = solve_full(eq.with_zero_initial_data(), T_GRID).values
    assert max_rel_dev(homogeneous + forced, values) <= 1e-14


@PROPERTY
@given(seed=st.integers(0, 2**16), family=FAMILIES, n=st.integers(1, 4))
def test_coefficients_and_forcing_weights_solve_the_confluent_system(seed, family, n):
    eq = instance(seed, family, n)
    matrix = confluent.build_confluent_matrix(eq.grouped)
    ys = confluent.solve_coefficients(matrix, eq.initial_data)  # in the basis
    on_grid = matrix.basis.from_modes(np.stack(ys), np.stack(eq.initial_data))
    assert worst_row_residual(matrix.apply(list(on_grid)), eq.initial_data) <= 1e-11
    g = eq.forcing(0.37)
    e_n = [np.zeros_like(g)] * (n - 1) + [g]
    z = confluent.solve_z_vector(matrix)
    assert worst_row_residual(matrix.apply(z.apply_all(g)), e_n) <= 1e-11


@PROPERTY
@given(seed=st.integers(0, 2**16), family=FAMILIES, n=st.integers(1, 5), forced=st.booleans())
def test_the_ansatz_meets_the_initial_data(seed, family, n, forced):
    eq = instance(seed, family, n, forced)
    assert initial_derivative_defect(eq) <= 1e-9
    x0 = eq.initial_data[0]
    assert np.max(np.abs(solve_full(eq, [0.0]).values[0] - x0)) <= 1e-10 * np.max(np.abs(x0))


@PROPERTY
@given(seed=st.integers(0, 2**16), n=st.integers(2, 5), pattern=st.sampled_from(["all-distinct", "mixed"]))
def test_dense_forcing_weights_commute_with_every_generator(seed, n, pattern):
    eq = random_dense_commuting_instance(np.random.default_rng(seed), n, 5, pattern)
    matrix = confluent.build_confluent_matrix(eq.grouped)
    z = confluent.solve_z_vector(matrix)
    assert z.zeta.shape == (n, 5, 1, 1)  # one weight per mode and k, in the shared eigenbasis
    blocks = np.stack([z.apply_all(e) for e in np.eye(5)], axis=-1)  # z_k as d x d matrices
    for a in operators.generator_blocks(op for op, _ in eq.grouped)[:, 0]:
        for z_k in blocks:
            defect = np.linalg.norm(z_k @ a - a @ z_k) / (np.linalg.norm(z_k) * np.linalg.norm(a) + 1e-300)
            assert defect <= 1e-12


FINITE = {"allow_nan": False, "allow_infinity": False}
MODAL_VALUES = st.one_of(
    st.floats(-1e150, 1e150, **FINITE), st.complex_numbers(max_magnitude=1e150, **FINITE)
)


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(data=st.data(), translation=st.booleans(), dim=st.integers(1, 40))
def test_modal_factors_commute_exactly(data, translation, dim):
    # 1x1 blocks: the commutator of any two modal generators is exactly 0,
    # however wide their values
    if translation:
        grid = operators.UniformGrid(0.0, data.draw(st.floats(1e-3, 1e3)), max(dim, 2))
        a, b = (operators.TranslationOperator(label, data.draw(MODAL_VALUES), grid) for label in "ab")
    else:
        values = st.lists(MODAL_VALUES, min_size=dim, max_size=dim)
        a, b = (operators.SpectralDiagonalOperator(label, data.draw(values)) for label in "ab")
    assert operators.commutation_defect(a, b) == 0.0
