"""The one input contract: every entry point takes its time grids, times and
counts through the coercions of ``statespace`` (``as_time_grid``,
``as_times``, ``as_count``), so the solver and its referees accept the same
inputs and refuse the others with the same error class."""

import json
import numbers

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from factored_evolution import (
    BlockOperatorMatrix,
    DenseMatrixOperator,
    Example1Problem,
    Example2Problem,
    FactoredEquation,
    InvalidInputError,
    QuadratureRule,
    SpectralDiagonalOperator,
    UniformGrid,
    UnsupportedOperationError,
    build_confluent_matrix,
    compare_with_oracle,
    example1_closed_form,
    example2_closed_form_modal,
    expm_apply,
    lemma2_lhs,
    lemma2_rhs,
    oracle_solve,
    rk4_integrate,
    solve_full,
)
from factored_evolution import cli, solver
from factored_evolution.confluent import MAX_ORDER
from factored_evolution.statespace import MAX_NODES_PER_PANEL

PROPERTY = settings(derandomize=True, database=None, max_examples=60, deadline=None)

A = SpectralDiagonalOperator("a", [-1.0, -0.5])
B = SpectralDiagonalOperator("b", [0.3, -2.0])
EQ = FactoredEquation((A, A), (np.array([1.0, 0.0]), np.array([0.0, 1.0])))
GRID = UniformGrid(0.0, 2.0 * np.pi / 8, 8)
WAVE = Example1Problem(2.0, 1.0, GRID, np.sin(GRID.points()), np.cos(GRID.points()))
PLATE = Example2Problem(2.0, 1.0, 3, [1.0, 0.5, 0.2], [0.0, 1.0, 0.0])
X = np.array([1.0, -2.0])


def outcome(call):
    """``None`` if ``call()`` returns, else the class of what it raised."""
    try:
        call()
    except Exception as exc:  # the class is the outcome
        return type(exc)
    return None


# ---------------------------------------------------------------------------
# time grids
# ---------------------------------------------------------------------------

TIME_GRID_ENTRY_POINTS = {
    "solve_full": lambda t_grid: solve_full(EQ, t_grid),
    "oracle_solve": lambda t_grid: oracle_solve(EQ, t_grid),
    "compare_with_oracle": lambda t_grid: compare_with_oracle(EQ, t_grid),
    "example1_closed_form": lambda t_grid: example1_closed_form(WAVE, t_grid),
    "example2_closed_form_modal": lambda t_grid: example2_closed_form_modal(PLATE, t_grid),
}


GRID_KINDS = [
    "array", "list", "negative", "decreasing", "repeated", "nan", "inf", "-inf", "complex",
    "2-D", "scalar", "empty", "bool", "string", "ragged",
]


def drawn_grid(kind, draw):
    """``(expected outcome, t_grid)``: a valid grid in [0, 2], as an array
    or a list, or one spoiled as ``kind`` says."""
    grid = sorted(draw(st.lists(st.floats(0.0, 2.0), min_size=1, max_size=4, unique=True)))
    if kind in ("array", "list"):
        return None, np.array(grid) if kind == "array" else grid
    if kind == "complex":
        return UnsupportedOperationError, np.array(grid) + 1j * draw(st.floats(0.0, 1.0))
    if kind in ("nan", "inf", "-inf"):
        at = draw(st.integers(0, len(grid)))
        return InvalidInputError, grid[:at] + [float(kind)] + grid[at:]
    return InvalidInputError, {
        "negative": lambda: [-draw(st.floats(1e-300, 1e3))] + grid,
        "decreasing": lambda: [grid[-1] + draw(st.floats(1e-3, 1.0))] + grid,
        "repeated": lambda: grid + grid[-1:],
        "2-D": lambda: [grid],
        "scalar": lambda: grid[0],
        "empty": lambda: [],
        "bool": lambda: [False, True],
        "string": lambda: [str(t) for t in grid],
        "ragged": lambda: [grid, grid + [3.0]],
    }[kind]()


@pytest.mark.parametrize("kind", GRID_KINDS)
@PROPERTY
@given(data=st.data())
def test_time_grid_entry_points_accept_or_refuse_alike(kind, data):
    expected, t_grid = drawn_grid(kind, data.draw)
    outcomes = {name: outcome(lambda: call(t_grid)) for name, call in TIME_GRID_ENTRY_POINTS.items()}
    assert set(outcomes.values()) == {expected}, outcomes


BAD_GRIDS = {
    "negative": [-1.0, 0.5],
    "decreasing": [1.0, 0.5],
    "nan": [0.0, np.nan],
    "complex": [0.0, 0.5 + 1j],
    "2-D": [[0.0, 0.5]],
    "empty": [],
}


@pytest.mark.parametrize("t_grid", BAD_GRIDS.values(), ids=BAD_GRIDS)
@pytest.mark.parametrize("closed_form", ["example1_closed_form", "example2_closed_form_modal"])
def test_pde_closed_forms_refuse_what_solve_full_refuses(closed_form, t_grid):
    expected = outcome(lambda: solve_full(EQ, t_grid))
    assert expected in (InvalidInputError, UnsupportedOperationError)
    assert outcome(lambda: TIME_GRID_ENTRY_POINTS[closed_form](t_grid)) is expected


# ---------------------------------------------------------------------------
# horizons
# ---------------------------------------------------------------------------

TIME = st.floats(0.0, 2.0)
HORIZONS = {  # kind: (expected outcome, strategy)
    "float": (None, TIME),
    "0-d array": (None, TIME.map(np.array)),
    "int": (None, st.integers(0, 2)),
    "negative": (InvalidInputError, st.floats(-1e3, -1e-300)),
    "list": (InvalidInputError, TIME.map(lambda t: [t])),
    "1-D array": (InvalidInputError, TIME.map(lambda t: np.array([t, t]))),
    "complex": (UnsupportedOperationError, TIME.map(lambda t: complex(t, 0.0))),
    "complex array": (UnsupportedOperationError, TIME.map(lambda t: np.array(1j * t))),
    "not finite": (InvalidInputError, st.sampled_from([np.nan, np.inf, -np.inf])),
    "no number": (InvalidInputError, st.sampled_from([True, "0.5", None])),
}


@pytest.mark.parametrize("kind", HORIZONS)
@PROPERTY
@given(data=st.data())
def test_lemma2_sides_accept_or_refuse_a_horizon_alike(kind, data):
    expected, times = HORIZONS[kind]
    t = data.draw(times)
    outcomes = {side.__name__: outcome(lambda: side(A, B, 1, t, X)) for side in (lemma2_lhs, lemma2_rhs)}
    assert set(outcomes.values()) == {expected}, outcomes


MATRIX = np.array([[-1.0, 0.3], [0.0, -0.5]])
ONE_TIME_ENTRY_POINTS = {
    "expm_apply": lambda t: expm_apply(MATRIX, t, X),
    "DenseMatrixOperator.semigroup": lambda t: DenseMatrixOperator("m", MATRIX).semigroup(t, X),
    "SpectralDiagonalOperator.semigroup": lambda t: A.semigroup(t, X),
}
GROUP_TIME = st.floats(-2.0, 2.0)
ONE_TIME = {  # kind: (expected outcome, strategy); a group takes negative times
    "float": (None, GROUP_TIME),
    "0-d array": (None, GROUP_TIME.map(np.array)),
    "int": (None, st.integers(-2, 2)),
    "complex": (UnsupportedOperationError, GROUP_TIME.map(lambda t: complex(0.0, t))),
    "not finite": (InvalidInputError, st.sampled_from([np.nan, np.inf, -np.inf])),
    "no number": (InvalidInputError, st.sampled_from([True, "0.5", None])),
}


@pytest.mark.parametrize("kind", ONE_TIME)
@PROPERTY
@given(data=st.data())
def test_one_time_entry_points_accept_or_refuse_alike(kind, data):
    expected, times = ONE_TIME[kind]
    t = data.draw(times)
    outcomes = {name: outcome(lambda: call(t)) for name, call in ONE_TIME_ENTRY_POINTS.items()}
    assert set(outcomes.values()) == {expected}, outcomes


@pytest.mark.parametrize("t", [[0.5], [0.5, 1.0], np.array([[0.5]])], ids=repr)
def test_expm_apply_takes_one_time(t):
    # a list of times would broadcast against the state as one row each
    with pytest.raises(InvalidInputError, match=r"^t must be one time, got shape"):
        expm_apply(MATRIX, t, X)


# ---------------------------------------------------------------------------
# counts
# ---------------------------------------------------------------------------

CONFIG = cli.parse_config(json.dumps({
    "backend": {"family": "spectral"},
    "operators": {"a": {"eigenvalues": [-1.0]}},
    "factors": ["a"],
    "initial_data": [{"profile": "random-normal"}],
    "time": {"t_end": 1.0, "samples": 3},
}))


def _modes(n):
    return np.ones(n if _is_integer(n) and n >= 1 else 1)


def _is_integer(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


# name: (low, high, largest value past which the order cap refuses it, call)
COUNT_SITES = {
    "QuadratureRule.panels": (1, None, None, lambda n: QuadratureRule(panels=n)),
    "QuadratureRule.nodes_per_panel": (
        1, MAX_NODES_PER_PANEL, None, lambda n: QuadratureRule(nodes_per_panel=n)),
    "UniformGrid.n": (2, None, None, lambda n: UniformGrid(0.0, 0.1, n)),
    "oracle_solve.steps_per_unit": (1, None, None, lambda n: oracle_solve(EQ, [0.5], n)),
    "compare_with_oracle.steps_per_unit": (
        1, None, None, lambda n: compare_with_oracle(EQ, [0.5], steps_per_unit=n)),
    "lemma2_lhs.k": (0, None, MAX_ORDER - 1, lambda n: lemma2_lhs(A, B, n, 0.5, X)),
    "lemma2_rhs.k": (0, None, MAX_ORDER - 1, lambda n: lemma2_rhs(A, B, n, 0.5, X)),
    "rk4_integrate.steps": (1, None, None, lambda n: rk4_integrate(lambda t, u: -u, [1.0], 1.0, n)),
    "Example2Problem.num_modes": (1, None, None, lambda n: Example2Problem(2.0, 1.0, n, _modes(n), _modes(n))),
    "BlockOperatorMatrix multiplicity": (
        1, None, MAX_ORDER - 1, lambda n: BlockOperatorMatrix(((A, n), (B, 1)))),
    "build_confluent_matrix multiplicity": (
        1, None, MAX_ORDER - 1, lambda n: build_confluent_matrix(((A, n), (B, 1)))),
    "ProblemConfig.materialize seed": (0, None, None, lambda n: CONFIG.materialize(n)),
}


def expected_for_count(value, low, high, cap):
    if not _is_integer(value) or value < low or (high is not None and value > high):
        return InvalidInputError
    return UnsupportedOperationError if cap is not None and value > cap else None


def check_count_sites(value):
    outcomes = {
        name: (outcome(lambda: call(value)), expected_for_count(value, low, high, cap))
        for name, (low, high, cap, call) in COUNT_SITES.items()
    }
    assert all(got is expected for got, expected in outcomes.values()), outcomes


@PROPERTY
@given(value=st.one_of(st.integers(-3, 12), st.integers(-3, 12).map(np.int64)))
def test_every_count_site_takes_exactly_the_integers_in_its_range(value):
    check_count_sites(value)


@pytest.mark.parametrize(
    "value",
    [2.5, 2.0, True, False, None, np.nan, "5", np.uint8(4), np.bool_(True), 1 + 0j, [3],
     MAX_ORDER, MAX_NODES_PER_PANEL + 1],
    ids=repr,
)
def test_every_count_site_refuses_what_is_no_count_alike(value):
    check_count_sites(value)


@pytest.mark.parametrize("steps_per_unit", [0, 2.5, True, np.nan])
def test_compare_with_oracle_refuses_steps_before_solving(monkeypatch, steps_per_unit):
    calls = []
    solve = solver.solve_full
    monkeypatch.setattr(solver, "solve_full", lambda *args, **kwargs: calls.append(args) or solve(*args, **kwargs))
    with pytest.raises(InvalidInputError, match="^steps_per_unit must be an integer >= 1, got"):
        compare_with_oracle(EQ, [0.5, 1.0], steps_per_unit=steps_per_unit)
    assert calls == []


@pytest.mark.parametrize("mult", [1.5, 2.0, True, np.bool_(True), 0, None], ids=repr)
def test_multiplicities_are_integers(mult):
    # a valid matrix is built first: the kept one must not answer for 2.0
    # or True, which compare equal to 2 and 1
    for valid in (1, 2):
        assert build_confluent_matrix(((A, valid), (B, 1))).n == valid + 1
        with pytest.raises(InvalidInputError, match="^multiplicity of 'a' must be an integer >= 1, got"):
            build_confluent_matrix(((A, mult), (B, 1)))
    with pytest.raises(InvalidInputError, match="^multiplicity of 'a' must be an integer >= 1, got"):
        BlockOperatorMatrix(((A, mult), (B, 1)))


@pytest.mark.parametrize("steps", [True, 2.5, np.nan, 0, None])
def test_rk4_steps_are_a_count(steps):
    calls = []
    with pytest.raises(InvalidInputError, match="^steps must be an integer >= 1, got"):
        rk4_integrate(lambda t, u: calls.append(t) or -u, np.ones(2), 1.0, steps)
    assert calls == []


@pytest.mark.parametrize("num_modes", [True, 2.5, 0, None])
def test_example2_num_modes_is_a_count(num_modes):
    with pytest.raises(InvalidInputError, match="^num_modes must be an integer >= 1, got"):
        Example2Problem(2.0, 1.0, num_modes, np.ones(2), np.ones(2))
