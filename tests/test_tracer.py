"""The traced benchmark's span recorder still binds every name it wraps."""

import importlib.util
from pathlib import Path

import numpy as np

import factored_evolution as fe
from factored_evolution import confluent, equation, operators, solver

from conftest import (
    random_dense_commuting_instance,
    random_dense_polynomial_instance,
    random_smooth_forcing,
)

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_install_counts_a_forced_solve_and_uninstall_restores():
    tracer_module = load_tracer()
    originals = {
        (solver, "solve_full"): solver.solve_full,
        (fe, "solve_full"): fe.solve_full,
        (confluent, "solve_coefficients"): confluent.solve_coefficients,
        (solver, "solve_z_vector"): solver.solve_z_vector,
        (operators.SpectralDiagonalOperator, "apply"): operators.SpectralDiagonalOperator.apply,
        (operators.TranslationOperator, "semigroup"): operators.TranslationOperator.semigroup,
        (equation.Forcing, "__call__"): equation.Forcing.__call__,
    }
    a = fe.SpectralDiagonalOperator("A", [-1.0, -2.0])
    b = fe.SpectralDiagonalOperator("B", [0.5, 0.25])
    rule = fe.QuadratureRule("gauss-legendre", panels=1, nodes_per_panel=4)

    tracer = tracer_module.Tracer()
    tracer.install(fe)
    try:
        assert solver.solve_full is not originals[(solver, "solve_full")]
        idx = tracer.begin_op(0)
        eq = fe.FactoredEquation(
            (a, a, b), (np.ones(2), np.zeros(2), np.zeros(2)), fe.Forcing(lambda t: np.full(2, t))
        )
        fe.solve_full(eq, np.array([0.0, 0.5]), rule)
        tracer.end_op(idx)
        # the solve works in the modes, through no operator action; the
        # actions stay wrapped for the callers that do use them
        idx = tracer.begin_op(1)
        a.apply(np.ones(2))
        a.semigroup(0.5, np.ones(2))
        tracer.end_op(idx)
    finally:
        tracer.uninstall()

    counts = tracer.op_counts[0]
    for name in ("confluent.solve_coefficients", "confluent.solve_z_vector", "equation.forcing"):
        assert counts[name] > 0, name
    assert counts["operators.apply"] == counts["operators.semigroup"] == 0
    assert tracer.op_counts[1]["operators.apply"] == tracer.op_counts[1]["operators.semigroup"] == 1
    assert counts["equation.gate"] == 1
    # the gate takes the commutator of the generators' blocks: no spans
    # (operator actions included) open inside it
    gate = tracer.names.index("equation.gate")
    spans = tracer.arrays()
    assert not np.any(spans["parent"] == np.flatnonzero(spans["name"] == gate)[0])
    for (owner, attr), original in originals.items():
        assert getattr(owner, attr) is original, attr


def test_lu_row_counts_only_the_dense_groups_that_take_the_lu():
    # a Hermitian forced solve is solved in its eigenbasis and a non-normal
    # one through one LU; the traced name must stay bound for both
    tracer_module = load_tracer()
    rng = np.random.default_rng(71)
    solves = [
        make(rng, 3, 4, "all-distinct", random_smooth_forcing(rng, 4))
        for make in (random_dense_commuting_instance, random_dense_polynomial_instance)
    ]
    tracer = tracer_module.Tracer()
    tracer.install(fe)
    try:
        for op_id, eq in enumerate(solves):
            idx = tracer.begin_op(op_id)
            fe.solve_full(eq, np.linspace(0.0, 1.0, 3))
            tracer.end_op(idx)
    finally:
        tracer.uninstall()
    assert [counts["statespace.lu_factor"] for counts in tracer.op_counts] == [0, 1]
    assert all(counts["confluent.solve_coefficients"] == 1 for counts in tracer.op_counts)
