"""The traced benchmark's span recorder still binds every name it wraps."""

import importlib.util
from pathlib import Path

import numpy as np

import factored_evolution as fe
from factored_evolution import confluent, equation, operators, solver

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
    finally:
        tracer.uninstall()

    counts = tracer.op_counts[0]
    for name in (
        "operators.apply",
        "operators.semigroup",
        "confluent.solve_coefficients",
        "confluent.solve_z_vector",
        "equation.forcing",
    ):
        assert counts[name] > 0, name
    assert counts["equation.gate"] == 1
    # the gate takes the commutator of the generators' blocks: no spans
    # (operator actions included) open inside it
    gate = tracer.names.index("equation.gate")
    spans = tracer.arrays()
    assert not np.any(spans["parent"] == np.flatnonzero(spans["name"] == gate)[0])
    for (owner, attr), original in originals.items():
        assert getattr(owner, attr) is original, attr
