"""Closed-form solution assembly and the integral identities behind it.

Homogeneous problems evaluate

    u(t) = sum_j sum_{k=0}^{S_j - 1} (t^k / k!) e^{t B_j} y_{jk},

with the coefficient vectors ``y`` from the confluent solve against the raw
initial derivatives.  Forced problems with zero initial data evaluate the
convolution form

    u(t) = sum_j sum_k  int_0^t ((t-s)^k / k!) e^{(t-s) B_j} z_{jk} f(s) ds

with the forcing weights ``z`` from the confluent solve against
``(0, ..., 0, I)``; the integral is done per sample time with a composite
rule over ``[0, t]`` and verified by panel doubling.  General initial data
superposes the two parts.

``lemma2_lhs`` / ``lemma2_rhs`` expose the semigroup convolution identity

    int_0^t e^{(t-s) A_i} (s^k / k!) e^{s A_j} x ds
        = (A_j - A_i)^{-1} (e^{t A_j} - e^{t A_i}) x            (k = 0)
        = (t^k / k!) (A_j - A_i)^{-1} e^{t A_j} x
          - (A_j - A_i)^{-1} * [same integral with k - 1]       (k >= 1)

as independently testable evaluators, one by quadrature and one by the
resolvent recursion.  Note the orientation of the k = 0 case: the scalar
computation ``int_0^t e^{a(t-s)} e^{bs} ds = (e^{bt} - e^{at}) / (b - a)``
fixes the sign as written above (some derivations circulate with i and j
swapped in the difference; that version does not match the scalar value).
"""

from __future__ import annotations

import math

import numpy as np

from .confluent import BlockOperatorMatrix, build_confluent_matrix, solve_coefficients, solve_z_vector
from .equation import FactoredEquation, oracle_solve
from .errors import QuadratureUnderResolvedError
from .operators import Operator, resolvent_solve
from .statespace import QuadratureRule, _check_time_grid, as_state_vector, finite_difference_weights
from .trace import SolutionTrace

# Richardson (panel-doubling) tolerances.
INHOMOGENEOUS_RICHARDSON_TOL = 1e-6
LEMMA2_RICHARDSON_TOL = 1e-8


def default_quadrature_rule() -> QuadratureRule:
    """Gauss-Legendre, 8 nodes per panel, 16 panels."""
    return QuadratureRule("gauss-legendre", panels=16, nodes_per_panel=8)


def _polynomial_semigroup_sum(matrix: BlockOperatorMatrix, coeffs, t: float) -> np.ndarray:
    """Evaluate ``sum_j sum_k (t^k/k!) e^{t B_j} coeffs[off_j + k]``."""
    acc = None
    offset = 0
    for op, mult in matrix.grouped:
        for k in range(mult):
            weight = t**k / math.factorial(k)
            term = weight * op.semigroup(t, coeffs[offset + k])
            acc = term if acc is None else acc + term
        offset += mult
    return acc


def solve_homogeneous(eq: FactoredEquation, t_grid) -> SolutionTrace:
    """Closed-form solution of the homogeneous problem on a time grid.

    Requires ``eq.forcing is None`` and is then exactly :func:`solve_full`.
    The trace diagnostics carry the residual of the coefficient solve under
    ``coefficient_residual``.
    """
    if eq.forcing is not None:
        raise ValueError("solve_homogeneous needs an equation without forcing")
    return solve_full(eq, t_grid)


def _convolution_value(matrix, z, forcing, t: float, rule: QuadratureRule) -> np.ndarray | None:
    """One quadrature pass over ``[0, t]``; None signals the empty integral."""
    pts, wts = rule.nodes(0.0, float(t))
    acc = None
    for s, w in zip(pts, wts):
        weights = z.apply_all(forcing(float(s)))
        term = _polynomial_semigroup_sum(matrix, weights, float(t - s))
        acc = w * term if acc is None else acc + w * term
    return acc


def solve_inhomogeneous_zero_ic(
    eq: FactoredEquation,
    t_grid,
    rule: QuadratureRule | None = None,
    richardson_tol: float = INHOMOGENEOUS_RICHARDSON_TOL,
) -> SolutionTrace:
    """Convolution solution of the forced problem with zero initial data.

    Requires a forcing term and zero initial data, and is then exactly
    :func:`solve_full`, whose homogeneous part solves to zero.  The forcing
    may or may not vanish at ``t = 0`` (a nonzero ``f(0)`` is the
    interesting case for the weight identities, but the formula itself does
    not need it).
    """
    if eq.forcing is None:
        raise ValueError("solve_inhomogeneous_zero_ic needs a forcing term")
    if any(np.any(x != 0) for x in eq.initial_data):
        raise ValueError("solve_inhomogeneous_zero_ic needs zero initial data")
    return solve_full(eq, t_grid, rule, richardson_tol)


def solve_full(
    eq: FactoredEquation,
    t_grid,
    rule: QuadratureRule | None = None,
    richardson_tol: float = INHOMOGENEOUS_RICHARDSON_TOL,
) -> SolutionTrace:
    """General solution: homogeneous part plus zero-IC convolution part.

    One confluent matrix ``M`` serves both parts and is factorized once:
    the coefficients ``y`` solve ``M y = (x_0, ..., x_{n-1})`` and the
    forcing weights ``z`` solve ``M z = (0, ..., 0, I)``.  The homogeneous
    part sums ``(t^k/k!) e^{t B_j} y_{jk}``; the diagnostics carry the
    residual of the ``y`` solve under ``coefficient_residual``.

    With a forcing term the convolution part is added.  Every sample time
    gets a fresh composite rule over ``[0, t]`` (the formula is evaluated
    literally, not as a running scheme).  The same integrals are recomputed
    with doubled panels; if the two disagree beyond ``richardson_tol``
    (relative to the solution scale) the solve raises
    :class:`QuadratureUnderResolvedError`.  The diagnostics then also carry
    ``richardson_rel_dev`` and ``quadrature``.  The assembly is a plain sum,
    so superposition holds to roundoff by construction.
    """
    times = _check_time_grid(t_grid)
    matrix = build_confluent_matrix(eq.grouped)
    ys = solve_coefficients(matrix, eq.initial_data)
    residual = max(
        float(np.max(np.abs(row - x)))
        for row, x in zip(matrix.apply(ys), eq.initial_data)
    )
    values = np.stack([_polynomial_semigroup_sum(matrix, ys, float(t)) for t in times])
    if eq.forcing is None:
        return SolutionTrace(times, values, {"coefficient_residual": residual})

    rule = rule or default_quadrature_rule()
    z = solve_z_vector(matrix)
    fine_rule = rule.refined(2)
    zero = np.zeros(eq.dim)
    base_rows, fine_rows = [], []
    for t in times:
        coarse_val = _convolution_value(matrix, z, eq.forcing, t, rule)
        if coarse_val is None:  # t == 0
            base_rows.append(zero)
            fine_rows.append(zero)
            continue
        base_rows.append(coarse_val)
        fine_rows.append(_convolution_value(matrix, z, eq.forcing, t, fine_rule))
    base = np.stack(base_rows)
    fine = np.stack(fine_rows)
    scale = float(np.max(np.abs(fine))) if fine.size else 0.0
    dev = float(np.max(np.abs(base - fine))) / (scale + 1e-30)
    if dev > richardson_tol:
        raise QuadratureUnderResolvedError(
            f"panel doubling changed the solution by {dev:.3e} relative "
            f"(> {richardson_tol:.1e}); increase panels or nodes_per_panel"
        )
    diagnostics = {
        "richardson_rel_dev": dev,
        "quadrature": {"kind": rule.kind, "panels": rule.panels, "nodes_per_panel": rule.nodes_per_panel},
        "coefficient_residual": residual,
    }
    return SolutionTrace(times, values + base, diagnostics)


# ---------------------------------------------------------------------------
# validation helpers
# ---------------------------------------------------------------------------


def compare_with_oracle(
    eq: FactoredEquation,
    t_grid,
    rule: QuadratureRule | None = None,
    steps_per_unit: int = 2000,
) -> tuple[SolutionTrace, SolutionTrace, float]:
    """Solve closed-form and by the companion oracle; attach deviations.

    Returns ``(trace, oracle_trace, rel_dev)`` where ``rel_dev`` is the
    largest per-sample infinity-norm difference relative to the oracle's
    overall scale.  The per-sample deviations land in the trace diagnostics
    under ``oracle_dev`` (this is the column the CSV writer picks up).
    """
    trace = solve_full(eq, t_grid, rule)
    reference = oracle_solve(eq, t_grid, steps_per_unit)
    dev = np.max(np.abs(trace.values - reference.values), axis=1)
    scale = max(float(np.max(np.abs(reference.values))), 1e-12)
    rel = float(np.max(dev)) / scale
    trace.diagnostics["oracle_dev"] = dev
    trace.diagnostics["oracle_rel_dev"] = rel
    return trace, reference, rel


def initial_derivative_defect(eq: FactoredEquation, rule: QuadratureRule | None = None) -> float:
    """How well trace derivatives at ``t = 0`` reproduce the initial data.

    For each ``k < n`` the k-th derivative of the solution at 0 is taken
    with a one-sided 4th-order finite-difference stencil and compared with
    ``x_k``; the worst relative defect is returned.  Low orders use step
    1e-3; from the 4th derivative on the step is widened to keep roundoff
    amplification (which grows like ``h^-k``) below the measurement.
    """
    worst = 0.0
    for k in range(eq.n):
        h = 1e-3 if k <= 3 else 2e-2
        offsets = h * np.arange(k + 4, dtype=np.float64)
        weights = finite_difference_weights(offsets, k)
        values = solve_full(eq, offsets, rule).values
        derivative = weights @ values
        defect = float(np.max(np.abs(derivative - eq.initial_data[k])))
        worst = max(worst, defect / (1.0 + float(np.max(np.abs(eq.initial_data[k])))))
    return worst


# ---------------------------------------------------------------------------
# semigroup convolution identity (quadrature vs resolvent recursion)
# ---------------------------------------------------------------------------


def lemma2_lhs(
    i_op: Operator,
    j_op: Operator,
    k: int,
    t: float,
    x,
    rule: QuadratureRule | None = None,
) -> np.ndarray:
    """Quadrature value of ``int_0^t e^{(t-s) A_i} (s^k/k!) e^{s A_j} x ds``.

    The value is verified by panel doubling to ``LEMMA2_RICHARDSON_TOL``
    and the refined value is returned.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    x = as_state_vector(x, i_op.dim)
    rule = rule or default_quadrature_rule()

    def integrate(r: QuadratureRule) -> np.ndarray:
        pts, wts = r.nodes(0.0, float(t))
        acc = np.zeros(x.shape[0], dtype=np.result_type(x, np.float64))
        for s, w in zip(pts, wts):
            weight = s**k / math.factorial(k)
            acc = acc + (w * weight) * i_op.semigroup(t - s, j_op.semigroup(s, x))
        return acc

    base = integrate(rule)
    fine = integrate(rule.refined(2))
    err = float(np.max(np.abs(base - fine))) if base.size else 0.0
    if err > LEMMA2_RICHARDSON_TOL * (1.0 + float(np.max(np.abs(fine)))):
        raise QuadratureUnderResolvedError(
            f"convolution quadrature not resolved: doubling panels moved the "
            f"value by {err:.3e}"
        )
    return fine


def lemma2_rhs(i_op: Operator, j_op: Operator, k: int, t: float, x) -> np.ndarray:
    """Closed form of the same convolution via the resolvent recursion.

    Base case ``k = 0`` is ``(A_j - A_i)^{-1}(e^{t A_j} - e^{t A_i}) x``
    (orientation fixed by the scalar computation, see the module docstring);
    higher ``k`` peel one power of ``s`` per recursion step.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    x = as_state_vector(x, i_op.dim)
    if k == 0:
        diff = j_op.semigroup(t, x) - i_op.semigroup(t, x)
        return resolvent_solve(j_op, i_op, diff)
    lead = (t**k / math.factorial(k)) * resolvent_solve(j_op, i_op, j_op.semigroup(t, x))
    return lead - resolvent_solve(j_op, i_op, lemma2_rhs(i_op, j_op, k - 1, t, x))
