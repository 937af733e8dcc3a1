"""Closed-form solution assembly and the integral identities behind it.

Homogeneous problems evaluate

    u(t) = sum_j sum_{k=0}^{S_j - 1} (t^k / k!) e^{t B_j} y_{jk},

with the coefficient vectors ``y`` from the confluent solve against the raw
initial derivatives.  Forced problems with zero initial data evaluate the
convolution form

    u(t) = sum_j sum_k  int_0^t ((t-s)^k / k!) e^{(t-s) B_j} z_{jk} f(s) ds

with the forcing weights ``z`` from the confluent solve against
``(0, ..., 0, I)``; the integral is done per sample time with a composite
rule over ``[0, t]`` and verified by panel doubling.  Each pass of the rule
evaluates the forcing once per node and then works on every node at once:
groups with a mode basis sum ``zeta_{jk} * ((w tau^k/k!) @ (exp(outer(tau,
lambda_j)) * g_hat))`` in modes and transform back once, other groups apply
``semigroup`` with the array of ``tau`` to the stack
``sum_k (tau^k/k!) z_{jk} g``.  General initial data superposes the two
parts.

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

from .confluent import (
    BlockOperatorMatrix,
    ZCoefficients,
    build_confluent_matrix,
    solve_coefficients,
    solve_z_vector,
)
from .equation import FactoredEquation, Forcing, oracle_solve
from .errors import QuadratureUnderResolvedError
from .operators import Operator, resolvent_solve
from .statespace import (
    QuadratureRule,
    _check_time_grid,
    as_state_stack,
    as_state_vector,
    checked_exp,
    finite_difference_weights,
)
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
    for (op, mult), offset in zip(matrix.grouped, matrix.offsets):
        for k in range(mult):
            term = (t**k / math.factorial(k)) * op.semigroup(t, coeffs[offset + k])
            acc = term if acc is None else acc + term
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


def _convolution_value(
    matrix: BlockOperatorMatrix, z: ZCoefficients, forcing: Forcing, t: float, rule: QuadratureRule
) -> np.ndarray:
    """One quadrature pass over ``[0, t]``, every node at once."""
    pts, wts = rule.nodes(0.0, float(t))
    if not pts.size:
        return np.zeros(matrix.dim)
    taus = t - pts
    g = as_state_stack([forcing(float(s)) for s in pts], matrix.dim)
    acc = None
    if z.basis is not None:
        g_hat = z.modes_of(g)
        for (op, mult), offset in zip(matrix.grouped, matrix.offsets):
            # in place, unless a complex forcing meets real modal values
            grown = checked_exp(op.modal_values, taus, f"semigroup of {op.label!r}")
            in_place = np.can_cast(g_hat.dtype, grown.dtype)
            grown = np.multiply(grown, g_hat, out=grown if in_place else None)
            for k in range(mult):
                term = z.zeta[offset + k] * ((wts * (taus**k / math.factorial(k))) @ grown)
                acc = term if acc is None else acc + term
            del grown  # one (m, d) exponential alive at a time
        return z.basis.from_modes(acc, g)
    weights = z.apply_all(g)
    for (op, mult), offset in zip(matrix.grouped, matrix.offsets):
        p = sum((taus**k / math.factorial(k))[:, None] * weights[offset + k] for k in range(mult))
        term = wts @ op.semigroup(taus, p)
        acc = term if acc is None else acc + term
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
    literally, not as a running scheme); a pass evaluates the forcing once
    per node and then every node of the pass at once.  The same integrals
    are recomputed with doubled panels; if the two disagree beyond
    ``richardson_tol`` (relative to the solution scale) the solve raises
    :class:`QuadratureUnderResolvedError`.  The diagnostics then also carry
    ``richardson_rel_dev`` and ``quadrature``.  The assembly is a plain sum,
    so superposition holds to roundoff by construction.
    """
    times = _check_time_grid(t_grid)
    matrix = build_confluent_matrix(eq.grouped)
    ys = solve_coefficients(matrix, eq.initial_data)
    values = np.stack([_polynomial_semigroup_sum(matrix, ys, float(t)) for t in times])
    if eq.forcing is None:
        return SolutionTrace(times, values, {"coefficient_residual": ys.residual})

    rule = rule or default_quadrature_rule()
    z = solve_z_vector(matrix)
    rules = (rule, rule.refined(2))
    base, fine = np.array(
        [[_convolution_value(matrix, z, eq.forcing, t, r) for t in times] for r in rules]
    )
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
        "coefficient_residual": ys.residual,
    }
    return SolutionTrace(times, values + base, diagnostics)


# ---------------------------------------------------------------------------
# validation helpers
# ---------------------------------------------------------------------------


def oracle_deviation(trace: SolutionTrace, reference: SolutionTrace) -> float:
    """Largest per-sample infinity-norm difference from the oracle
    ``reference``, relative to the oracle's overall scale.  The per-sample
    deviations land in ``trace.diagnostics["oracle_dev"]`` (the column the
    CSV writer picks up)."""
    dev = np.max(np.abs(trace.values - reference.values), axis=1)
    scale = max(float(np.max(np.abs(reference.values))), 1e-12)
    rel = float(np.max(dev)) / scale
    trace.diagnostics["oracle_dev"] = dev
    trace.diagnostics["oracle_rel_dev"] = rel
    return rel


def compare_with_oracle(
    eq: FactoredEquation,
    t_grid,
    rule: QuadratureRule | None = None,
    steps_per_unit: int = 2000,
) -> tuple[SolutionTrace, SolutionTrace, float]:
    """Solve closed-form and by the companion oracle; returns
    ``(trace, oracle_trace, rel_dev)`` with :func:`oracle_deviation`."""
    trace = solve_full(eq, t_grid, rule)
    reference = oracle_solve(eq, t_grid, steps_per_unit)
    return trace, reference, oracle_deviation(trace, reference)


def initial_derivative_defect(eq: FactoredEquation) -> float:
    """How well the derivatives at ``t = 0`` of the homogeneous part
    reproduce the initial data.

    For each ``k < n`` the k-th derivative of the solution at 0 is taken
    with a one-sided 4th-order finite-difference stencil on ``h * (0 .. k+3)``
    and compared with ``x_k``; the worst relative defect is returned.  Low
    orders use step 1e-3; from the 4th derivative on the step is widened to
    keep roundoff amplification (which grows like ``h^-k``) below the
    measurement.  One solve per step size, on its longest stencil grid,
    serves every order (each sample time is evaluated on its own).

    The forced part is left out: its derivatives below order n vanish at 0
    exactly when ``M z = (0, ..., 0, I)``, which the ``z`` solve's residual
    gate checks on a random probe, while differencing it on these grids
    measures roundoff.
    """
    unforced = eq.without_forcing()
    worst = 0.0
    for h, orders in ((1e-3, range(min(eq.n, 4))), (2e-2, range(4, eq.n))):
        if not orders:
            continue
        offsets = h * np.arange(orders[-1] + 4, dtype=np.float64)
        values = solve_full(unforced, offsets).values
        for k in orders:
            derivative = finite_difference_weights(offsets[: k + 4], k) @ values[: k + 4]
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
        if not pts.size:
            return np.zeros(x.shape[0], dtype=np.result_type(x, np.float64))
        inner = j_op.semigroup(pts, np.broadcast_to(x, (pts.size, x.shape[0])))
        return (wts * (pts**k / math.factorial(k))) @ i_op.semigroup(t - pts, inner)

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

    With ``R = (A_j - A_i)^{-1}`` and ``I_{-1} = e^{t A_i} x``, every
    ``k >= 0`` follows ``I_k = (t^k/k!) R e^{t A_j} x - R I_{k-1}``.  ``R``
    never sees the difference ``(e^{t A_j} - e^{t A_i}) x``, which would hide
    the modes where ``A_i = A_j``: ``x`` exciting one raises
    :class:`NotInvertibleError`.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    x = as_state_vector(x, i_op.dim)
    lead = resolvent_solve(j_op, i_op, j_op.semigroup(t, x))
    value = i_op.semigroup(t, x)
    for m in range(k + 1):
        value = (t**m / math.factorial(m)) * lead - resolvent_solve(j_op, i_op, value)
    return value
