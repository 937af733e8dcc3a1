"""Closed-form solution assembly and the integral identities behind it.

Homogeneous problems evaluate

    u(t) = sum_j sum_{k=0}^{S_j - 1} (t^k / k!) e^{t B_j} y_{jk},

with the coefficient vectors ``y`` from the confluent solve against the raw
initial derivatives.  Forced problems with zero initial data evaluate the
convolution form

    u(t) = sum_j sum_k  int_0^t ((t-s)^k / k!) e^{(t-s) B_j} z_{jk} f(s) ds

with the forcing weights ``z`` from the confluent solve against
``(0, ..., 0, I)``; the integral takes the Gauss sums of a composite
Gauss-Legendre rule, checked against the Kronrod sums of the same pass.
General initial data superposes the two parts.

Both parts act on each group through one operator, its actor
(:attr:`BlockOperatorMatrix.actors`), in the basis ``y`` was solved in.
The homogeneous part is :func:`_semigroup_sum`: each group grows the
coefficients for all sample times at once, a modal one by its exponential
rows (:meth:`Operator.rows`) in one scratch stack, a dense one on the grid
by its action; the sum is checked once and goes back to the grid once.
Both parts assemble a real periodic output (a real speed and real data)
in its leading modes ``0 .. d//2`` only, the rest being their conjugates,
and take it back by ``irfft`` (:meth:`ModeBasis.kept_modes`); the per-mode
solves and their gates see every mode.  The ``z_{jk}``
commute with every ``e^{tau B_j}``, so the forced part is
``sum_j sum_k z_{jk} H_{jk}(t)`` with
``H_{jk}(t) = int_0^t ((t-s)^k/k!) e^{(t-s) B_j} f(s) ds``.  A quadrature
pass covers ``[0, t_last]`` once and marches across the sample intervals:
the semigroup property and the binomial theorem carry ``H_{jk}`` exactly
from one sample time to the next, so only each new interval's integral is
a quadrature (:func:`_duhamel_pass`).  One walk over the intervals
(:func:`_interval_runs`) gathers them into runs of one shape (panel count
and width), each with one quadrature rule and one node layout, so a
uniform grid repeats the same node offsets in every interval.  A layout
holds each panel's q Gauss nodes and their q + 1 Kronrod nodes
(:meth:`QuadratureRule.gauss_kronrod`), so one pass gives both sums.  The
pass takes the forcing at every node as one stack (:meth:`Forcing.many`)
in the groups' shared basis; each actor's ``propagate`` grows a run's
block of it with one exponential of the run's offsets.  Both sums are
carried interval by interval: a modal actor (``mode_basis`` set)
multiplies by its carry row ``e^{D lambda}``, formed once per run of width
``D``, and a dense group on the grid takes one action of width ``D`` per
interval.
:meth:`ZCoefficients.weigh` applies ``z`` to the sums last.

``lemma2_lhs`` / ``lemma2_rhs`` expose the semigroup convolution identity

    int_0^t e^{(t-s) A_i} (s^k / k!) e^{s A_j} x ds
        = (A_j - A_i)^{-1} (e^{t A_j} - e^{t A_i}) x            (k = 0)
        = (t^k / k!) (A_j - A_i)^{-1} e^{t A_j} x
          - (A_j - A_i)^{-1} * [same integral with k - 1]       (k >= 1)

as independently testable evaluators: the closed form of a repeated factor
by one :func:`_duhamel_pass`, and the resolvent recursion.  Note the
orientation of the k = 0 case: the scalar
computation ``int_0^t e^{a(t-s)} e^{bs} ds = (e^{bt} - e^{at}) / (b - a)``
fixes the sign as written above (some derivations circulate with i and j
swapped in the difference; that version does not match the scalar value).
"""

from __future__ import annotations

import math
from dataclasses import asdict, replace
from functools import partial

import numpy as np

from .confluent import (
    MAX_ORDER,
    BlockOperatorMatrix,
    ZCoefficients,
    build_confluent_matrix,
    solve_coefficients,
    solve_z_vector,
)
from .equation import ORACLE_STEPS_PER_UNIT, FactoredEquation, Forcing, oracle_solve
from .errors import InvalidInputError, QuadratureUnderResolvedError, UnsupportedOperationError
from .operators import DEAD_MODE_RTOL, Operator, _times_rows, generator_blocks, require_same_family, resolvent_solve
from .statespace import QuadratureRule, as_count, as_state_vector, as_time_grid, as_times, check_finite, checked_rows
from .trace import SolutionTrace

# Quadrature error gates on the Gauss-Kronrod difference of one Duhamel
# pass.  INHOMOGENEOUS_RICHARDSON_TOL bounds it for a forced solve
# (:func:`solve_full`) relative to the forced part's largest entry;
# LEMMA2_RICHARDSON_TOL for :func:`lemma2_lhs`, relative to 1 + that entry.
INHOMOGENEOUS_RICHARDSON_TOL = 1e-6
LEMMA2_RICHARDSON_TOL = 1e-8

# Consecutive sample intervals whose widths agree to this many ulps of the
# last sample time under one panel count share one node layout
# (:func:`_interval_runs`); a width is a difference of sample times, so it
# carries up to one ulp of the last one.
_SHAPE_ULPS = 8

# Fewest nodes of the circle :func:`_initial_derivatives` reads the ansatz
# on (:func:`_circle`).
_CIRCLE_NODES = 24


def _semigroup_sum(matrix: BlockOperatorMatrix, y, taus: np.ndarray, like: np.ndarray, check=False) -> np.ndarray:
    """The rows ``sum_j e^{tau_i B_j} sum_k (tau_i^k/k!) y[off_j + k]``,
    shape ``(m, d)``, for coefficients ``y`` in ``matrix.basis``, exact at
    ``tau = 0``, summed in place and taken back to the grid once with ``like``
    as the real-output rule.  A real ``like`` on a real periodic grid keeps
    only the leading modes (:meth:`ModeBasis.kept_modes`); the derivative
    circle's complex ``taus`` come with a complex ``like``, which keeps every
    mode.  Each group grows by its actor (:attr:`BlockOperatorMatrix.actors`):
    a modal one forms its :meth:`Operator.rows` and one product in a scratch
    stack that every group after the first reuses, and a dense one on the
    grid calls its ``propagate`` on a contiguous stack, so that matrix
    products sum in one order.  ``inf`` and ``nan`` survive every product
    and sum, so the sum is checked once; a non-finite one is summed again
    with ``check``, which checks each group's rows and names the first bad
    group and time (:class:`SemigroupOverflowError`)."""
    basis = matrix.basis
    kept = basis.kept_modes(like)
    zero = taus == 0
    acc = scratch = None
    for (_, mult), offset, actor in zip(matrix.grouped, matrix.offsets, matrix.actors):
        if mult == 1:
            p = np.broadcast_to(y[offset][:kept], (taus.size, kept))
        else:
            p = sum((taus**k / math.factorial(k))[:, None] * y[offset + k][:kept] for k in range(mult))
        if actor.mode_basis is None:
            grown = actor.propagate(taus, np.ascontiguousarray(p))
        else:
            reuse = scratch is not None and scratch.dtype == np.result_type(taus, actor.modal_values)
            grown = _times_rows(actor.rows(taus, kept, out=scratch if reuse else None), p)
        grown[zero] = p[zero]
        if check:
            checked_rows(grown, taus, f"semigroup of {actor.label!r}")
        if acc is None:
            acc = grown
        else:
            acc = np.add(acc, grown, out=acc if np.can_cast(grown.dtype, acc.dtype) else None)
            scratch = grown
    if not (check or np.isfinite(acc).all()):
        return _semigroup_sum(matrix, y, taus, like, check=True)
    return basis.from_modes(acc, like)


def solve_homogeneous(eq: FactoredEquation, t_grid) -> SolutionTrace:
    """Closed-form solution of the homogeneous problem on a time grid.

    Requires ``eq.forcing is None`` and is then exactly :func:`solve_full`.
    The trace diagnostics carry the residual of the coefficient solve under
    ``coefficient_residual``.
    """
    if eq.forcing is not None:
        raise InvalidInputError("solve_homogeneous needs an equation without forcing")
    return solve_full(eq, t_grid)


def _interval_runs(
    rule: QuadratureRule, times: np.ndarray
) -> tuple[np.ndarray, list[tuple[int, int, QuadratureRule]]]:
    """The edges ``0, t_i > 0`` of the sample intervals and their runs
    ``(start, stop, rule)`` of one shape.  An interval gets ``ceil(panels
    * width / t_last)`` panels, so that no panel is wider than ``t_last /
    panels``, and joins the run of the one before it when the panel counts
    agree and its width is within ``_SHAPE_ULPS`` ulps of the last edge of
    the run's first width; a run's rule has its panel count."""
    edges = np.concatenate([[0.0], times[times > 0]])
    widths = np.diff(edges)
    if not widths.size:
        return edges, []
    # The widths are differences of sample times, so an exact multiple of
    # t_last / panels can land a few ulps above its count; the slack keeps
    # it on the count and widens no panel by more than 1e-9 relative.
    counts = np.ceil(widths / edges[-1] * rule.panels - 1e-9 * rule.panels)
    counts = np.maximum(counts, 1).astype(int).tolist()
    slack = _SHAPE_ULPS * np.spacing(edges[-1])
    starts = [0]
    for i, width in enumerate(widths.tolist()):
        j = starts[-1]
        if not (abs(width - widths[j]) <= slack and counts[i] == counts[j]):
            starts.append(i)
    stops = starts[1:] + [widths.size]
    return edges, [(a, b, replace(rule, panels=counts[a])) for a, b in zip(starts, stops)]


def _binomial_shift(width: float, mult: int) -> np.ndarray:
    """The matrix ``C[k, l] = width^(k-l) / (k-l)!`` for ``l <= k`` (zero
    above), which carries ``(t-s)^k/k!`` across an interval of ``width``."""
    return np.array([
        [width ** (k - l) / math.factorial(k - l) if l <= k else 0.0 for l in range(mult)]
        for k in range(mult)
    ])


def _duhamel_pass(
    z: ZCoefficients, forcing: Forcing, times: np.ndarray, edges: np.ndarray, runs
) -> tuple[np.ndarray, np.ndarray]:
    """The forced part at every sample time, shape ``(S, d)``, by the Gauss
    and by the Kronrod sums of one quadrature pass over the sample intervals
    ``edges`` and their ``runs`` (:func:`_interval_runs`).

    For each group ``j`` and ``k < S_j`` the pass carries
    ``H_jk(t) = int_0^t ((t-s)^k/k!) e^{(t-s) B_j} f(s) ds``
    across each interval of width ``D`` exactly,

        H_jk(t + D) = e^{D B_j} sum_{l<=k} (D^(k-l)/(k-l)!) H_jl(t)
                      + int_t^{t+D} ((t+D-s)^k/k!) e^{(t+D-s) B_j} f(s) ds,

    so only the new interval's integral is a quadrature.  A run
    ``(start, stop, rule)`` of r intervals of one shape
    (:func:`_interval_runs`) takes the Gauss-Kronrod layout ``xi`` of its
    first interval, from one ``rule.gauss_kronrod(0, D)`` call: an interval
    from ``a`` has the nodes ``a + xi``, the offsets ``tau = D - xi`` and
    the carry width ``D``.  So the run forms ``tau``, the Gauss moments
    ``w tau^k/k!`` of its Gauss nodes, the Kronrod moments of all its nodes
    (2q+1 per panel) and the binomial shift once; each group grows the run's
    ``(r, m, d)`` forcing block with one call of its action
    (:attr:`BlockOperatorMatrix.actors`) on the m offsets and takes
    the r local integrals of either rule as two products.  Only the carry
    of both sums, a ``(2, S_j, d)`` stack, goes interval by interval.  A
    modal actor (``mode_basis`` set: spectral, periodic translation, or a
    dense set in a shared eigenbasis) forms its carry row ``e^{D lambda}``
    once per run, by its action on a row of ones, so an overflow names the
    group at ``t = D``, and each interval multiplies by it (a group of
    multiplicity 1 skips its shift, which is exactly 1); a dense group on
    the grid calls its action of width ``D`` per interval, which forms no
    d x d propagator.  The Gauss nodes are the points of
    ``rule.nodes``, so the Gauss sums are the values of the
    composite Gauss rule.  The forcing values of all nodes of the pass are
    one :meth:`Forcing.many` stack, taken to the modes the output needs
    in the groups' shared basis and checked there for dead modes
    (:meth:`ZCoefficients.modes_of`), and ``z`` weighs last;
    :func:`solve_full` checks the values.
    """
    matrix = z.matrix
    if not runs:  # t_grid = [0]: nothing to integrate
        zero = np.zeros((times.size, matrix.dim))
        return zero, zero
    widths = np.diff(edges)
    mult_max = max(mult for _, mult in matrix.grouped)
    layouts = []
    for start, stop, rule in runs:
        width = widths[start]
        xi, wts, gauss, gauss_wts = rule.gauss_kronrod(0.0, width)
        taus = width - xi
        powers = np.array([taus**k / math.factorial(k) for k in range(mult_max)])
        moments = (gauss_wts * powers[:, gauss], wts * powers)
        layouts.append((edges[start:stop, None] + xi, width, taus, gauss, moments, _binomial_shift(width, mult_max)))
    g = forcing.many(np.concatenate([nodes.ravel() for nodes, *_ in layouts]), matrix.dim)
    g_hat = z.modes_of(g)
    blocks = np.split(g_hat, np.cumsum([nodes.size for nodes, *_ in layouts])[:-1])
    ones = np.ones((1, g_hat.shape[-1]))
    h = []
    for (_, mult), actor in zip(matrix.grouped, matrix.actors):
        carried, prev = [], np.zeros((2, mult, g_hat.shape[-1]))
        for (nodes, width, taus, gauss, (gauss_moments, moments), shift), block in zip(layouts, blocks):
            # one (r, m, d) exponential alive at a time
            grown = actor.propagate(taus, block.reshape(*nodes.shape, -1))
            # take, not grown[:, gauss]: its rows are contiguous, as those of a
            # Gauss-only block, so the product sums in the same order
            local = np.stack([gauss_moments[:mult] @ grown.take(gauss, axis=1), moments[:mult] @ grown], axis=1)
            if actor.mode_basis is not None:  # e^{D lambda}, held for the run and checked after its offsets
                carry = partial(np.multiply, actor.propagate(np.array([width]), ones))
            else:  # a dense group on the grid acts per interval; a held d x d propagator costs O(d^3)
                carry = partial(actor.propagate, np.full(mult, width))
            shift = shift[:mult, :mult]
            for integral in local:
                prev = carry(prev if mult == 1 else shift @ prev) + integral
                carried.append(prev)
        h.append(np.stack(carried, axis=1))
    at_zero = np.zeros((times.size - widths.size, matrix.dim))  # a sample at t = 0
    return tuple(np.concatenate([at_zero, z.weigh(sums, g)]) for sums in np.concatenate(h, axis=2))


def solve_inhomogeneous_zero_ic(eq: FactoredEquation, t_grid) -> SolutionTrace:
    """Convolution solution of the forced problem with zero initial data.

    Requires a forcing term and zero initial data, and is then exactly
    :func:`solve_full` with the default rule, whose homogeneous part solves
    to zero.  The forcing may or may not vanish at ``t = 0`` (a nonzero
    ``f(0)`` is the interesting case for the weight identities, but the
    formula itself does not need it).
    """
    if eq.forcing is None:
        raise InvalidInputError("solve_inhomogeneous_zero_ic needs a forcing term")
    if any(np.any(x != 0) for x in eq.initial_data):
        raise InvalidInputError("solve_inhomogeneous_zero_ic needs zero initial data")
    return solve_full(eq, t_grid)


def solve_full(eq: FactoredEquation, t_grid, rule: QuadratureRule | None = None) -> SolutionTrace:
    """General solution: homogeneous part plus zero-IC convolution part.

    One confluent matrix ``M`` serves both parts and is factorized once:
    the coefficients ``y`` solve ``M y = (x_0, ..., x_{n-1})`` and the
    forcing weights ``z`` solve ``M z = (0, ..., 0, I)``.  The homogeneous
    part sums ``e^{t B_j} sum_k (t^k/k!) y_{jk}`` for every sample time at
    once, in the basis ``y`` was solved in (:func:`_semigroup_sum`); the
    diagnostics carry the residual of the ``y`` solve under
    ``coefficient_residual``.

    With a forcing term the convolution part is added.  The closed form is
    still exact; only the domain of each quadrature is a sample interval
    rather than ``[0, t]``.  One pass covers ``[0, t_last]`` once: interval
    ``i`` gets ``ceil(rule.panels * width_i / t_last)`` panels, and the
    integrals ``H_{jk}`` reached at one sample time are carried to the next
    by the exact propagator ``e^{width B_j}`` and binomial weights.  The
    pass takes the forcing at all its nodes as one stack and handles every
    node at once (:func:`_duhamel_pass`).  Each panel holds the q Gauss
    nodes of ``rule`` and their q + 1 Kronrod nodes, and the solution takes
    the Gauss sums.  If the largest entry of their difference from the
    Kronrod sums exceeds ``INHOMOGENEOUS_RICHARDSON_TOL`` times the largest
    entry of the Kronrod sums (the forced part's scale), the solve raises
    :class:`QuadratureUnderResolvedError` (a NaN reading too), and a
    non-finite value :class:`NonFiniteError`.  The diagnostics then also
    carry that reading as ``richardson_rel_dev``, and ``quadrature``.  The
    assembly is a plain sum, so superposition holds to roundoff by
    construction.
    """
    times = as_time_grid(t_grid)
    matrix = build_confluent_matrix(eq.grouped)
    ys = solve_coefficients(matrix, eq.initial_data)
    diagnostics = {"coefficient_residual": ys.residual}
    with np.errstate(over="ignore", invalid="ignore"):  # the values are checked below
        values = _semigroup_sum(matrix, ys, times, np.stack(eq.initial_data))
        if eq.forcing is not None:
            rule = rule or QuadratureRule()
            z = solve_z_vector(matrix)
            gauss, kronrod = _duhamel_pass(z, eq.forcing, times, *_interval_runs(rule, times))
            values = values + gauss
            dev = float(np.max(np.abs(gauss - kronrod))) / (float(np.max(np.abs(kronrod))) + 1e-30)
            diagnostics = {"richardson_rel_dev": dev, "quadrature": asdict(rule), **diagnostics}
    check_finite(values, "solution")
    if eq.forcing is not None and not dev <= INHOMOGENEOUS_RICHARDSON_TOL:  # NaN fails too
        raise QuadratureUnderResolvedError(
            f"the Gauss and Kronrod sums of the forced part differ by {dev:.3e} relative "
            f"(> {INHOMOGENEOUS_RICHARDSON_TOL:.1e}); increase panels or nodes_per_panel"
        )
    return SolutionTrace(times, values, diagnostics)


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
    steps_per_unit: int = ORACLE_STEPS_PER_UNIT,
) -> tuple[SolutionTrace, SolutionTrace, float]:
    """Solve closed-form and by the companion oracle; returns
    ``(trace, oracle_trace, rel_dev)`` with :func:`oracle_deviation`; a bad
    ``steps_per_unit`` is refused before the solve."""
    as_count(steps_per_unit, "steps_per_unit")
    trace = solve_full(eq, t_grid, rule)
    reference = oracle_solve(eq, t_grid, steps_per_unit)
    return trace, reference, oracle_deviation(trace, reference)


def _circle(matrix: BlockOperatorMatrix, xs: np.ndarray, n: int) -> tuple[float, int]:
    """Radius ``rho`` and even node count ``N`` of the circle on which
    :func:`_initial_derivatives` reads an order-``n`` ansatz with data ``xs``.

    ``tau`` bounds the generators on what the data excite: for modal groups
    the largest ``|modal value|`` over the modes where ``xs`` passes the
    ``DEAD_MODE_RTOL`` mask (a mode the data leave dead stays dead in
    ``u``), for dense ones the largest row sum.  ``rho = min(1, (n-1)/tau)``
    keeps ``rho tau <= n - 1``, so the rounding of the cancelling sum, which
    the order-k read multiplies by ``k!/rho^k``, stays small up to ``k = n-1``
    (Bornemann, Found. Comput. Math. 11 (2011) 1-63).  ``N`` is the smallest
    even count of at least ``max(_CIRCLE_NODES, n)`` whose aliasing term
    ``(rho tau)^N / N!`` is below eps.
    """
    ops = [op for op, _ in matrix.grouped]
    sums = np.sum(np.abs(generator_blocks(ops)), axis=-1)  # (g, b, m); modal: b = d, m = 1
    if ops[0].mode_basis is not None:
        modal = np.abs(matrix.basis.to_modes(xs))
        sums = sums[:, np.any(modal > DEAD_MODE_RTOL * max(1.0, float(np.max(modal))), axis=0)]
    tau = float(np.max(sums, initial=0.0))
    rho = 1.0 if tau <= n - 1 else (n - 1) / tau
    nodes = max(_CIRCLE_NODES, n + n % 2)
    log_eps = math.log(np.finfo(np.float64).eps)
    while rho * tau > 0 and nodes * math.log(rho * tau) - math.lgamma(nodes + 1) > log_eps:
        nodes += 2
    return rho, nodes


def _initial_derivatives(eq: FactoredEquation) -> np.ndarray:
    """``u^(k)(0)`` for ``k < n``, shape ``(n, d)``, of the ansatz the
    solver evaluates: :func:`_semigroup_sum` of one :func:`solve_coefficients`.

    ``u`` is entire, so the trapezoid rule on the circle ``t_m = rho w^m``,
    ``w = e^{2 pi i/N}``, gives ``u^(k)(0) = k! fft(u(t_m))[k] / (N rho^k)``
    with an error that falls geometrically in ``N`` (Lyness and Moler
    1967); ``rho`` and ``N`` come from :func:`_circle`.  A real problem has
    ``u(conj t) = conj u(t)`` and ``t_{N-m} = conj t_m``, so it evaluates
    ``m = 0 .. N/2`` only, mirrors the rest and takes the real part.
    """
    matrix = build_confluent_matrix(eq.grouped)
    xs = np.stack(eq.initial_data)
    ys = np.array(solve_coefficients(matrix, xs))
    real = not np.iscomplexobj(matrix.basis.from_modes(ys, xs))  # u is real on the real axis
    rho, nodes = _circle(matrix, xs, eq.n)
    evaluated = nodes // 2 + 1 if real else nodes
    ys = ys.astype(np.complex128)  # complex rows, which no real-output rule drops
    with np.errstate(over="ignore", invalid="ignore"):  # checked in _semigroup_sum
        rows = _semigroup_sum(matrix, ys, rho * np.exp(2j * np.pi * np.arange(evaluated) / nodes), ys)
    rows = np.concatenate([rows, rows[nodes - evaluated : 0 : -1].conj()])  # t_{N-m} = conj t_m
    orders = np.arange(eq.n)
    scale = np.array([math.factorial(k) for k in orders]) / (nodes * rho**orders)
    derivatives = np.fft.fft(rows, axis=0)[: eq.n] * scale[:, None]
    return derivatives.real if real else derivatives


def initial_derivative_defect(eq: FactoredEquation) -> float:
    """``max_k ||u^(k)(0) - x_k||_inf / (1 + ||x_k||_inf)`` over ``k < n``,
    with ``u^(k)(0)`` read off the homogeneous ansatz (:func:`_initial_derivatives`).

    The forced part is left out: its derivatives below order n vanish at 0
    exactly when ``M z = (0, ..., 0, I)``, which the ``z`` solve's residual
    gate checks on a random probe.
    """
    xs = np.stack(eq.initial_data)
    defects = np.max(np.abs(_initial_derivatives(eq) - xs), axis=1) / (1.0 + np.max(np.abs(xs), axis=1))
    return float(np.max(defects))


# ---------------------------------------------------------------------------
# semigroup convolution identity (quadrature vs resolvent recursion)
# ---------------------------------------------------------------------------


def _lemma2_arguments(i_op: Operator, j_op: Operator, k: int, t: float, x) -> np.ndarray:
    """The one argument check of :func:`lemma2_lhs` and :func:`lemma2_rhs`,
    so that both sides refuse the same inputs: operators of one family and
    dimension, an integer ``0 <= k < MAX_ORDER`` (the left side solves
    k + 1 repeated factors, capped as any equation's order is) and one time
    ``t >= 0`` as :func:`statespace.as_times` takes it, so a complex ``t``
    raises :class:`UnsupportedOperationError` and any other refused input
    :class:`InvalidInputError`.  Returns ``x`` as a state vector."""
    require_same_family(i_op, j_op)
    if as_count(k, "k", low=0) >= MAX_ORDER:
        raise UnsupportedOperationError(f"order {k + 1} exceeds the supported maximum {MAX_ORDER}")
    horizon = as_times(t, "t")
    if horizon.ndim != 0 or horizon < 0:
        raise InvalidInputError(f"t must be one time >= 0, got {t!r}")
    return as_state_vector(x, i_op.dim)


def lemma2_lhs(i_op: Operator, j_op: Operator, k: int, t: float, x) -> np.ndarray:
    """``int_0^t e^{(t-s) A_i} (s^k/k!) e^{s A_j} x ds``: with ``s -> t - s``
    the forced part at ``t`` of ``(d/dt - A_j)^{k+1} u = e^{t A_i} x`` from
    zero data, whose weights are ``z = e_{k+1}``, by one :func:`_duhamel_pass`
    of the default :class:`QuadratureRule`.  The Gauss sum is returned; a
    non-finite one raises :class:`NonFiniteError`, and a Kronrod difference
    over ``LEMMA2_RICHARDSON_TOL (1 + max|K|)`` (NaN too)
    :class:`QuadratureUnderResolvedError`.  The matrix is built directly, not
    by :func:`build_confluent_matrix`, which keeps the caller's in place.
    """
    x = _lemma2_arguments(i_op, j_op, k, t, x)
    matrix = BlockOperatorMatrix(((j_op, k + 1),))
    forcing = Forcing(lambda s: i_op.semigroup(s[:, 0], np.broadcast_to(x, (s.shape[0], x.size))), vectorized=True)
    times = np.array([float(t)])
    with np.errstate(over="ignore", invalid="ignore"):  # the value is checked below
        gauss, kronrod = (sums[0] for sums in _duhamel_pass(
            ZCoefficients(matrix), forcing, times, *_interval_runs(QuadratureRule(), times)))
        dev = float(np.max(np.abs(gauss - kronrod)))
        limit = LEMMA2_RICHARDSON_TOL * (1.0 + float(np.max(np.abs(kronrod))))
    check_finite(gauss, "convolution")
    if not dev <= limit:  # a NaN reading fails too
        raise QuadratureUnderResolvedError(
            f"convolution quadrature not resolved: the Gauss and Kronrod sums "
            f"differ by {dev:.3e} (> {limit:.3e})"
        )
    return gauss


def lemma2_rhs(i_op: Operator, j_op: Operator, k: int, t: float, x) -> np.ndarray:
    """Closed form of the same convolution via the resolvent recursion.

    With ``R = (A_j - A_i)^{-1}`` and ``I_{-1} = e^{t A_i} x``, every
    ``k >= 0`` follows ``I_k = (t^k/k!) R e^{t A_j} x - R I_{k-1}``.  ``R``
    never sees the difference ``(e^{t A_j} - e^{t A_i}) x``, which would hide
    the modes where ``A_i = A_j``: ``x`` exciting one raises
    :class:`NotInvertibleError`.  ``R`` is one :func:`resolvent_solve`, so a
    dense ``A_j - A_i`` is factored once for all k + 2 applications.
    """
    x = _lemma2_arguments(i_op, j_op, k, t, x)
    resolvent = resolvent_solve(j_op, i_op)
    lead = resolvent(j_op.semigroup(t, x))
    value = i_op.semigroup(t, x)
    with np.errstate(over="ignore", invalid="ignore"):  # each value is checked
        for m in range(k + 1):
            value = (np.float64(t) ** m / math.factorial(m)) * lead - resolvent(value)
            check_finite(value, "convolution")
    return value
