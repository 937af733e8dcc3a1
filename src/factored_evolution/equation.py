"""Equation model, cascade reduction, and the brute-force companion oracle.

A factored evolution equation

    (d/dt - A_1)(d/dt - A_2) ... (d/dt - A_n) u(t) = f(t),
    u^(k)(0) = x_k,   k = 0 .. n-1,

is stored as the ordered factor list ``(A_1, ..., A_n)`` together with its
initial data and optional forcing.  The factors must commute, so the
solution does not depend on their order; the order still fixes the internal
cascade convention used below.

Cascade convention.  Peeling factors from the front defines the auxiliary
functions ``u_1 = u`` and ``u_{j+1} = (d/dt - A_j) u_j``, which turns the
equation into the first-order block system

    d/dt (u_1, ..., u_n) = bidiag(A_1 .. A_n; I) (u_1, ..., u_n) + (0,..,0,f)

with the factor list on the block diagonal in the given order and identity
blocks on the superdiagonal.  Integrating that system with RK4 is the
independent oracle every closed-form solution is validated against.

The cascade initial values expand in elementary symmetric polynomials of
the leading factors:

    u_m(0) = sum_{k=0}^{m-1} (-1)^k e_k(A_1, ..., A_{m-1}) x_{m-1-k},

where ``e_k`` is the k-th elementary symmetric polynomial of the (commuting)
operator multiset.  For a single repeated factor this reduces to binomial
weights, ``e_k = C(m-1, k) A^k``.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import (
    DimensionMismatchError,
    MixedBackendError,
    NonCommutingFactorsError,
    UnsupportedOperationError,
)
from .operators import Operator, commutation_defect
from .statespace import _check_time_grid, as_state_vector, rk4_integrate
from .trace import SolutionTrace

# Numerical gate on pairwise commutation of factor operators.
COMMUTATION_TOL = 1e-9
_N_COMMUTATION_PROBES = 10
_PROBE_SEED = 173603


@dataclass(frozen=True)
class Forcing:
    """Right-hand side ``f(t)``, evaluated on demand.

    ``evaluator`` must return a state vector of the equation dimension for
    every ``t`` in the solve window.  The quadrature assumes it is at least
    piecewise smooth.  Values are returned as the evaluator gives them and
    checked where they meet the dimension: each quadrature pass checks its
    stack of values, and the oracle checks each value.
    """

    evaluator: Callable[[float], np.ndarray]

    def __call__(self, t: float) -> np.ndarray:
        return self.evaluator(t)


def group_factors(factors) -> list[tuple[Operator, int]]:
    """Group a factor list into ``(operator, multiplicity)`` runs.

    Grouping is stable by first occurrence of each label, so
    ``(B, A, B)`` groups as ``[(B, 2), (A, 1)]``.  All factors must share
    one backend family, and repeated labels must describe the identical
    action.
    """
    factors = list(factors)
    if not factors:
        raise ValueError("factor list must be non-empty")
    first = factors[0]
    seen: dict[str, Operator] = {}
    counts: dict[str, int] = {}
    for op in factors:
        if op.family != first.family:
            raise MixedBackendError(
                f"factor {op.label!r} ({op.family}) does not match family "
                f"{first.family!r} of the first factor"
            )
        if op.dim != first.dim:
            raise DimensionMismatchError(
                f"factor {op.label!r} has dimension {op.dim}, expected {first.dim}"
            )
        if op.label in seen:
            if seen[op.label].signature() != op.signature():
                raise ValueError(
                    f"label {op.label!r} is used for two different operator actions"
                )
            counts[op.label] += 1
        else:
            seen[op.label] = op
            counts[op.label] = 1
    return [(seen[label], counts[label]) for label in seen]


@dataclass(frozen=True)
class FactoredEquation:
    """Ordered factor list, initial data ``x_0 .. x_{n-1}``, optional forcing.

    Construction validates dimensions, backend uniformity, and runs the
    commutation gate: every pair of distinct factors must have a
    commutation defect of at most ``COMMUTATION_TOL`` over a fixed set of
    random probes, otherwise :class:`NonCommutingFactorsError` is raised.
    """

    factors: tuple[Operator, ...]
    initial_data: tuple[np.ndarray, ...]
    forcing: Forcing | None = None
    grouped: list[tuple[Operator, int]] = field(init=False, repr=False)

    def __post_init__(self):
        factors = tuple(self.factors)
        object.__setattr__(self, "factors", factors)
        grouped = group_factors(factors)
        object.__setattr__(self, "grouped", grouped)
        dim = factors[0].dim
        data = tuple(as_state_vector(x, dim) for x in self.initial_data)
        if len(data) != len(factors):
            raise DimensionMismatchError(
                f"need {len(factors)} initial data vectors, got {len(data)}"
            )
        object.__setattr__(self, "initial_data", data)
        self._commutation_gate(grouped)

    @staticmethod
    def _commutation_gate(grouped):
        if len(grouped) < 2:
            return
        dim = grouped[0][0].dim
        rng = np.random.default_rng(_PROBE_SEED)
        probes = rng.standard_normal((_N_COMMUTATION_PROBES, dim))
        for i, (a, _) in enumerate(grouped):
            for b, _ in grouped[i + 1 :]:
                defect = commutation_defect(a, b, probes)
                if defect > COMMUTATION_TOL:
                    raise NonCommutingFactorsError(
                        f"factors {a.label!r} and {b.label!r} do not commute: "
                        f"defect {defect:.3e} exceeds {COMMUTATION_TOL:.1e}",
                        defect=defect,
                    )

    @property
    def n(self) -> int:
        return len(self.factors)

    @property
    def dim(self) -> int:
        return self.factors[0].dim

    @property
    def family(self) -> str:
        return self.factors[0].family

    def without_forcing(self) -> "FactoredEquation":
        """This equation with no forcing; its factors passed the gate
        already, so the copy does not run it again."""
        if self.forcing is None:
            return self
        unforced = copy.copy(self)
        object.__setattr__(unforced, "forcing", None)
        return unforced

    def with_zero_initial_data(self) -> "FactoredEquation":
        zeros = tuple(np.zeros(self.dim) for _ in self.factors)
        return FactoredEquation(self.factors, zeros, self.forcing)


def initial_data_transform(eq: FactoredEquation) -> list[np.ndarray]:
    """Cascade initial values ``u_1(0) .. u_n(0)`` from the raw derivatives.

    Evaluates the elementary symmetric expansion with the Horner-style
    recursion ``e_k(m) = e_k(m-1) + A_m e_{k-1}(m-1)`` applied directly to
    vectors; operator products are never materialized as matrices.
    """
    n, xs, ops = eq.n, eq.initial_data, eq.factors
    # table[r][j] = e_{j-r}(A_1..A_j) x_r, the only entries the sums below use
    table: list[list[np.ndarray | None]] = [[None] * n for _ in range(n)]
    for r in range(n):
        row = [xs[r]]  # row[k] = e_k(A_1..A_j) x_r, growing with j
        if r == 0:
            table[r][0] = row[0]
        for j in range(1, n):
            op = ops[j - 1]
            kmax = min(j, n - 1 - r)
            new_row = [row[0]]
            for k in range(1, kmax + 1):
                lifted = op.apply(row[k - 1])
                new_row.append(row[k] + lifted if k < len(row) else lifted)
            row = new_row
            if j >= r:
                table[r][j] = row[j - r]
    out = []
    for m in range(1, n + 1):
        acc = table[m - 1][m - 1].copy()  # k = 0 term
        for k in range(1, m):
            term = table[m - 1 - k][m - 1]
            acc = acc + term if k % 2 == 0 else acc - term
        out.append(acc)
    return out


@dataclass(frozen=True)
class CompanionSystem:
    """First-order block system equivalent to the factored equation.

    The generator is block upper-bidiagonal with the factor operators on
    the diagonal (in factor-list order) and identity blocks above; forcing,
    if any, enters only the last block row.
    """

    factors: tuple[Operator, ...]
    initial_blocks: tuple[np.ndarray, ...]
    forcing: Forcing | None = None

    @property
    def n(self) -> int:
        return len(self.factors)

    @property
    def block_dim(self) -> int:
        return self.factors[0].dim

    @property
    def dim(self) -> int:
        return self.n * self.block_dim

    def initial_state(self) -> np.ndarray:
        return np.concatenate(self.initial_blocks)

    def dense_matrix(self) -> np.ndarray:
        """Explicit ``(n d) x (n d)`` generator, for inspection and tests."""
        n, d = self.n, self.block_dim
        blocks = []
        for op in self.factors:
            if op.family == "dense":
                blocks.append(op.matrix)
            elif op.family == "spectral":
                blocks.append(np.diag(op.modal_values))
            else:
                raise UnsupportedOperationError(
                    "dense companion assembly needs a dense or spectral backend"
                )
        dtype = np.result_type(*[b.dtype for b in blocks])
        big = np.zeros((n * d, n * d), dtype=dtype)
        eye = np.eye(d)
        for j in range(n):
            big[j * d : (j + 1) * d, j * d : (j + 1) * d] = blocks[j]
            if j + 1 < n:
                big[j * d : (j + 1) * d, (j + 1) * d : (j + 2) * d] = eye
        return big

    def vector_field(self) -> Callable[[float, np.ndarray], np.ndarray]:
        """Right-hand side ``F(t, U)`` of the stacked first-order system.

        Dense and spectral backends get a vectorized closure (the oracle
        spends essentially all its time here); other families are
        rejected, as in :meth:`dense_matrix`.
        """
        n, d = self.n, self.block_dim
        forcing = self.forcing
        family = self.factors[0].family
        if family == "spectral":
            modal = np.stack([op.modal_values for op in self.factors])  # (n, d)
            act = lambda u: modal * u  # noqa: E731
        elif family == "dense":
            mats = np.stack([op.matrix for op in self.factors])  # (n, d, d)
            act = lambda u: np.einsum("nij,nj->ni", mats, u)  # noqa: E731
        else:
            raise UnsupportedOperationError(
                "the companion vector field needs a dense or spectral backend"
            )

        def field(t, state):
            u = state.reshape(n, d)
            du = act(u)
            du[:-1] += u[1:]
            if forcing is not None:
                du[-1] += as_state_vector(forcing(t), d)
            return du.reshape(-1)

        return field


def build_companion(eq: FactoredEquation) -> CompanionSystem:
    """Reduce the factored equation to its first-order block system."""
    blocks = tuple(initial_data_transform(eq))
    return CompanionSystem(eq.factors, blocks, eq.forcing)


def oracle_solve(
    eq: FactoredEquation, t_grid, steps_per_unit: int = 2000
) -> SolutionTrace:
    """Brute-force reference solution via RK4 on the companion system.

    The first block component of the integrated state is ``u(t)``.  Only
    finite-dimensional backends (dense, spectral) are supported; the step
    count is fixed rather than adaptive so error baselines are reproducible.
    """
    if eq.family not in ("dense", "spectral"):
        raise UnsupportedOperationError(
            f"the companion oracle needs a dense or spectral backend, got {eq.family!r}"
        )
    times = _check_time_grid(t_grid)
    system = build_companion(eq)
    field = system.vector_field()
    state = system.initial_state()
    d = eq.dim
    dtype_parts = [state.dtype] + [
        (op.matrix if op.family == "dense" else op.modal_values).dtype for op in eq.factors
    ]
    if eq.forcing is not None:
        dtype_parts.append(as_state_vector(eq.forcing(0.0), d).dtype)
    values = np.empty((times.size, d), dtype=np.result_type(*dtype_parts))
    state = state.astype(values.dtype, copy=False)  # a complex forcing makes the state complex
    t_prev = 0.0
    for i, t in enumerate(times):
        if t > t_prev:
            steps = max(1, math.ceil((t - t_prev) * steps_per_unit))
            state = rk4_integrate(field, state, t, steps, t0=t_prev)
            t_prev = float(t)
        values[i] = state[:d]
    return SolutionTrace(times, values, {"oracle_steps_per_unit": steps_per_unit})
