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
blocks on the superdiagonal.  Integrating that system with classical RK4 is
the independent oracle every closed-form solution is validated against.
The generator ``C`` is assembled once from the factors' blocks
(``operators.generator_blocks``), as independent blocks in their shared
mode basis: one for dense factors, one per mode for spectral and periodic
translation ones.  The system is linear, so
with ``X = h C`` one RK4 step is exactly

    U <- P U + (h/6) [W_0 f(t) + W_1/2 f(t + h/2) + f(t + h)],

with ``P = sum_{k<=4} X^k/k!``, ``W_0 = I + X + X^2/2 + X^3/4`` and
``W_1/2 = 4 I + 2 X + X^2/2``; f enters the last block only.  The forcing
terms do not depend on ``U``, so the oracle evaluates f on the stage times
of a whole run of steps at once (:meth:`Forcing.many`) and forms their
terms in one product before it steps.

The cascade initial values follow from the definition itself.  The
derivatives ``D_j[k] = u_j^(k)(0)`` satisfy

    D_1[k] = x_k,    D_{j+1}[k] = D_j[k+1] - A_j D_j[k],

and ``u_j(0) = D_j[0]``; stage j needs the first ``n - j + 1`` derivatives
of ``u_j``, so the table takes ``n (n - 1) / 2`` operator applications.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .errors import (
    DimensionMismatchError,
    ForcingTypeError,
    NonCommutingFactorsError,
    NonFiniteError,
    OracleStepOverflowError,
)
from .operators import (
    OPERATOR_SLOT,
    ModeBasis,
    Operator,
    commutation_defect,
    generator_blocks,
    require_same_family,
    shared_mode_basis,
)
from .statespace import _check_time_grid, as_state_stack, as_state_vector
from .trace import SolutionTrace

# Gate on the Frobenius norm of each pair's commutator
# (:func:`~factored_evolution.operators.commutation_defect`), absolute.
COMMUTATION_TOL = 1e-9

# RK4 steps per unit time of the oracle when the caller gives none.
ORACLE_STEPS_PER_UNIT = 2000
# RK4 steps whose forcing values the oracle takes in one stack, so that the
# stack has at most 2 * _ORACLE_CHUNK_STEPS + 1 rows however long a sample
# interval is.
_ORACLE_CHUNK_STEPS = 128


@dataclass(frozen=True)
class Forcing:
    """Right-hand side ``f(t)``, evaluated on demand.

    ``evaluator`` must return a state vector of the equation dimension for
    every ``t`` in the solve window.  The quadrature assumes it is at least
    piecewise smooth.  An evaluator that is ``vectorized`` also takes a
    column of ``m`` times, shape ``(m, 1)``, and returns the ``(m, dim)``
    stack of its values; any other is called once per time.  Values are
    returned as the evaluator gives them and checked where they meet the
    dimension: :meth:`many` checks each stack, which is how each quadrature
    pass and each chunk of oracle steps take their values.
    """

    evaluator: Callable[[float], np.ndarray]
    vectorized: bool = False

    def __call__(self, t: float) -> np.ndarray:
        return self.evaluator(t)

    def many(self, times, dim: int) -> np.ndarray:
        """The values at ``times`` as a checked ``(m, dim)`` stack: one
        evaluator call on the column of times if it is ``vectorized``, one
        call per time otherwise."""
        times = np.asarray(times, dtype=np.float64)
        if self.vectorized:
            rows = self.evaluator(times[:, None])
        else:
            rows = [self(t) for t in times.tolist()]
        stack = as_state_stack(rows, dim)
        if stack.shape[0] != times.size:
            raise DimensionMismatchError(
                f"expected {times.size} forcing values, got {stack.shape[0]}"
            )
        return stack


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
        require_same_family(first, op)
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

    Construction validates dimensions, backend uniformity and the forcing
    (``None`` or a :class:`Forcing`, else :class:`ForcingTypeError`), and
    runs the commutation gate: every pair of distinct factors must have a
    commutation defect (:func:`~factored_evolution.operators.commutation_defect`,
    the Frobenius norm of ``AB - BA`` on the generators' blocks, exactly 0
    for factors with a mode basis) of at most ``COMMUTATION_TOL``, otherwise
    :class:`NonCommutingFactorsError` is raised; its message gives the
    rounding floor ``eps m ||A||_F ||B||_F`` of the pair's ``m x m`` blocks
    next to the defect.  A passing set is held in
    ``operators.OPERATOR_SLOT``, and an equation on the same operator
    objects in the same order takes that verdict without the pair products.
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
        if self.forcing is not None and not isinstance(self.forcing, Forcing):
            raise ForcingTypeError(f"forcing must be None or a Forcing, got {type(self.forcing).__name__}")
        self._commutation_gate(grouped)

    @staticmethod
    def _commutation_gate(grouped):
        ops = tuple(op for op, _ in grouped)
        commute, matrix = OPERATOR_SLOT.lookup(ops)
        if commute:  # these very objects passed last time
            return
        for i, (a, _) in enumerate(grouped):
            for b, _ in grouped[i + 1 :]:
                defect = commutation_defect(a, b)
                if not defect <= COMMUTATION_TOL:  # a nan defect fails too
                    ab, bb = generator_blocks((a, b))
                    with np.errstate(over="ignore", invalid="ignore"):
                        floor = np.finfo(float).eps * ab.shape[-1] * np.linalg.norm(ab) * np.linalg.norm(bb)
                    raise NonCommutingFactorsError(
                        f"factors {a.label!r} and {b.label!r} do not commute: "
                        f"defect {defect:.3e} exceeds {COMMUTATION_TOL:.1e} "
                        f"(rounding floor {floor:.1e})",
                        defect=defect,
                    )
        OPERATOR_SLOT.keep(ops, True, matrix)

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
        """This equation with no forcing, built anew on the same operator
        objects: the commutation gate takes their verdict from
        ``operators.OPERATOR_SLOT`` while the slot still holds them."""
        return replace(self, forcing=None)

    def with_zero_initial_data(self) -> "FactoredEquation":
        """This equation with zero initial data, on the same operator
        objects, like :meth:`without_forcing`."""
        return replace(self, initial_data=tuple(np.zeros(self.dim) for _ in self.factors))


def initial_data_transform(eq: FactoredEquation) -> list[np.ndarray]:
    """Cascade initial values ``u_1(0) .. u_n(0)`` from the raw derivatives.

    Follows the cascade definition on the derivative data: ``D_1[k] = x_k``,
    ``D_{j+1}[k] = D_j[k+1] - A_j D_j[k]`` and ``u_j(0) = D_j[0]``, which
    takes ``n (n - 1) / 2`` operator applications; operator products are
    never materialized as matrices.
    """
    derivs = list(eq.initial_data)
    out = [derivs[0].copy()]
    for op in eq.factors[:-1]:
        derivs = [derivs[k + 1] - op.apply(derivs[k]) for k in range(len(derivs) - 1)]
        out.append(derivs[0])
    return out


@dataclass(frozen=True)
class CompanionSystem:
    """First-order block system equivalent to the factored equation.

    The generator is block upper-bidiagonal with the factor operators on
    the diagonal (in factor-list order) and identity blocks above; forcing,
    if any, enters only the last block row.  :meth:`generator` assembles it
    once, in :attr:`basis`, as the stack of independent blocks the oracle
    steps.
    """

    factors: tuple[Operator, ...]
    initial_blocks: tuple[np.ndarray, ...]

    @property
    def basis(self) -> ModeBasis:
        """The basis of the generator's blocks: the factors' shared mode
        basis, or the identity for dense factors."""
        return shared_mode_basis(self.factors)

    def initial_state(self) -> np.ndarray:
        """The cascade values ``u_1(0), ..., u_n(0)`` in :attr:`basis`, concatenated."""
        return self.basis.to_modes(np.stack(self.initial_blocks)).ravel()

    def generator(self) -> np.ndarray:
        """The generator as a stack of independent blocks, shape ``(b, N, N)``.

        With the factors' blocks ``(n, b, m, m)`` from
        :func:`~factored_evolution.operators.generator_blocks`, block i is the
        ``(n m) x (n m)`` upper block-bidiagonal matrix with the factors'
        i-th blocks on the diagonal: one ``(n d) x (n d)`` block for dense
        factors (``b = 1``) and one ``n x n`` block per mode for factors with
        a mode basis (``b = d``), so the ``(n d)^2`` matrix of a modal
        problem is never formed.  Its state is ``(u_1, ..., u_n)`` restricted
        to coordinates ``i m .. i m + m - 1`` of :attr:`basis`, and its last
        ``m`` entries are the block the forcing enters.
        """
        diag = generator_blocks(self.factors).swapaxes(0, 1)  # (b, n, m, m)
        b, n, m = diag.shape[:3]
        blocks = np.einsum("bjkl,ij->bjkil", diag, np.eye(n)).reshape(b, n * m, n * m)
        return blocks + np.eye(n * m, k=m)


def build_companion(eq: FactoredEquation) -> CompanionSystem:
    """Reduce the factored equation to its first-order block system."""
    blocks = tuple(initial_data_transform(eq))
    return CompanionSystem(eq.factors, blocks)


def oracle_solve(
    eq: FactoredEquation, t_grid, steps_per_unit: int = ORACLE_STEPS_PER_UNIT
) -> SolutionTrace:
    """Brute-force reference solution: classical RK4 on the companion system.

    Each sample interval gets ``ceil(length * steps_per_unit)`` equal steps
    (fixed, so error baselines are reproducible), each the exact step of the
    module docstring on the blocks of :meth:`CompanionSystem.generator`.
    ``P - I`` and the last-block columns of ``W_0``, ``W_1/2`` and ``I`` are
    built once per step size (``U`` is added apart, so rounding scales with
    ``h`` as in step-by-step RK4).  The forcing comes as one
    :meth:`Forcing.many` stack of the stage times of each run of at most
    ``_ORACLE_CHUNK_STEPS`` steps of a sample interval, goes to the basis by
    one transform, and its terms ``c_k = W [f_k, f_{k+1/2}, f_{k+1}]`` for
    every step of the run are one batched product; each step then adds
    ``(P - I) U + c_k``, and the state is checked once per run (a
    non-finite entry stays non-finite under these steps).  The state and
    the forcing live in :attr:`CompanionSystem.basis`, and the first block
    component of the state is ``u(t)`` there; it goes back by
    :meth:`ModeBasis.from_modes`, real when the initial data and every
    forcing value are.  ``steps_per_unit < 1`` raises ``ValueError``, an
    interval whose step count overflows float range
    ``OracleStepOverflowError``, and an overflowing state ``NonFiniteError``.
    """
    if steps_per_unit < 1:
        raise ValueError(f"steps_per_unit must be >= 1, got {steps_per_unit}")
    times = _check_time_grid(t_grid)
    system = build_companion(eq)
    gen, basis = system.generator(), system.basis
    (b, size, _), n, d = gen.shape, eq.n, eq.dim
    m = d // b  # coordinates of one block per cascade component
    dtypes = {x.dtype for x in eq.initial_data}  # of every input, for the real-output rule

    @functools.cache
    def step_matrices(h):  # (P - I, W)
        x = h * gen
        x2 = x @ x
        x3 = x2 @ x
        eye = np.broadcast_to(np.eye(size), gen.shape)
        ws = (eye + x + x2 / 2 + x3 / 4, 4 * eye + 2 * x + x2 / 2, eye)
        last_columns = np.concatenate([w[..., -m:] for w in ws], axis=-1)
        return x + x2 / 2 + x3 / 6 + x3 @ x / 24, (h / 6) * last_columns

    def forcing_terms(stage, w):  # w @ [f_k, f_{k+1/2}, f_{k+1}] of each step, (s, b, size, 1)
        f = eq.forcing.many(stage, d)
        dtypes.add(f.dtype)
        f = basis.to_modes(f).reshape(-1, b, m)
        return w @ np.concatenate([f[:-1:2], f[1::2], f[2::2]], axis=-1)[..., None]

    state = system.initial_state().reshape(n, b, m).swapaxes(0, 1).reshape(b, size, 1)
    state = state.astype(np.result_type(gen, state))  # complex from t = 0 if C is
    values, t_prev = [], 0.0
    for t in times:
        if t > t_prev:
            count = float(t - t_prev) * steps_per_unit  # inf, not a warning, past float range
            if not math.isfinite(count):
                raise OracleStepOverflowError(
                    f"the oracle step count of the interval [{t_prev:.6g}, {t:.6g}] overflows "
                    f"float range ({steps_per_unit} steps per unit)"
                )
            steps = math.ceil(count)
            p_minus_i, w = step_matrices((t - t_prev) / steps)
            stage = np.linspace(t_prev, t, 2 * steps + 1)
            with np.errstate(over="ignore", invalid="ignore"):
                for first in range(0, steps, _ORACLE_CHUNK_STEPS):
                    chunk = stage[2 * first : 2 * min(first + _ORACLE_CHUNK_STEPS, steps) + 1]
                    terms = None if eq.forcing is None else forcing_terms(chunk, w)
                    for k in range(chunk.size // 2):
                        du = p_minus_i @ state
                        state = state + (du if terms is None else du + terms[k])
                    if not np.isfinite(state).all():  # stays non-finite once it is
                        raise NonFiniteError(
                            f"RK4 state became non-finite between t={chunk[0]:.6g} "
                            f"and t={chunk[-1]:.6g}"
                        )
            t_prev = float(t)
        values.append(state.reshape(b, n, m)[:, 0].reshape(d))
    values = basis.from_modes(np.array(values), np.empty(0, np.result_type(*dtypes)))
    return SolutionTrace(times, values, {"oracle_steps_per_unit": steps_per_unit})
