"""Confluent operator-Vandermonde system: build, solve, cross-check.

For grouped factors ``(B_1, S_1), ..., (B_g, S_g)`` with ``sum S_j = n`` the
coefficient matrix ``M`` is the n x n block grid whose column block for
``B_j`` holds the first ``S_j`` columns of the lower-triangular pattern

    row r, local column k:   C(r, k) * B_j^(r-k)   for r >= k, else 0,

i.e. columns ``I, B, B^2, ...`` followed by their scaled derivative columns
``0, I, 2B, 3B^2, ...`` and so on.  Row r of ``M y = x`` states that the
r-th derivative at ``t = 0`` of the ansatz ``sum_j sum_k (t^k/k!) e^{t B_j}
y_{jk}`` equals ``x_r``, which is exactly how the solver consumes it.

Scalars reduce this to the classical confluent Vandermonde matrix of the
modal values with the given multiplicities.  Every solve works in
``BlockOperatorMatrix.basis``: the coefficients ``y`` are returned in it
and the weights ``z`` act in it.  The groups either are modal in it, with
values ``(g, d)`` on its modes, or are dense groups solved on the grid.
The spectral and periodic-translation backends bring their own modes;
two or more dense groups that the unitary eigenbasis ``q`` of the first
Hermitian or skew-Hermitian one (``DenseMatrixOperator.eig``)
diagonalizes, to within the bound of :func:`_shared_eigenbasis`, are modal
in ``q`` with the diagonals of ``q^H B_j q``; any other dense groups stay
on the grid.  One
record, ``BlockOperatorMatrix._factorization``, holds the only code that
tells the three structures of ``M`` apart, and its ``solve`` takes stacks
``(n, d, k)`` of states in that basis.  A single repeated factor makes
``M`` unit lower triangular and is solved by substitution on its blocks;
modal groups have 1 x 1 blocks, so ``M`` splits into one small scalar
system per mode (a mode where two groups coincide is allowed as long as
the right-hand side leaves it unexcited); dense groups on the grid have
one block, the full ``(n d) x (n d)`` matrix, which is LU-factored.  Each
``BlockOperatorMatrix`` builds the record once, on first use, both ``y``
and ``z`` are solved through it, and the matrix keeps the weights ``z``,
which depend on ``M`` alone; :func:`build_confluent_matrix` hands the last
matrix back for the same operator set, so solves on one set factorize
``M`` and solve ``z`` once.  The solver propagates each group through
``BlockOperatorMatrix.propagators``, in the same basis.  The residual gate
checks every solve against ``M`` applied the other way, walked by
:func:`_confluent_apply`: through the modal values for modal families,
and through the true generators ``B_j`` on the grid for dense groups,
a shared eigenbasis included.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache, partial
from math import comb
from typing import Callable, NamedTuple

import numpy as np

from .errors import (
    DimensionMismatchError,
    SingularMatrixError,
    SingularSystemError,
    UnsupportedOperationError,
)
from .operators import (
    ModeBasis,
    Operator,
    coincident_modes,
    excites,
    generator_blocks,
    grow_modes,
    require_same_family,
    resolvent_solve,
    shared_mode_basis,
)
from .statespace import as_state_vector, inf_norm, lu_apply, lu_factor_checked

# Desk-scale cap: binomials stay comfortably in exact integer range and the
# scalar systems stay solvable in double precision.
MAX_ORDER = 30

# Residual gate applied to every coefficient solve.
RESIDUAL_RTOL = 1e-9

_PROBE_SEED = 911003


@dataclass(frozen=True)
class BlockOperatorMatrix:
    """Symbolic n x n grid of monomial operator entries ``c * B^p``.

    Entries are built on demand from the grouped factor layout; nothing is
    evaluated numerically until a solve is requested.  Column ordering
    follows the grouped layout: the block of ``B_j`` occupies columns
    ``sum_{l<j} S_l .. sum_{l<=j} S_l - 1``.
    """

    grouped: tuple[tuple[Operator, int], ...]

    def __post_init__(self):
        if not self.grouped:
            raise ValueError("grouped factor list must be non-empty")
        labels = [op.label for op, _ in self.grouped]
        if len(set(labels)) != len(labels):
            raise ValueError(f"grouped labels must be distinct, got {labels}")
        first = self.grouped[0][0]
        for op, mult in self.grouped:
            if mult < 1:
                raise ValueError(f"multiplicity of {op.label!r} must be >= 1")
            require_same_family(first, op)
        if self.n > MAX_ORDER:
            raise UnsupportedOperationError(
                f"order {self.n} exceeds the supported maximum {MAX_ORDER}"
            )

    @property
    def n(self) -> int:
        return sum(mult for _, mult in self.grouped)

    @property
    def dim(self) -> int:
        return self.grouped[0][0].dim

    @property
    def offsets(self) -> list[int]:
        offs, acc = [], 0
        for _, mult in self.grouped:
            offs.append(acc)
            acc += mult
        return offs

    @cached_property
    def _modes(self) -> tuple[ModeBasis, np.ndarray | None]:
        """``(basis, values)``: the basis ``M`` is solved in and the groups'
        generators on its modes, ``(g, d)``, or ``None`` for dense groups
        solved on the grid.  Groups with a mode basis bring their own modes;
        two or more dense groups take :func:`_shared_eigenbasis` where it
        serves, else the identity, which a lone group keeps: it has no basis
        to share, and its own ``propagate`` decomposes it once either way."""
        ops = [op for op, _ in self.grouped]
        if ops[0].mode_basis is not None:
            return shared_mode_basis(ops), np.stack([op.modal_values for op in ops])
        shared = _shared_eigenbasis(self) if len(ops) > 1 else None
        if shared is not None and shared[2] <= RESIDUAL_RTOL:  # a nan reading fails
            return shared[:2]
        return shared_mode_basis(ops), None

    @property
    def basis(self) -> ModeBasis:
        """The basis the coefficients ``y`` are returned in and the weights
        ``z`` act in: the groups' shared mode basis, a dense set's shared
        eigenbasis, or the identity for other dense groups."""
        return self._modes[0]

    @property
    def growth_values(self) -> list[np.ndarray] | None:
        """Per group, the values its action grows the modes of :attr:`basis`
        by (:func:`grow_modes`): spectral groups and dense groups in a shared
        eigenbasis; ``None`` for periodic translations (phase tables) and
        dense groups on the grid."""
        basis, values = self._modes
        if basis.fourier or values is None:
            return None
        return list(values) if basis.unitary is not None else [op.modal_values for op, _ in self.grouped]

    def propagators(self) -> list:
        """Each group's semigroup action on stacks in :attr:`basis`, with
        the contract of :meth:`Operator.propagate`: :func:`grow_modes` of
        its :attr:`growth_values`, which leaves a dense set's own
        eigendecompositions unmade, else the operator's own."""
        values = self.growth_values
        if values is None:
            return [op.propagate for op, _ in self.grouped]
        return [partial(grow_modes, v, op.label) for v, (op, _) in zip(values, self.grouped)]

    @cached_property
    def _factorization(self) -> _Factorization:
        """The factorization of ``M`` every solve goes through, built on
        first use; the only code that tells the structures of ``M`` apart.

        All three work on blocks: the values ``(g, d, 1, 1)`` of groups
        that are modal in :attr:`basis`, else the generators' blocks
        ``(g, 1, d, d)`` from :func:`generator_blocks`.  A single group
        makes ``M`` unit lower triangular: it is solved by substitution on
        the group's blocks, with no assembly and no pivoting.  Modal groups
        assemble one ``n x n`` matrix per mode, with the identity on the
        modes where two groups coincide.  Dense groups on the grid
        assemble the one ``(n d) x (n d)`` matrix and keep its pivoted LU,
        whose pivot gate also rejects the coincident modes.
        """
        ops = [op for op, _ in self.grouped]
        mults = [mult for _, mult in self.grouped]
        values = self._modes[1]
        blocks = generator_blocks(ops) if values is None else values[..., None, None]
        mask, pairs = np.zeros(blocks.shape[1], dtype=bool), []
        if len(ops) == 1:
            return _Factorization(partial(_substitute, blocks[0]), mask, pairs)
        v = _confluent_blocks(blocks, mults)
        if values is not None:
            if self.basis.unitary is None:  # _shared_eigenbasis refuses a coincident mode
                mask, pairs = _coincident_modes(self, values)
            v[mask] = np.eye(self.n, dtype=v.dtype)
            return _Factorization(partial(_mode_solve, v, mask), mask, pairs)
        try:
            factors = lu_factor_checked(v[0])
        except SingularMatrixError as exc:
            labels = [op.label for op in ops]
            raise SingularSystemError(
                f"assembled coefficient matrix for groups {labels} is singular "
                f"({exc}); some pair of declared-distinct factors may coincide"
            ) from exc

        def lu_solve(rhs):
            flat = rhs.reshape(-1, rhs.shape[-1]).astype(np.result_type(factors[0], rhs), copy=False)
            return lu_apply(factors, flat).reshape(rhs.shape)

        return _Factorization(lu_solve, mask, pairs)

    @cached_property
    def _weights(self) -> ZCoefficients:
        """The forcing weights ``z`` of :func:`solve_z_vector`, solved and
        put through the probe's residual gate on first use; a failed gate
        raises and keeps nothing."""
        z = ZCoefficients(self)
        factorization = self._factorization
        probe = np.random.default_rng(_PROBE_SEED).standard_normal(self.dim)
        p_modal = self.basis.to_modes(probe)
        if factorization.pairs:
            p_modal[factorization.mask] = 0.0
            probe = self.basis.from_modes(p_modal, probe)
        x = np.zeros((self.n, self.dim), dtype=probe.dtype)
        x[-1] = probe
        _residual_gate(self, z.apply_modes(p_modal), x, "forcing-weight")
        return z

    def _locate(self, c: int) -> tuple[Operator, int]:
        acc = 0
        for op, mult in self.grouped:
            if c < acc + mult:
                return op, c - acc
            acc += mult
        raise IndexError(f"column {c} out of range for order {self.n}")

    def entry(self, r: int, c: int) -> tuple[tuple[int, int, str], ...]:
        """Terms ``(coefficient, power, label)`` of entry (r, c); () is zero."""
        if not (0 <= r < self.n):
            raise IndexError(f"row {r} out of range for order {self.n}")
        op, k = self._locate(c)
        if r < k:
            return ()
        return ((comb(r, k), r - k, op.label),)

    def symbol_grid(self) -> list[list[tuple[int, int, str] | None]]:
        """Whole grid with one monomial (or None) per entry."""
        n = self.n
        return [
            [self.entry(r, c)[0] if self.entry(r, c) else None for c in range(n)]
            for r in range(n)
        ]

    def apply(self, ys) -> list[np.ndarray]:
        """Apply the matrix to a coefficient vector via operator actions.

        :func:`_confluent_apply` with each group's ``Operator.apply``, so
        entry values ``B^(r-k) y`` are produced by repeated actions and
        never by materialized blocks or powers; ``ys`` are states on the
        grid (the residual gate walks ``M`` in ``basis``).
        """
        if len(ys) != self.n:
            raise DimensionMismatchError(f"expected {self.n} coefficient vectors, got {len(ys)}")
        ys = [as_state_vector(y, self.dim) for y in ys]
        return _confluent_apply(
            [op.apply for op, _ in self.grouped], [mult for _, mult in self.grouped], ys
        )

    def __str__(self) -> str:
        def render(term):
            if term is None:
                return "0"
            c, p, label = term
            if p == 0:
                return "I" if c == 1 else f"{c}I"
            base = label if p == 1 else f"{label}^{p}"
            return base if c == 1 else f"{c}{base}"

        grid = self.symbol_grid()
        cells = [[render(t) for t in row] for row in grid]
        width = max(len(s) for row in cells for s in row)
        return "\n".join("  ".join(s.rjust(width) for s in row) for row in cells)


def build_confluent_matrix(grouped) -> BlockOperatorMatrix:
    """Build the symbolic coefficient matrix from grouped factors.

    ``M`` depends on the generators alone, so the last matrix built is
    kept, keyed on the operator objects themselves and their
    multiplicities: the same grouping gets that matrix back with the
    factorization it has built, and consecutive solves on one operator set
    factorize ``M`` once.  Any other grouping builds a new matrix in its
    place.
    """
    return _last_matrix(tuple((op, int(mult)) for op, mult in grouped))


_last_matrix = lru_cache(maxsize=1)(BlockOperatorMatrix)


# ---------------------------------------------------------------------------
# scalar / per-mode machinery
# ---------------------------------------------------------------------------


def scalar_confluent_matrix(nodes, multiplicities) -> np.ndarray:
    """Classical confluent Vandermonde matrix for scalar nodes.

    ``nodes[j]`` appears with multiplicity ``multiplicities[j]``; the
    derivative columns carry the binomial normalization used throughout
    this package (entry ``C(r, k) node^(r-k)``).
    """
    nodes = np.asarray(nodes)
    multiplicities = list(multiplicities)
    if nodes.ndim != 1 or nodes.shape[0] != len(multiplicities):
        raise ValueError("need exactly one scalar node per multiplicity")
    dtype = np.complex128 if np.iscomplexobj(nodes) else np.float64
    return _confluent_blocks(nodes.astype(dtype).reshape(-1, 1, 1, 1), multiplicities)[0]


def _confluent_blocks(blocks: np.ndarray, multiplicities) -> np.ndarray:
    """``M`` as independent blocks, shape ``(b, n m, n m)``, from the group
    generators' blocks ``(g, b, m, m)`` of :func:`generator_blocks`.

    Block row r, local column k of group j holds ``C(r, k) B_j^(r-k)``.
    """
    _, b, m, _ = blocks.shape
    n = sum(multiplicities)
    v = np.zeros((b, n * m, n * m), dtype=blocks.dtype)
    col = 0
    for base, mult in zip(blocks, multiplicities):
        powers = [np.eye(m, dtype=blocks.dtype)]
        for _ in range(n - 1):
            powers.append(base @ powers[-1])
        for k in range(mult):
            for r in range(k, n):
                v[:, r * m : (r + 1) * m, col * m : (col + 1) * m] = comb(r, k) * powers[r - k]
            col += 1
    return v


class _Factorization(NamedTuple):
    """One factorization of ``M``, whatever its structure.

    ``solve`` takes a stack ``(n, d, k)``, k columns of n states in
    :attr:`BlockOperatorMatrix.basis`, and returns the solutions in the same
    layout.  ``mask`` holds one flag per block of :func:`generator_blocks`,
    set on the modes where distinct groups coincide, where the solution is
    0; ``pairs`` names the coinciding labels.  Neither marks anything unless
    the groups are modal.
    """

    solve: Callable[[np.ndarray], np.ndarray]
    mask: np.ndarray
    pairs: list


def _coincident_modes(matrix: BlockOperatorMatrix, nodes: np.ndarray):
    """Modes where distinct-labeled groups carry coincident modal values."""
    g, d = nodes.shape
    mask = np.zeros(d, dtype=bool)
    pairs = []
    for j in range(g):
        for l in range(j + 1, g):
            close = coincident_modes(nodes[j], nodes[l])
            if np.any(close):
                mask |= close
                pairs.append(
                    (matrix.grouped[j][0].label, matrix.grouped[l][0].label, np.where(close)[0])
                )
    return mask, pairs


def _coincidence_message(pairs) -> str:
    bits = []
    for la, lb, modes in pairs:
        shown = ", ".join(str(m) for m in modes[:8])
        more = "" if len(modes) <= 8 else f", ... ({len(modes)} total)"
        bits.append(f"labels {la!r} and {lb!r} coincide at modes [{shown}{more}]")
    return "; ".join(bits)


def _check_dead_modes(factorization: _Factorization, modal: np.ndarray) -> None:
    """Reject a modal right-hand side (modes on the last axis, every mode or
    the leading ones of :meth:`ZCoefficients.modes_of`) that excites a
    coincident mode."""
    if factorization.pairs and excites(modal, factorization.mask[: modal.shape[-1]]):
        raise SingularSystemError(
            "declared-distinct factors act identically on excited modes: "
            + _coincidence_message(factorization.pairs)
        )


def _substitute(base: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve ``M y = rhs`` for a single group by forward substitution on its
    blocks ``base`` ``(b, m, m)``: ``M`` is unit lower triangular, and each
    ``B^(r-k) y_k`` is one block product more than ``B^(r-k-1) y_k``."""
    x = rhs.reshape(rhs.shape[0], *base.shape[:2], -1)  # (n, b, m, k)
    ys: list[np.ndarray] = []
    powered: list[np.ndarray] = []
    for r in range(len(x)):
        acc = x[r]
        for k in range(r):
            powered[k] = base @ powered[k]  # now B^(r-k) y_k
            acc = acc - comb(r, k) * powered[k]
        ys.append(acc)
        powered.append(acc)
    return np.stack(ys).reshape(rhs.shape)


def _mode_solve(matrices: np.ndarray, mask: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve the per-mode systems ``(d, n, n)`` for a stack ``(n, d, k)``;
    the solution is 0 on the ``mask`` modes, which the right-hand side must
    leave unexcited."""
    rhs = np.array(rhs.transpose(1, 0, 2), dtype=np.result_type(matrices, rhs))
    rhs[mask] = 0.0
    try:
        return np.linalg.solve(matrices, rhs).transpose(1, 0, 2)
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(f"per-mode coefficient solve failed: {exc}") from exc


# The bound on a shared eigenbasis ``q``.  Write ``q^H B_j q = D_j + E_j``,
# ``D_j`` its diagonal.  In ``q`` the generators are taken as ``q D_j q^H``,
# ``||E_j||_2 <= ||E_j||_F`` away from ``B_j``, which moves two outputs:
# - each semigroup row, by at most ``t ||E_j|| e^{t ||E_j||}`` relative to
#   ``||e^{t D_j}||`` (Van Loan, SIAM J. Numer. Anal. 14 (1977) 971-981,
#   for the normal ``D_j``);
# - the residual the gate reads against the true ``B_j``: the modal ``y``
#   solves ``M~ y = x``, so the gate reads ``(M - M~) y``.  As
#   ``||B^p - B~^p|| <= p ||E|| beta^(p-1)`` with ``beta = max|D_j| +
#   ||E_j||_F``, its row r is at most ``sum_{j,k} C(r,k) (r-k) ||E_j||
#   beta_j^(r-k-1) ||y_jk||_2``, and ``C(r,k) (r-k) beta^(r-k-1)`` is r
#   times entry ``(r-1, k)`` of the scalar confluent matrix of the
#   ``beta_j``.  Per mode ``y = M~_i^{-1} x``, so ``||y_jk||_2 <= K_jk
#   sqrt(d) max_r ||x_r||_inf`` with ``K_jk = sum_r max_i |(M~_i^{-1})_{jk,r}|``.
# The reading is that residual per unit of data,
# ``sqrt(d) max_r sum_{j,k} (...) K_jk``, and ``q`` serves while it is at
# most ``RESIDUAL_RTOL``: to first order in ``E`` no right-hand side then
# leaves the gate's ``RESIDUAL_RTOL (1 + max_r ||x_r||_inf)``, and the rows
# move by the first bound at an ``||E_j||`` that small.  Above it the set is
# solved on the grid, by the LU.


def _shared_eigenbasis(matrix: BlockOperatorMatrix):
    """``(basis, values, reading)`` in the unitary eigenbasis ``q`` of the
    first Hermitian or skew-Hermitian group (``DenseMatrixOperator.eig``),
    refined toward the others (:func:`_joint_eigenbasis`): the diagonals
    of ``q^H B_j q``, ``(g, d)``, and the reading of the bound above.
    ``None`` if no group has such a ``q``, if ``q`` is complex for real
    generators (a real skew-symmetric group, whose ``q`` would turn real
    data complex), or if a mode coincides between two groups."""
    ops = [op for op, _ in matrix.grouped]
    eig = next((op.eig for op in ops if op.eig is not None), None)
    mats = generator_blocks(ops)[:, 0]
    if eig is None or (np.iscomplexobj(eig[1]) and not np.iscomplexobj(mats)):
        return None
    q = _joint_eigenbasis(eig[1], mats)
    rest = q.conj().T @ (mats @ q)
    diagonals = np.einsum("gii->gi", rest)  # a view: zeroed below, leaving E_j
    values = diagonals.copy()
    diagonals[...] = 0.0
    off = np.linalg.norm(rest, axis=(1, 2))
    if _coincident_modes(matrix, values)[0].any():
        return None
    mults = [mult for _, mult in matrix.grouped]
    inverses = np.linalg.inv(_confluent_blocks(values[..., None, None], mults))  # no mode coincides
    k = np.max(np.abs(inverses), axis=0).sum(axis=1)
    beta = scalar_confluent_matrix(np.max(np.abs(values), axis=1) + off, mults)
    growth = np.arange(1, matrix.n)[:, None] * beta[:-1] * np.repeat(off, mults)
    reading = math.sqrt(matrix.dim) * float(np.max(growth @ k, initial=0.0))
    q.flags.writeable = False
    return ModeBasis(unitary=(q, q.conj().T)), values, reading


def _joint_eigenbasis(q: np.ndarray, mats: np.ndarray) -> np.ndarray:
    """The unitary ``q`` after one first-order step toward a common
    eigenbasis of the matrices ``mats``, ``(g, d, d)``.

    Where the group that gave ``q`` has nearly repeated eigenvalues,
    rounding mixes their modes by about ``eps ||B|| / gap``, and a group
    that tells them apart reads the mixing off its diagonal.  With ``R_j =
    q^H B_j q`` and its diagonal ``D_j``, ``q (I + X)`` takes entry
    ``(a, b)`` off every ``R_j`` to first order when ``X_ab (D_j,b -
    D_j,a) = R_j,ab`` for all j, which ``X_ab`` solves in least squares: a
    Jacobi step of simultaneous diagonalization (Bunse-Gerstner, Byers and
    Mehrmann, SIAM J. Matrix Anal. Appl. 14 (1993) 927-949).  ``X_ab`` is
    kept where it is below 1, where first order holds (where every group
    coincides any mixing serves, and it is 0), and so is only its
    anti-Hermitian part, which it is for normal ``B_j``: the rounding of
    ``R_j,ab`` against ``R_j,ba`` over a small gap would stretch ``q``.
    ``q (I + X)`` is then unitary to ``||X||_F^2``, and re-orthonormalized
    by QR when that is above eps.
    """
    r = q.conj().T @ (mats @ q)
    diagonals = np.einsum("gii->gi", r)
    gaps = diagonals[:, None, :] - diagonals[:, :, None]  # D_j,b - D_j,a at (a, b)
    num = np.einsum("gab,gab->ab", gaps.conj(), r)  # 0 on the diagonal
    den = np.einsum("gab,gab->ab", gaps.conj(), gaps).real
    x = np.divide(num, den, out=np.zeros_like(num), where=np.abs(num) < den)
    x = 0.5 * (x - x.conj().T)
    q = q + q @ x
    if np.vdot(x, x).real > np.finfo(np.float64).eps:
        q = np.linalg.qr(q)[0]
    return q


def _confluent_apply(actions, multiplicities, y) -> list:
    """The n rows of ``M y`` for coefficient blocks ``y`` (n of them), where
    ``actions[j]`` maps ``w`` to ``B_j w``: each column walks up its powers,
    ``B^(r-k) y_k`` being one action more than ``B^(r-k-1) y_k``.  A row
    takes its first term as it is and adds the later ones, so it is
    exactly the sum of its terms in column order."""
    n = len(y)
    out: list = [None] * n
    col = 0
    for act, mult in zip(actions, multiplicities):
        for k in range(mult):
            w = y[col]
            for r in range(k, n):
                contrib = comb(r, k) * w
                out[r] = contrib if out[r] is None else out[r] + contrib
                if r < n - 1:
                    w = act(w)
            col += 1
    return out


def _residual_gate(matrix: BlockOperatorMatrix, ys, x, what: str) -> float:
    """The residual ``max_r ||(M y)_r - x_r||_inf`` of the ``what`` solve,
    for rows ``ys`` in ``matrix.basis`` and right-hand sides ``x`` on the
    grid.  Modal families walk ``M`` on ``ys`` in the basis by their modal
    values and take the rows back to the grid once; dense groups take
    ``ys`` to the grid and walk the true generators (``apply``), so a
    shared eigenbasis is judged against the ``B_j`` it only nearly
    diagonalizes.  A residual over ``RESIDUAL_RTOL (1 + max_r
    ||x_r||_inf)`` raises :class:`SingularSystemError`."""
    dense = matrix.grouped[0][0].mode_basis is None
    if dense:
        ys = matrix.basis.from_modes(ys, x)
    actions = [op.apply if dense else partial(np.multiply, op.modal_values) for op, _ in matrix.grouped]
    applied = np.stack(_confluent_apply(actions, [mult for _, mult in matrix.grouped], ys))
    rows = applied if dense else matrix.basis.from_modes(applied, x)
    scale = 1.0 + max(inf_norm(v) for v in x)
    worst = max(inf_norm(row - v) for row, v in zip(rows, x))
    if not worst <= RESIDUAL_RTOL * scale:  # a NaN residual fails too
        raise SingularSystemError(
            f"{what} solve failed the residual gate: {worst:.3e} > "
            f"{RESIDUAL_RTOL * scale:.3e}; check for coincident factors declared "
            "under distinct labels"
        )
    return worst


class _Coefficients(list):
    """The coefficient rows ``y_0 .. y_{n-1}``, carrying in ``residual``
    the ``max_r ||(M y)_r - x_r||_inf`` their residual gate measured."""

    def __init__(self, ys, residual: float):
        super().__init__(ys)
        self.residual = residual


def solve_coefficients(matrix: BlockOperatorMatrix, x) -> list[np.ndarray]:
    """Solve ``M y = x`` for the coefficient vectors ``y_0 .. y_{n-1}``.

    ``x`` holds the n right-hand-side state vectors (for the homogeneous
    problem these are the raw initial derivatives ``x_0 .. x_{n-1}``).  The
    rows returned are the solve's own, in ``matrix.basis``, where ``z``
    acts: states for spectral groups and dense groups on the grid, Fourier
    coefficients (``np.fft.fft`` of a state) for periodic translations, and
    the modes ``q^H v`` in a dense set's shared eigenbasis.  They have passed
    the residual gate ``||(M y)_r - x_r||_inf <= 1e-9 (1 + ||x||_inf)``,
    whose reading the returned list carries as ``residual``.
    """
    n = matrix.n
    if len(x) != n:
        raise DimensionMismatchError(f"expected {n} right-hand-side vectors, got {len(x)}")
    xs = np.stack([as_state_vector(xi, matrix.dim) for xi in x])
    factorization = matrix._factorization
    modal = matrix.basis.to_modes(xs)
    _check_dead_modes(factorization, modal)
    ys = factorization.solve(modal[..., None])[..., 0]
    return _Coefficients(ys, _residual_gate(matrix, ys, xs, "coefficient"))


# ---------------------------------------------------------------------------
# forcing weights
# ---------------------------------------------------------------------------


class ZCoefficients:
    """Forcing weights: the solution ``z`` of ``M z = (0, ..., 0, I)``.

    Each ``z_k`` lies in the algebra the commuting generators span, so it
    commutes with every ``e^{tau B_j}`` and the solver weighs last:
    :meth:`weigh` returns ``sum_k z_k h_k``.  ``zeta`` holds ``z``, computed
    once through the factorization of ``M`` that :func:`solve_coefficients`
    uses, as blocks ``(n, b, m, m)`` that act on states in ``basis``
    (:attr:`BlockOperatorMatrix.basis`), in the layout of the factorization:
    one value per mode (``m = 1``) for groups modal in ``basis``, a shared
    eigenbasis included, else one ``d x d`` block.  They are ``M^{-1}``
    times the identity's last block column, zero on coincident modes.  For
    a single group that is ``e_n`` exactly.
    """

    def __init__(self, matrix: BlockOperatorMatrix):
        self.matrix = matrix
        self.basis = matrix.basis
        n, b = matrix.n, matrix._factorization.mask.size
        m = matrix.dim // b
        last = np.zeros((n, b, m, m))
        last[-1] = np.eye(m)  # b identity blocks
        self.zeta = matrix._factorization.solve(last.reshape(n, -1, m)).reshape(last.shape)
        self.zeta.flags.writeable = False  # the matrix keeps z for every later solve

    def modes_of(self, g: np.ndarray) -> np.ndarray:
        """The leading :meth:`ModeBasis.kept_modes` of a stack ``(m, d)`` of
        states: every mode, or for real states on a real periodic grid the
        modes ``0 .. d//2`` by one ``rfft``.  A state that excites a
        coincident mode (measured against its own largest mode) raises
        :class:`SingularSystemError`; the leading modes decide that alone,
        as a real periodic grid's coincidence mask is symmetric under ``k
        <-> d - k`` and a real state's modes there are conjugate."""
        modal = np.fft.rfft(g, axis=-1) if self.basis.kept_modes(g) < g.shape[-1] else self.basis.to_modes(g)
        _check_dead_modes(self.matrix._factorization, modal[:, None, :])
        return modal

    def weigh(self, h: np.ndarray, like: np.ndarray) -> np.ndarray:
        """The states ``sum_k z_k h[s, k]``, shape ``(S, d)``, for a stack
        ``h`` of shape ``(S, n, d)`` in ``basis``, or ``(S, n, k)`` of its
        leading :meth:`ModeBasis.kept_modes`, weighed by those of ``zeta``;
        ``like``, the stack ``h`` grew from, sets the real-output rule."""
        modal = h.reshape(h.shape[:2] + (-1, self.zeta.shape[-1]))
        out = np.einsum("kbij,skbj->sbi", self.zeta[:, : modal.shape[2]], modal)
        return self.basis.from_modes(out.reshape(h.shape[0], -1), like)

    def apply_modes(self, g_hat: np.ndarray) -> np.ndarray:
        """``z_0 g, ..., z_{n-1} g`` in ``basis``, shape ``(n, d)``, for the
        modes ``g_hat`` of a state ``g``."""
        out = np.einsum("kbij,bj->kbi", self.zeta, g_hat.reshape(self.zeta.shape[1], -1))
        return out.reshape(self.matrix.n, -1)

    def apply_all(self, g) -> np.ndarray:
        """``z_0 g, ..., z_{n-1} g``, shape ``(n, d)``, for a state ``g``."""
        g = as_state_vector(g, self.matrix.dim)
        g_hat = self.basis.to_modes(g)
        _check_dead_modes(self.matrix._factorization, g_hat)
        return self.basis.from_modes(self.apply_modes(g_hat), g)


def solve_z_vector(matrix: BlockOperatorMatrix) -> ZCoefficients:
    """Solve ``M z = (0, ..., 0, I)`` and return the forcing weights.

    The weights share the factorization of ``M`` with
    :func:`solve_coefficients` on the same matrix, so a solve that needs
    both ``y`` and ``z`` factorizes ``M`` once.  They are validated once
    against a random probe through the residual gate: ``M`` walked on
    ``z`` applied to the probe's modes, in the basis, must reproduce the
    probe in the last row and zeros above.  The probe leaves coincident
    modes unexcited.  ``z`` depends on ``M`` alone, so the matrix keeps the
    weights that passed, as it keeps its factorization: every later call on
    it (a re-solve on a kept operator set, the CLI's quadrature check)
    returns them, and a failed gate keeps nothing.
    """
    return matrix._weights


# ---------------------------------------------------------------------------
# two-operator recursion cross-check
# ---------------------------------------------------------------------------


def two_operator_closed_form(a: Operator, b: Operator, u1_star, prev) -> list[np.ndarray]:
    """Coefficients for the factor pattern ``(B, A, A, ..., A)`` by recursion.

    ``a`` is the repeated operator, ``b`` the single leading factor.
    ``prev`` holds the ``n - 1`` coefficients of the repeated-``a``
    sub-equation (the cascade stage after peeling ``b``) and ``u1_star``
    is the plain initial value ``u(0)``.  The new coefficients are built
    from iterated resolvent applications ``(A - B)^{-m}``:

        y_0 = u(0) + sum_{k=0}^{n-2} (-1)^(k+1) (A-B)^-(k+1) prev_k
        y_j = sum_{k=j-1}^{n-2} (-1)^(k-j+1) (A-B)^-(k-j+2) prev_k,  j >= 1

    ordered to match ``solve_coefficients`` on grouped factors
    ``[(B, 1), (A, n-1)]``; the two paths must agree and tests hold them to
    1e-8.  ``(A - B)^{-1}`` is one :func:`resolvent_solve`, so a dense
    ``A - B`` is factored once.
    """
    prev = [as_state_vector(p, a.dim) for p in prev]
    u1 = as_state_vector(u1_star, a.dim)
    n = len(prev) + 1
    if n == 1:
        return [u1]
    resolvent = resolvent_solve(a, b)
    # chains[k][m-1] = (A - B)^{-m} prev[k] for m = 1 .. k+1
    chains: list[list[np.ndarray]] = []
    for k, vec in enumerate(prev):
        w = vec
        chain = []
        for _ in range(k + 1):
            w = resolvent(w)
            chain.append(w)
        chains.append(chain)

    y0 = u1
    for k in range(n - 1):
        term = chains[k][k]
        y0 = y0 + term if (k + 1) % 2 == 0 else y0 - term
    ys = [y0]
    for j in range(1, n):
        acc: np.ndarray | None = None
        for k in range(j - 1, n - 1):
            term = chains[k][k - j + 1]
            signed = term if (k - j + 1) % 2 == 0 else -term
            acc = signed if acc is None else acc + signed
        ys.append(acc)
    return ys
