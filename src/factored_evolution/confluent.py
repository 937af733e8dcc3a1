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
modal values with the given multiplicities.  Every solve works on the
generators' blocks (``operators.generator_blocks``) in
``BlockOperatorMatrix.basis``, the groups' shared mode basis (the spectral
and periodic-translation backends) or, for dense groups, the identity: the
coefficients ``y`` are returned in it and the weights ``z`` act in it.
One record, ``BlockOperatorMatrix._factorization``, holds the only code
that tells the four structures of ``M`` apart, and its ``solve`` takes
stacks ``(n, d, k)`` of states in that basis.  A single repeated factor
makes ``M`` unit lower triangular and is solved by substitution on its
blocks; groups with a mode basis have 1 x 1 blocks, so ``M`` splits into
one small scalar system per mode (a mode where two groups coincide is
allowed as long as the right-hand side leaves it unexcited); dense groups
that the unitary eigenbasis of one of them (``DenseMatrixOperator.eig``)
diagonalizes, with no mode coinciding and a real basis for real
generators, split the same way in that basis, and their right-hand sides
are rotated into it and back; other dense groups have one block, the full
``(n d) x (n d)`` matrix, which is LU-factored.  Each
``BlockOperatorMatrix`` builds the record once, on first use, both ``y``
and ``z`` are solved through it, and the matrix keeps the weights ``z``,
which depend on ``M`` alone; :func:`build_confluent_matrix` hands the last
matrix back for the same operator set, so solves on one set factorize
``M`` and solve ``z`` once.  The residual gate checks every solve against
``M`` applied the other way, in that basis too; one walk,
:func:`_confluent_apply`, applies ``M`` through the generators' actions in
the basis for the gate and through the generator matrices for the
eigenbasis correction.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial
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
    OPERATOR_SLOT,
    ModeBasis,
    Operator,
    coincident_modes,
    excites,
    generator_blocks,
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

# Off-diagonal part of ``q^H B_j q``, relative to ``||B_j||_F``, up to which
# a dense group counts as diagonal in a shared eigenbasis ``q``.  Nearly
# repeated eigenvalues of the group that gave ``q`` leave up to about 2e-10
# there (d = 128, eigenvalue gaps down to 5e-8); the eigenbasis solve takes
# it up with one correction step, which leaves about its square.
_EIGENBASIS_RTOL = 1e-9


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
    def basis(self) -> ModeBasis:
        """The groups' shared mode basis (the identity if dense): the basis
        the coefficients ``y`` are returned in and the weights ``z`` act in."""
        return shared_mode_basis(op for op, _ in self.grouped)

    @cached_property
    def _factorization(self) -> _Factorization:
        """The factorization of ``M`` every solve goes through, built on
        first use; the only code that tells the structures of ``M`` apart.

        All four work on the generators' blocks from
        :func:`generator_blocks`.  A single group makes ``M`` unit lower
        triangular: it is solved by substitution on the group's blocks,
        with no assembly and no pivoting.  Groups that share a mode basis
        assemble one ``n x n`` matrix per mode, with the identity on the
        modes where two groups coincide.  Dense groups that the unitary
        eigenbasis ``q`` of the first Hermitian or skew-Hermitian one
        diagonalizes, with no coincident mode (and ``q`` real if the
        generators are), assemble one ``n x n`` matrix per mode of the
        diagonals of ``q^H B_j q`` (:func:`_eigenbasis_solve`); the record
        keeps one block and no mask, and its ``solve`` rotates the states,
        in the identity basis, into ``q`` and back.  Any other dense groups assemble the
        one ``(n d) x (n d)`` matrix and keep its pivoted LU, whose pivot
        gate also rejects the coincident modes.
        """
        ops = [op for op, _ in self.grouped]
        mults = [mult for _, mult in self.grouped]
        blocks = generator_blocks(ops)
        mask, pairs = np.zeros(blocks.shape[1], dtype=bool), []
        if len(ops) == 1:
            return _Factorization(partial(_substitute, blocks[0]), mask, pairs)
        if ops[0].mode_basis is not None:
            v = _confluent_blocks(blocks, mults)
            mask, pairs = _coincident_modes(self, blocks[..., 0, 0])
            v[mask] = np.eye(self.n, dtype=v.dtype)
            return _Factorization(partial(_mode_solve, v, mask), mask, pairs)
        solve = _eigenbasis_solve(self, blocks[:, 0], mults)
        if solve is not None:
            return _Factorization(solve, mask, pairs)
        v = _confluent_blocks(blocks, mults)
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
    kept in ``operators.OPERATOR_SLOT``: the same operator objects, in the
    same order and with the same multiplicities, get that matrix back with
    the factorization it has built, and consecutive solves on one operator
    set factorize ``M`` once.  Any other grouping builds a new matrix,
    which takes the slot and drops the one before.
    """
    grouped = tuple((op, int(mult)) for op, mult in grouped)
    ops = tuple(op for op, _ in grouped)
    commute, kept = OPERATOR_SLOT.lookup(ops)
    if kept is not None and kept.grouped == grouped:  # same objects, so the multiplicities decide
        return kept
    matrix = BlockOperatorMatrix(grouped)
    OPERATOR_SLOT.keep(ops, commute, matrix)
    return matrix


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
    """Reject a modal right-hand side (modes on the last axis) that excites a
    coincident mode."""
    if factorization.pairs and excites(modal, factorization.mask):
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


def _eigenbasis_solve(matrix: BlockOperatorMatrix, mats: np.ndarray, multiplicities):
    """The ``solve`` of ``M`` for dense groups ``mats`` ``(g, d, d)`` with
    ``multiplicities``, in the unitary eigenbasis ``q`` of the first group
    that carries one (``DenseMatrixOperator.eig``), or ``None``, which
    leaves ``M`` to the LU.

    ``q`` serves when it diagonalizes every group to within
    ``_EIGENBASIS_RTOL`` of its Frobenius norm and no mode coincides
    between two groups; ``M`` then splits into one ``n x n`` system per
    mode of the diagonals, as for modal groups.  Real generators need a
    real ``q`` (a real skew-symmetric group has a complex one): rotating
    real data by a complex basis costs complex products, which on the
    forced ``z`` solve cost more than the LU.
    """
    q = next((op.eig[1] for op, _ in matrix.grouped if op.eig is not None), None)
    if q is None or (np.iscomplexobj(q) and not np.iscomplexobj(mats)):
        return None
    bq = mats @ q
    diagonals = (q.conj() * bq).sum(axis=1)  # of q^H B_j q
    off = np.linalg.norm(bq - q * diagonals[:, None], axis=(1, 2))  # q unitary
    if not np.all(off <= _EIGENBASIS_RTOL * np.linalg.norm(mats, axis=(1, 2))):
        return None
    if _coincident_modes(matrix, diagonals)[0].any():
        return None
    v = _confluent_blocks(diagonals[..., None, None], multiplicities)
    return partial(_rotated_solve, q, v, mats, multiplicities)


def _rotated_solve(q, v, mats, multiplicities, rhs: np.ndarray) -> np.ndarray:
    """Solve ``M y = rhs`` for a stack ``(n, d, k)`` through the basis ``q``,
    in which ``v`` holds the per-mode systems, and then once more for the
    residual of ``M`` applied through the generators ``mats``: the
    correction takes up the off-diagonal part of ``q^H B_j q`` and the
    rounding of the rotations."""
    no_mask = np.zeros(q.shape[0], dtype=bool)

    def solve(b):  # rotated into q and back
        return q @ _mode_solve(v, no_mask, q.conj().T @ b)

    y = solve(rhs)
    applied = _confluent_apply([partial(np.matmul, m) for m in mats], multiplicities, y)
    y += solve(rhs - np.stack(applied))
    return y


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
    for rows ``ys`` in ``matrix.basis`` and right-hand sides ``x``
    on the grid.  ``M`` is walked on ``ys`` in the basis, each group acting
    by its generator's blocks (``apply`` if dense, its modal values if
    modal), and the rows go back to the grid once; a residual over
    ``RESIDUAL_RTOL (1 + max_r ||x_r||_inf)`` raises :class:`SingularSystemError`."""
    actions = [
        op.apply if op.mode_basis is None else partial(np.multiply, op.modal_values)
        for op, _ in matrix.grouped
    ]
    applied = _confluent_apply(actions, [mult for _, mult in matrix.grouped], ys)
    rows = matrix.basis.from_modes(np.stack(applied), x)
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
    acts: states for dense and spectral groups, Fourier coefficients
    (``np.fft.fft`` of a state) for periodic translations.  They have passed
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
    uses, as blocks ``(n, b, m, m)`` in the layout of :func:`generator_blocks`
    that act on states in ``basis`` (:attr:`BlockOperatorMatrix.basis`):
    ``M^{-1}`` times the identity's last block column, zero on coincident
    modes.  For a single group that is ``e_n`` exactly.
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
        """Modes of a stack ``(m, d)`` of states; a state that excites a
        coincident mode (measured against its own largest mode) raises
        :class:`SingularSystemError`."""
        modal = self.basis.to_modes(g)
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
        return self.basis.from_modes(self.apply_modes(self.modes_of(g[None])[0]), g)


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
    it (a re-solve on a held operator set, the CLI's quadrature check)
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
