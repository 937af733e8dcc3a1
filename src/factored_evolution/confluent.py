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
modal values with the given multiplicities.  One assembly builds ``M`` from
the generators' blocks (``operators.generator_blocks``).  Groups that share
a mode basis (``Operator.mode_basis``: the spectral and periodic-translation
backends) have 1 x 1 blocks, so ``M`` splits into one small scalar system
per mode, and take one path: transform into modes, solve, transform back.
A mode where two groups coincide is allowed as long as the right-hand side
leaves it unexcited.  Dense groups have one block, the full ``(n d) x (n d)``
matrix, which is LU-factored.
A single repeated factor needs no inversion at all, the matrix is unit
lower triangular and forward substitution with operator applications does
the job for every backend.  Each ``BlockOperatorMatrix`` builds this
factorization once, on first use, and both the coefficients ``y`` and the
forcing weights ``z`` are solved through it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import comb
from typing import NamedTuple

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
            if op.family != first.family or op.dim != first.dim:
                raise DimensionMismatchError(
                    "all grouped operators must share one backend family and dimension"
                )
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
    def mode_basis(self) -> ModeBasis | None:
        """The basis in which every group is diagonal, or None."""
        return shared_mode_basis(op for op, _ in self.grouped)

    @cached_property
    def _factorization(self):
        """Factorization of ``M`` shared by every solve, built on first use.

        ``None`` for a single group (``M`` is unit lower triangular).
        Otherwise ``M`` is assembled from :func:`generator_blocks`: one
        ``n x n`` matrix per mode for groups that share a mode basis, kept
        as :class:`_ModeSystems`, and one ``(n d) x (n d)`` matrix for dense
        groups, kept as its pivoted LU.
        """
        if len(self.grouped) == 1:
            return None
        blocks = generator_blocks(op for op, _ in self.grouped)
        v = _confluent_blocks(blocks, [mult for _, mult in self.grouped])
        basis = self.mode_basis
        if basis is not None:
            mask, pairs = _coincident_modes(self, blocks[..., 0, 0])
            v[mask] = np.eye(v.shape[1], dtype=v.dtype)
            return _ModeSystems(v, mask, pairs, basis)
        try:
            return lu_factor_checked(v[0])
        except SingularMatrixError as exc:
            labels = [op.label for op, _ in self.grouped]
            raise SingularSystemError(
                f"assembled coefficient matrix for groups {labels} is singular "
                f"({exc}); some pair of declared-distinct factors may coincide"
            ) from exc

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

        Walks each column upward through its powers, so entry values
        ``B^(r-k) y`` are produced by repeated ``apply`` calls and never by
        materialized matrix powers.
        """
        n = self.n
        if len(ys) != n:
            raise DimensionMismatchError(f"expected {n} coefficient vectors, got {len(ys)}")
        ys = [as_state_vector(y, self.dim) for y in ys]
        out: list[np.ndarray | None] = [None] * n
        offset = 0
        for op, mult in self.grouped:
            for k in range(mult):
                w = ys[offset + k]
                for r in range(k, n):
                    contrib = comb(r, k) * w
                    out[r] = contrib if out[r] is None else out[r] + contrib
                    if r < n - 1:
                        w = op.apply(w)
            offset += mult
        return [np.asarray(row) for row in out]

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
    """Build the symbolic coefficient matrix from grouped factors."""
    return BlockOperatorMatrix(tuple((op, int(mult)) for op, mult in grouped))


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


class _ModeSystems(NamedTuple):
    """Per-mode scalar matrices of ``M``, shape ``(d, n, n)``, in ``basis``.

    ``mask`` marks the modes where distinct groups coincide; their matrices
    are set to the identity.  ``pairs`` names the coinciding labels and is
    empty when no mode coincides.
    """

    matrices: np.ndarray
    mask: np.ndarray
    pairs: list
    basis: ModeBasis


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


def _check_dead_modes(modes: _ModeSystems, modal: np.ndarray) -> None:
    """Reject a modal right-hand side (modes on the last axis) that excites a
    coincident mode."""
    if excites(modal, modes.mask):
        raise SingularSystemError(
            "declared-distinct factors act identically on excited modes: "
            + _coincidence_message(modes.pairs)
        )


def _mode_solve(modes: _ModeSystems, modal: np.ndarray) -> np.ndarray:
    """Solve the per-mode systems for an ``(n, d)`` modal right-hand side.

    The solution is 0 on coincident modes, which the right-hand side must
    leave unexcited.
    """
    if modes.pairs:
        _check_dead_modes(modes, modal)
    rhs = np.array(modal.T, dtype=np.result_type(modes.matrices, modal))  # (d, n)
    rhs[modes.mask] = 0.0
    try:
        sol = np.linalg.solve(modes.matrices, rhs[..., None])[..., 0]
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(f"per-mode coefficient solve failed: {exc}") from exc
    return sol.T  # (n, d)


def _forward_substitution(matrix: BlockOperatorMatrix, rhs_vectors) -> list[np.ndarray]:
    # Single repeated factor: M is unit lower triangular, so the solve only
    # needs operator applications.
    op = matrix.grouped[0][0]
    n = matrix.n
    ys: list[np.ndarray] = []
    powered: list[np.ndarray] = []
    for r in range(n):
        acc = rhs_vectors[r]
        for k in range(r):
            powered[k] = op.apply(powered[k])  # now B^(r-k) y_k
            acc = acc - comb(r, k) * powered[k]
        acc = np.array(acc, copy=True)
        ys.append(acc)
        powered.append(acc)
    return ys


def _lu_solve(factors, rhs: np.ndarray) -> np.ndarray:
    """Back-substitute an ``(n, d)`` right-hand side through the LU of the
    assembled ``M``."""
    col = rhs.reshape(-1, 1)
    sol = lu_apply(factors, col.astype(np.result_type(factors[0], col), copy=False))
    return sol.reshape(rhs.shape)


def _solve(matrix: BlockOperatorMatrix, rhs: np.ndarray) -> list[np.ndarray]:
    """Solve ``M y = rhs`` for an ``(n, d)`` stack through the shared factorization."""
    factors = matrix._factorization
    if factors is None:
        return _forward_substitution(matrix, rhs)
    if isinstance(factors, _ModeSystems):
        sol = _mode_solve(factors, factors.basis.to_modes(rhs))
        return list(factors.basis.from_modes(sol, rhs))
    return list(_lu_solve(factors, rhs))


def _residual_gate(matrix: BlockOperatorMatrix, ys, rhs_vectors, what: str) -> float:
    """The residual ``max_r ||(M y)_r - rhs_r||_inf`` of the ``what`` solve;
    over ``RESIDUAL_RTOL (1 + max_r ||rhs_r||_inf)`` it raises
    :class:`SingularSystemError`."""
    applied = matrix.apply(ys)
    scale = 1.0 + max(inf_norm(x) for x in rhs_vectors)
    worst = max(inf_norm(row - x) for row, x in zip(applied, rhs_vectors))
    if worst > RESIDUAL_RTOL * scale:
        raise SingularSystemError(
            f"{what} solve failed the residual gate: {worst:.3e} > "
            f"{RESIDUAL_RTOL * scale:.3e}; check for coincident factors declared "
            "under distinct labels"
        )
    return worst


class _Coefficients(list):
    """The coefficient vectors ``y_0 .. y_{n-1}``, carrying in ``residual``
    the ``max_r ||(M y)_r - x_r||_inf`` their residual gate measured."""

    def __init__(self, ys, residual: float):
        super().__init__(ys)
        self.residual = residual


def solve_coefficients(matrix: BlockOperatorMatrix, x) -> list[np.ndarray]:
    """Solve ``M y = x`` for the coefficient vectors ``y_0 .. y_{n-1}``.

    ``x`` holds the n right-hand-side state vectors (for the homogeneous
    problem these are the raw initial derivatives ``x_0 .. x_{n-1}``).
    Every returned solution has passed the residual gate
    ``||(M y)_r - x_r||_inf <= 1e-9 (1 + ||x||_inf)``; the returned list
    carries the measured residual as ``residual``.
    """
    n = matrix.n
    if len(x) != n:
        raise DimensionMismatchError(f"expected {n} right-hand-side vectors, got {len(x)}")
    xs = np.stack([as_state_vector(xi, matrix.dim) for xi in x])
    ys = _solve(matrix, xs)
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
    that act on states in ``basis`` (the shared mode basis, else the
    identity): ``M^{-1} e_n`` mode by mode for groups with a mode basis (zero
    on coincident modes), ``M^{-1}`` times the identity's last block column
    for dense groups, and ``e_n`` for a single group, one ``1 x 1`` block
    that acts coordinatewise in any basis.
    """

    def __init__(self, matrix: BlockOperatorMatrix):
        self.matrix = matrix
        factors = matrix._factorization
        self._modes = factors if isinstance(factors, _ModeSystems) else None
        self.basis = matrix.mode_basis or ModeBasis(fourier=False)
        n, d = matrix.n, matrix.dim
        if factors is None:
            self.zeta = np.eye(n)[:, -1].reshape(n, 1, 1, 1)
        elif self._modes is not None:
            e_n = np.zeros((n, d))
            e_n[-1] = ~self._modes.mask  # coincident modes get zero weights
            self.zeta = _mode_solve(self._modes, e_n)[..., None, None]
        else:  # the identity's last block column
            last = np.eye(n * d, d, k=d - n * d, dtype=factors[0].dtype)
            self.zeta = lu_apply(factors, last).reshape(n, 1, d, d)

    def modes_of(self, g: np.ndarray) -> np.ndarray:
        """Modes of a stack ``(m, d)`` of states; a state that excites a
        coincident mode (measured against its own largest mode) raises
        :class:`SingularSystemError`."""
        modal = self.basis.to_modes(g)
        if self._modes is not None and self._modes.pairs:
            _check_dead_modes(self._modes, modal[:, None, :])
        return modal

    def weigh(self, h: np.ndarray, like: np.ndarray) -> np.ndarray:
        """The states ``sum_k z_k h[s, k]``, shape ``(S, d)``, for a stack
        ``h`` of shape ``(S, n, d)`` in ``basis``; ``like``, the stack ``h``
        grew from, sets the real-output rule."""
        modal = h.reshape(h.shape[:2] + (-1, self.zeta.shape[-1]))
        out = np.einsum("kbij,skbj->sbi", self.zeta, modal)
        return self.basis.from_modes(out.reshape(h.shape[0], -1), like)

    def apply_all(self, g) -> np.ndarray:
        """``z_0 g, ..., z_{n-1} g``, shape ``(n, d)``, for a state ``g``."""
        g = as_state_vector(g, self.matrix.dim)
        return self.basis.from_modes(_blocks_times(self.zeta, self.modes_of(g[None])[0]), g)


def _blocks_times(blocks: np.ndarray, modal: np.ndarray) -> np.ndarray:
    """Blocks ``(..., b, m, m)`` times modal states ``(..., d)``."""
    m = blocks.shape[-1]
    out = (blocks * modal.reshape(modal.shape[:-1] + (-1, 1, m))).sum(-1)
    return out.reshape(out.shape[:-2] + (-1,))


def solve_z_vector(matrix: BlockOperatorMatrix) -> ZCoefficients:
    """Solve ``M z = (0, ..., 0, I)`` and return the forcing weights.

    The weights share the factorization of ``M`` with
    :func:`solve_coefficients` on the same matrix, so a solve that needs
    both ``y`` and ``z`` factorizes ``M`` once.  They are validated once
    against a random probe through the residual gate (applying ``M`` via
    operator actions must reproduce the probe in the last row and zeros
    above); the probe leaves coincident modes unexcited.
    """
    z = ZCoefficients(matrix)
    probe = np.random.default_rng(_PROBE_SEED).standard_normal(matrix.dim)
    if z._modes is not None and z._modes.pairs:
        p_modal = z.basis.to_modes(probe)
        p_modal[z._modes.mask] = 0.0
        probe = z.basis.from_modes(p_modal, probe)
    rhs = np.zeros((matrix.n, matrix.dim), dtype=probe.dtype)
    rhs[-1] = probe
    _residual_gate(matrix, z.apply_all(probe), rhs, "forcing-weight")
    return z


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
    1e-8.
    """
    from .operators import resolvent_solve

    prev = [as_state_vector(p, a.dim) for p in prev]
    u1 = as_state_vector(u1_star, a.dim)
    n = len(prev) + 1
    if n == 1:
        return [u1]
    # chains[k][m-1] = (A - B)^{-m} prev[k] for m = 1 .. k+1
    chains: list[list[np.ndarray]] = []
    for k, vec in enumerate(prev):
        w = vec
        chain = []
        for _ in range(k + 1):
            w = resolvent_solve(a, b, w)
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
