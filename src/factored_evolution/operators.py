"""Generator backends: dense matrices, diagonal mode ladders, translations.

An :class:`Operator` bundles a generator ``A`` with ``apply(v) = A v``, a
``label`` used for grouping repeated factors, and exactly one semigroup
action, ``propagate(t, v_hat)``: the rows ``e^{t_i A} v_hat[..., i, :]``
of a stack ``(..., m, d)`` already in the operator's basis
(:func:`shared_mode_basis`), with the m times exponentiated once and
broadcast over the leading axes, as a Duhamel run of intervals that share
one node layout holds its forcing.  ``semigroup(t, v) = e^{t A} v`` wraps
it for one time and a state, or an array of times and a stack: transform,
propagate, transform back, exact ``t = 0`` rows, one finiteness check.
Grouping is by label, never by numerical comparison of the underlying data:
the user declares which factors coincide.  An operator's arrays are
read-only once it is built, so what is learned of an operator set holds
for as long as the set lives: :data:`OPERATOR_SLOT` keeps the commutation
gate's verdict and the factorized confluent matrix of the last set solved.

Three families are provided and may not be mixed inside one equation:

``dense``
    An explicit square matrix.  Hermitian and skew-Hermitian matrices get a
    unitary eigendecomposition at construction (``eig``; divide and conquer
    for a real symmetric matrix), so semigroup
    actions are cheap and the confluent solve of commuting groups can go
    mode by mode in that basis.  Other diagonalizable matrices whose
    eigenvectors are well conditioned (``statespace.EIGVEC_COND_LIMIT``)
    act through those eigenvectors too; defective and nearly defective ones
    fall back to scaling-and-squaring per call (for an array of times,
    stacked calls of at most ``statespace.EXPM_STACK_ENTRIES`` entries each).

``spectral``
    Componentwise multiplication by ``scale * eigenvalues``.  The state is a
    vector of mode coefficients (e.g. coefficients in an eigenfunction basis
    of the Laplacian with homogeneous Dirichlet data).

``translation``
    ``A = speed * d/dx`` on a uniform periodic 1-D grid, whose group action
    is the shift ``(T(t) f)(x) = f(x + speed * t)``, realized band-limited
    through the FFT and exact for band-limited data.  (A translation with
    zero extension outside the grid is a ``dense`` operator: ``speed``
    times the central-difference matrix, whose exponential is a
    second-order accurate shift.)

Spectral and periodic translation operators are diagonal in a known basis
and share one modal interface: ``modal_values`` (the generator on each
mode), ``mode_basis`` (a :class:`ModeBasis`, the transform into modes
and back) and ``propagate``, ``e^{t lambda}`` times each mode.  Per-mode
solves decide coincident modes by one rule, :func:`coincident_modes`;
dense operators have ``mode_basis = None`` and propagate in the identity.
:func:`generator_blocks` gives dense and modal generators one block form,
from which ``M``, the companion oracle's generator and the commutator of
:func:`commutation_defect` are built; modal blocks are 1x1, so modal
factors commute exactly.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    MixedBackendError,
    NotInvertibleError,
    SingularMatrixError,
)
from .statespace import (
    as_state_stack,
    as_state_vector,
    check_finite,
    checked_exp,
    checked_rows,
    expm_action,
    lu_apply,
    lu_factor_checked,
    unitary_eigh,
)

# Relative gap under which a pair of modal values counts as coincident.
COINCIDENCE_RTOL = 1e-12

# A right-hand-side mode this small (relative to the largest) counts as
# unexcited, so a coincident mode there does no harm.
DEAD_MODE_RTOL = 1e-11


@dataclass(frozen=True)
class ModeBasis:
    """Transform between a state and its mode coefficients.

    The identity for spectral states, which already hold mode coefficients;
    the FFT along the last axis for periodic grids (``fourier``).  The
    transform back owns the real-output rule: it returns a real array when
    the generators map real states to real states (``real``) and the state
    ``like`` it came from is real.
    """

    fourier: bool
    real: bool = True

    def to_modes(self, v: np.ndarray) -> np.ndarray:
        return np.fft.fft(v, axis=-1) if self.fourier else v

    def from_modes(self, v_hat: np.ndarray, like: np.ndarray) -> np.ndarray:
        if not self.fourier:
            return v_hat
        out = np.fft.ifft(v_hat, axis=-1)
        return out.real if self.real and not np.iscomplexobj(like) else out


def shared_mode_basis(ops) -> ModeBasis:
    """The basis all of ``ops`` (one family) act in: their modes, or the identity if dense."""
    bases = [op.mode_basis for op in ops]
    if bases[0] is None:
        return ModeBasis(fourier=False)
    return ModeBasis(bases[0].fourier, all(basis.real for basis in bases))


def coincident_modes(a_values: np.ndarray, b_values: np.ndarray) -> np.ndarray:
    """Mask of the modes where two generators' modal values coincide:
    ``|a - b| <= COINCIDENCE_RTOL * max(1, |a|, |b|)``."""
    scale = np.maximum(1.0, np.maximum(np.abs(a_values), np.abs(b_values)))
    return np.abs(a_values - b_values) <= COINCIDENCE_RTOL * scale


def excites(modal: np.ndarray, mask: np.ndarray) -> bool:
    """Whether a modal right-hand side carries more than ``DEAD_MODE_RTOL``
    of its largest entry on a ``mask`` mode.

    Modes are on the last axis.  A right-hand side is a vector or a block of
    rows ``(rows, d)``; a stack ``(m, rows, d)`` holds m of them, and each
    is measured against its own largest entry.
    """
    own = tuple(range(max(modal.ndim - 2, 0), modal.ndim))
    tol = DEAD_MODE_RTOL * np.maximum(1.0, np.max(np.abs(modal), axis=own, keepdims=True))
    return bool(np.any(np.abs(modal[..., mask]) > tol))


def _read_only(*arrays: np.ndarray) -> None:
    """Lock the arrays an operator keeps, which its bound actions, a kept
    confluent matrix and a kept commutation-gate reading assume fixed."""
    for arr in arrays:
        arr.flags.writeable = False


class Operator(ABC):
    """A generator with its semigroup action, identified by ``label``."""

    label: str
    dim: int
    family: str
    mode_basis: ModeBasis | None = None

    def __init__(self, label: str, dim: int, family: str):
        if not label:
            raise ValueError("operator label must be a non-empty string")
        self.label = label
        self.dim = dim
        self.family = family

    @abstractmethod
    def apply(self, v) -> np.ndarray:
        """Generator action ``A v``."""

    @abstractmethod
    def semigroup(self, t, v) -> np.ndarray:
        """Semigroup action ``e^{t A} v``; ``t = 0`` is the exact identity.

        A 1-D array ``t`` with a stack ``v`` of shape ``(m, d)`` gives the
        rows ``e^{t_i A} v_i``, and every row with ``t_i = 0`` is ``v_i``.
        An overflowing row raises :class:`SemigroupOverflowError`.
        """

    def propagate(self, t: np.ndarray, v_hat: np.ndarray) -> np.ndarray:
        """The one semigroup action: the rows ``e^{t_i A} v_hat[..., i, :]``
        of a stack ``(..., m, d)`` in the operator's basis
        (:func:`shared_mode_basis`), for a 1-D float ``t`` of length m,
        unchecked and with no ``t = 0`` case.  The m times are exponentiated
        once and broadcast over the leading axes, so a Duhamel run of r
        intervals with one node layout passes its ``(r, m, d)`` forcing
        block in one call.  ``v_hat`` is left as it is: modal operators
        multiply into their exponential where the shapes match and the
        dtypes allow; dense ones bind ``expm_action``."""
        grown = checked_exp(self.modal_values, t, f"semigroup of {self.label!r}")
        inplace = grown.shape == v_hat.shape and np.can_cast(v_hat.dtype, grown.dtype)
        return np.multiply(grown, v_hat, out=grown if inplace else None)

    @abstractmethod
    def signature(self) -> tuple:
        """Hashable description of the action, for label-consistency checks."""

    def _act(self, t, v) -> np.ndarray:
        """:meth:`semigroup`: check the operands, take the stack to the
        operator's basis, :meth:`propagate`, take it back and check it; a
        time of 0 gets the exact identity instead.  A scalar time goes
        through as one row, so its result has the dtype of that row."""
        if not isinstance(t, np.ndarray):
            return self._act(np.array([t], dtype=np.float64), as_state_vector(v, self.dim)[None])[0]
        v = as_state_stack(v, self.dim)
        if t.shape != v.shape[:1]:
            raise DimensionMismatchError(
                f"expected one time per state vector, got {t.shape} for {v.shape[0]}"
            )
        t = t.astype(np.float64, copy=False)
        basis = shared_mode_basis((self,))
        with np.errstate(over="ignore", invalid="ignore"):  # checked below
            out = basis.from_modes(self.propagate(t, basis.to_modes(v)), v)
        zero = t == 0.0
        out[zero] = v[zero]
        return checked_rows(out, t, f"semigroup of {self.label!r}")

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.label!r} dim={self.dim}>"


class DenseMatrixOperator(Operator):
    """Generator given by an explicit square matrix.

    ``eig`` is :func:`statespace.unitary_eigh` of the matrix: ``(w, q)``
    with ``A = q diag(w) q^H`` for a Hermitian or skew-Hermitian matrix,
    else ``None``; the confluent solve of commuting groups reuses its
    ``q``.  The semigroup acts through an eigenvector basis, ``eig`` or a
    well-conditioned non-unitary one, or else by scaling and squaring
    (:func:`statespace.expm_action`, bound at construction).  ``matrix`` is
    a copy of the given one; it and both arrays of ``eig`` are read-only,
    as the bound action assumes.
    """

    def __init__(self, label: str, matrix):
        matrix = np.asarray(matrix)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise DimensionMismatchError(f"matrix must be square, got shape {matrix.shape}")
        dtype = np.complex128 if np.iscomplexobj(matrix) else np.float64
        self.matrix = np.array(matrix, dtype=dtype)
        check_finite(self.matrix, f"matrix of operator {label!r}")
        super().__init__(label, matrix.shape[0], "dense")
        self.eig = unitary_eigh(self.matrix)
        self.propagate = expm_action(self.matrix, self.eig)
        _read_only(self.matrix, *(self.eig or ()))

    def apply(self, v) -> np.ndarray:
        return self.matrix @ as_state_vector(v, self.dim)

    def semigroup(self, t, v) -> np.ndarray:
        return self._act(t, v)

    def signature(self) -> tuple:
        return ("dense", self.matrix.shape[0], self.matrix.tobytes())


class SpectralDiagonalOperator(Operator):
    """Diagonal generator acting mode-by-mode: ``(A v)_k = scale * lam_k * v_k``."""

    mode_basis = ModeBasis(fourier=False)

    def __init__(self, label: str, eigenvalues, scale=1.0):
        eigenvalues = np.asarray(eigenvalues)
        if eigenvalues.ndim != 1 or eigenvalues.size == 0:
            raise DimensionMismatchError("eigenvalues must be a non-empty 1-D sequence")
        if np.iscomplexobj(eigenvalues) or np.iscomplexobj(scale):
            modal = np.asarray(eigenvalues, dtype=np.complex128) * complex(scale)
        else:
            modal = np.asarray(eigenvalues, dtype=np.float64) * float(scale)
        check_finite(modal, f"eigenvalues of operator {label!r}")
        self.eigenvalues = np.array(eigenvalues)
        self.scale = scale
        self.modal_values = modal
        _read_only(self.eigenvalues, self.modal_values)
        super().__init__(label, eigenvalues.shape[0], "spectral")

    def apply(self, v) -> np.ndarray:
        return self.modal_values * as_state_vector(v, self.dim)

    def semigroup(self, t, v) -> np.ndarray:
        return self._act(t, v)

    def signature(self) -> tuple:
        return ("spectral", self.modal_values.tobytes())


@dataclass(frozen=True)
class UniformGrid:
    """Uniform 1-D grid ``x_i = x0 + i * dx`` for ``i = 0 .. n-1``."""

    x0: float
    dx: float
    n: int

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("grid needs at least 2 points")
        if not (np.isfinite(self.x0) and 0 < self.dx < np.inf):
            raise ValueError(f"x0 must be finite and dx positive and finite, got {self.x0}, {self.dx}")

    def points(self) -> np.ndarray:
        return self.x0 + self.dx * np.arange(self.n)


class TranslationOperator(Operator):
    """Generator ``speed * d/dx`` whose group shifts profiles along a
    periodic grid.

    Derivative and shift are Fourier multipliers; for an even point count
    the unmatched Nyquist frequency is dropped from both so that
    ``semigroup`` really is the exponential of ``apply``.  Complex ``speed``
    is supported (the multipliers are simply complex); results stay complex
    in that case.  Note that a complex shift is an analytic continuation
    whose multipliers grow like ``e^{|k| t}``, so roundoff in high modes is
    amplified: keep the grid no finer than the data needs and the horizon
    short.
    """

    def __init__(self, label: str, speed, grid: UniformGrid):
        speed_is_complex = bool(np.iscomplexobj(speed)) and complex(speed).imag != 0.0
        self.speed = complex(speed) if speed_is_complex else float(np.real(speed))
        check_finite(np.asarray(self.speed), f"speed of operator {label!r}")
        self.grid = grid
        super().__init__(label, grid.n, "translation")
        k = 2.0 * np.pi * np.fft.fftfreq(grid.n, d=grid.dx)
        if grid.n % 2 == 0:
            k[grid.n // 2] = 0.0  # drop the unmatched Nyquist frequency
        with np.errstate(over="ignore", invalid="ignore"):  # checked below
            self.modal_values = 1j * k * self.speed
        check_finite(self.modal_values, f"modal values of operator {label!r}")
        _read_only(self.modal_values)
        self.mode_basis = ModeBasis(fourier=True, real=not speed_is_complex)

    def node_multipliers(self) -> np.ndarray:
        """Per-Fourier-mode generator values ``i * k * speed``."""
        return self.modal_values.copy()

    def apply(self, v) -> np.ndarray:
        v = as_state_vector(v, self.dim)
        basis = self.mode_basis
        return basis.from_modes(self.modal_values * basis.to_modes(v), v)

    def semigroup(self, t, v) -> np.ndarray:
        return self._act(t, v)

    def signature(self) -> tuple:
        return ("translation", self.speed, self.grid)


def generator_blocks(ops) -> np.ndarray:
    """The generators of ``ops`` (one family) as stacked blocks ``(g, b, m, m)``
    in their shared mode basis: the modal values ``(g, d, 1, 1)`` of
    operators with a ``mode_basis``, the matrices ``(g, 1, d, d)`` of dense
    ones.  Block i acts on coordinates ``i m .. i m + m - 1`` of a state in
    that basis.
    """
    ops = list(ops)
    if ops[0].mode_basis is not None:
        return np.stack([op.modal_values for op in ops])[..., None, None]
    return np.stack([op.matrix for op in ops])[:, None]


def require_same_family(a: Operator, b: Operator) -> None:
    if a.family != b.family:
        raise MixedBackendError(
            f"operators {a.label!r} ({a.family}) and {b.label!r} ({b.family}) "
            "belong to different backend families"
        )
    if a.dim != b.dim:
        raise DimensionMismatchError(
            f"operators {a.label!r} (dim {a.dim}) and {b.label!r} (dim {b.dim}) disagree"
        )


def resolvent_solve(a: Operator, b: Operator):
    """The solve ``v -> w`` of ``(A - B) w = v`` for two operators of one
    family, for a caller that applies ``(A - B)^{-1}`` once or many times.

    A dense ``A - B`` is LU-factored once, here, for every application;
    operators with a mode basis divide mode by mode, with ``w = 0`` on
    coincident modes (:func:`coincident_modes`).  :class:`NotInvertibleError`
    names the pair when the difference is singular: every mode coincides
    (raised here), or a right-hand side excites a coincident mode (raised by
    the solve).
    """
    require_same_family(a, b)
    if a.family == "dense":
        with np.errstate(over="ignore", invalid="ignore"):  # checked below
            diff = a.matrix - b.matrix
        check_finite(diff, f"difference of {a.label!r} and {b.label!r}")
        try:
            factors = lu_factor_checked(diff)
        except SingularMatrixError as exc:
            raise NotInvertibleError(
                f"difference of {a.label!r} and {b.label!r} is singular: {exc}"
            ) from exc
        return lambda v: lu_apply(factors, as_state_vector(v, a.dim))

    basis = shared_mode_basis((a, b))
    dead = coincident_modes(a.modal_values, b.modal_values)
    if np.all(dead):
        raise NotInvertibleError(
            f"difference of {a.label!r} and {b.label!r} is not injective "
            "(modal values coincide on every mode)"
        )
    denom = a.modal_values - b.modal_values

    def solve(v) -> np.ndarray:
        v = as_state_vector(v, a.dim)
        v_hat = basis.to_modes(v)
        if np.any(dead) and excites(v_hat, dead):
            raise NotInvertibleError(
                f"difference of {a.label!r} and {b.label!r} annihilates modes "
                f"{np.flatnonzero(dead)[:8].tolist()} but the right-hand side has content there"
            )
        w_hat = np.zeros(v_hat.shape, dtype=np.result_type(v_hat, denom))
        np.divide(v_hat, denom, out=w_hat, where=~dead)
        return basis.from_modes(w_hat, v)

    return solve


def commutation_defect(a: Operator, b: Operator) -> float:
    """Frobenius norm of the commutator ``AB - BA``, taken on the generators'
    blocks (:func:`generator_blocks`).

    Operators with a mode basis have 1x1 blocks, so their defect is exactly
    0; dense ones give ``||AB - BA||_F``, which bounds ``||ABv - BAv|| / ||v||``
    for every ``v``.  An overflowing commutator gives ``inf`` or ``nan``.
    Operators of different families or dimensions raise
    :class:`MixedBackendError` or :class:`DimensionMismatchError`.
    """
    require_same_family(a, b)
    ab, bb = generator_blocks((a, b))
    with np.errstate(over="ignore", invalid="ignore"):  # the caller judges inf and nan
        return float(np.linalg.norm(ab @ bb - bb @ ab))


class _OperatorSlot:
    """The last operator set a solve went through, and what it learned of it.

    One record ``(ops, commute, matrix)``: the groups' operator objects in
    grouped order, whether they passed the commutation gate
    (``FactoredEquation._commutation_gate``), and their last confluent
    matrix (``confluent.build_confluent_matrix``), which keeps its
    factorization once built.  Operators keep their arrays read-only, so
    neither can go stale.  The record is replaced whole, never edited, so
    it always describes one set, and threads that race for it lose at most
    a kept result, never get a wrong one; holding a new set drops the old
    one, so at most one set and one factorization stay alive.
    """

    def __init__(self):
        self._held: tuple = ((), False, None)

    def lookup(self, ops: tuple) -> tuple:
        """``(commute, matrix)`` held for exactly the objects ``ops`` in this
        order, else ``(False, None)``."""
        held, commute, matrix = self._held
        if len(held) == len(ops) and all(a is b for a, b in zip(held, ops)):
            return commute, matrix
        return False, None

    def keep(self, ops: tuple, commute: bool, matrix) -> None:
        """Hold ``ops`` with its gate verdict and matrix in place of the last set."""
        self._held = (ops, commute, matrix)


OPERATOR_SLOT = _OperatorSlot()
