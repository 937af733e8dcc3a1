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
read-only once they are made, so what is learned of an operator set holds
for as long as the set lives: the commutation gate
(``equation.FactoredEquation``) keeps the last set that passed it, and
``confluent.build_confluent_matrix`` the last confluent matrix it built,
each keyed on the operator objects themselves.

Three families are provided and may not be mixed inside one equation:

``dense``
    An explicit square matrix.  Hermitian and skew-Hermitian matrices have a
    unitary eigendecomposition (``eig``; divide and conquer for a real
    symmetric matrix), computed on first use, through which their semigroup
    acts; the first such group of a commuting set lends its basis to the
    whole set, which the confluent solve then treats as modal
    (``confluent.BlockOperatorMatrix.basis``).  Other diagonalizable
    matrices whose eigenvectors are well conditioned
    (``statespace.EIGVEC_COND_LIMIT``) act through those eigenvectors too;
    defective and nearly defective ones fall back to scaling-and-squaring
    per call (for an array of times, stacked calls of at most
    ``statespace.EXPM_STACK_ENTRIES`` entries each).

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
and back) and one exponential, ``rows(t, k)``, the unchecked rows
``e^{t lambda}`` of the leading k modes (``exp_rows`` of the values; a
periodic translation builds them from two small phase tables,
:class:`TranslationOperator`), which ``propagate`` checks and multiplies
in.  A dense set solved in one shared eigenbasis acts through spectral
operators of its values there (``confluent.BlockOperatorMatrix.actors``).
Per-mode solves decide coincident modes by one rule,
:func:`coincident_modes`; dense operators have ``mode_basis = None`` and
propagate in the identity.
:func:`generator_blocks` gives dense and modal generators one block form,
from which ``M``, the companion oracle's generator and the commutator of
:func:`commutation_defect` are built; modal blocks are 1x1, so modal
factors commute exactly.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    DimensionMismatchError,
    InvalidInputError,
    MixedBackendError,
    NotInvertibleError,
    SingularMatrixError,
)
from .statespace import (
    as_count,
    as_state_stack,
    as_state_vector,
    as_times,
    check_finite,
    checked_rows,
    exp_rows,
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


@dataclass(frozen=True, eq=False)
class ModeBasis:
    """Transform between a state and its mode coefficients, one of three:

    - the identity, for spectral states, which already hold mode
      coefficients, and for dense groups solved on the grid;
    - the FFT along the last axis (``fourier``), for periodic grids;
    - a unitary ``q`` whose columns are the modes, kept as the pair
      ``unitary = (q, q^H)``: the modes of a state ``v`` are ``q^H v``.
      A dense commuting set that one eigenbasis diagonalizes is solved in
      it (``confluent.BlockOperatorMatrix.basis``).

    The transform back owns the real-output rule: it returns a real array when
    the generators map real states to real states (``real``) and the state
    ``like`` it came from is real.  A unitary ``q`` is real exactly when
    the generators are, so its products keep that rule without the flag.

    Such a real periodic output is fixed by its modes ``0 .. d//2``, since
    mode ``d - k`` is the conjugate of mode k (:meth:`kept_modes`): an
    assembly computes only those and :meth:`from_modes` takes them back by
    ``irfft``.  :meth:`to_modes` always gives every mode.
    """

    fourier: bool = False
    real: bool = True
    unitary: tuple[np.ndarray, np.ndarray] | None = None

    def to_modes(self, v: np.ndarray) -> np.ndarray:
        if self.unitary is not None:
            return v @ self.unitary[1].T
        return np.fft.fft(v, axis=-1) if self.fourier else v

    def kept_modes(self, like: np.ndarray) -> int:
        """The number of leading modes an output ``like`` needs: ``d//2 + 1``
        for a real output on a periodic grid, else all d."""
        d = like.shape[-1]
        return d // 2 + 1 if self.fourier and self.real and not np.iscomplexobj(like) else d

    def from_modes(self, v_hat: np.ndarray, like: np.ndarray) -> np.ndarray:
        """The states of the modes ``v_hat``: every mode, or the leading
        :meth:`kept_modes` of a real output."""
        if self.unitary is not None:
            return v_hat @ self.unitary[0].T
        if not self.fourier:
            return v_hat
        d = like.shape[-1]
        if v_hat.shape[-1] < d:
            return np.fft.irfft(v_hat, n=d, axis=-1)
        out = np.fft.ifft(v_hat, axis=-1)
        return out.real if self.real and not np.iscomplexobj(like) else out


def shared_mode_basis(ops) -> ModeBasis:
    """The basis all of ``ops`` (one family) act in: their modes, or the identity if dense."""
    bases = [op.mode_basis for op in ops]
    if bases[0] is None:
        return ModeBasis(fourier=False)
    return ModeBasis(bases[0].fourier, all(basis.real for basis in bases))


def _times_rows(grown: np.ndarray, v_hat: np.ndarray) -> np.ndarray:
    """``grown * v_hat``, into the rows ``grown`` where the shapes match
    and the dtypes allow; ``v_hat`` is left as it is."""
    inplace = grown.shape == v_hat.shape and np.can_cast(v_hat.dtype, grown.dtype)
    return np.multiply(grown, v_hat, out=grown if inplace else None)


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
            raise InvalidInputError("operator label must be a non-empty string")
        self.label = label
        self.dim = dim
        self.family = family

    @abstractmethod
    def apply(self, v) -> np.ndarray:
        """Generator action ``A v``."""

    @abstractmethod
    def semigroup(self, t, v) -> np.ndarray:
        """Semigroup action ``e^{t A} v``; ``t = 0`` is the exact identity.

        A 1-D array or sequence ``t`` with a stack ``v`` of shape ``(m,
        d)`` gives the rows ``e^{t_i A} v_i``, and every row with ``t_i =
        0`` is ``v_i``; a number or 0-d array ``t`` takes one state.
        Times of either sign go through :func:`statespace.as_times`: a NaN
        or infinite one raises :class:`InvalidInputError`, complex ones
        (:meth:`propagate` takes them) :class:`UnsupportedOperationError`;
        an overflowing row raises :class:`SemigroupOverflowError`.
        """

    def rows(self, t: np.ndarray, k: int, out: np.ndarray | None = None) -> np.ndarray:
        """The exponential of a modal operator: the unchecked rows ``e^{t_i
        lambda}`` of its leading k modes, one per entry of the 1-D ``t``,
        formed in ``out`` (``(t.size, k)``, of the dtype of ``t *
        modal_values``) when one is given."""
        return exp_rows(self.modal_values[:k], t, out)

    def propagate(self, t: np.ndarray, v_hat: np.ndarray) -> np.ndarray:
        """The one semigroup action: the rows ``e^{t_i A} v_hat[..., i, :]``
        of a stack ``(..., m, d)`` in the operator's basis
        (:func:`shared_mode_basis`), for a 1-D ``t`` of length m, real or
        complex (the derivative check's circle), with no ``t = 0`` case.
        A modal operator checks the :meth:`rows` of the k modes ``v_hat``
        holds (:meth:`ModeBasis.kept_modes`) and multiplies ``v_hat`` into
        them where the shapes and dtypes allow; a dense one binds
        ``statespace.expm_action`` on first use.  Either way the m times
        are exponentiated once, broadcast over the leading axes (a Duhamel
        run of r intervals passes its ``(r, m, d)`` forcing block in one
        call), and a non-finite exponential raises
        :class:`SemigroupOverflowError` naming the first bad time; the
        overflow of the product, and ``v_hat`` itself, are left as they are."""
        rows = checked_rows(self.rows(t, v_hat.shape[-1]), t, f"semigroup of {self.label!r}")
        return _times_rows(rows, v_hat)

    @abstractmethod
    def signature(self) -> tuple:
        """Hashable description of the action, for label-consistency checks."""

    def _act(self, t, v) -> np.ndarray:
        """:meth:`semigroup`: check the operands, take the stack to the
        operator's basis and keep the modes the output needs
        (:meth:`ModeBasis.kept_modes`), :meth:`propagate`, take it back and
        check it; a time of 0 gets the exact identity instead.  A scalar
        time (``np.ndim(t) == 0``: a number or a 0-d array) goes through as
        one row, so its result has the dtype of that row; anything else is
        an array of times, one per state of the stack.  A NaN or infinite
        time is refused first (:func:`statespace.as_times`): no overflow."""
        t = as_times(t, f"t of the semigroup of {self.label!r}")
        if t.ndim == 0:
            return self._act(t[None], as_state_vector(v, self.dim)[None])[0]
        v = as_state_stack(v, self.dim)
        if t.shape != v.shape[:1]:
            raise DimensionMismatchError(
                f"times of shape {t.shape} for a stack of {v.shape[0]} states: expected one time per state"
            )
        basis = shared_mode_basis((self,))
        with np.errstate(over="ignore", invalid="ignore"):  # checked below
            v_hat = basis.to_modes(v)[..., : basis.kept_modes(v)]
            out = basis.from_modes(self.propagate(t, v_hat), v)
        zero = t == 0.0
        out[zero] = v[zero]
        return checked_rows(out, t, f"semigroup of {self.label!r}")

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.label!r} dim={self.dim}>"


class DenseMatrixOperator(Operator):
    """Generator given by an explicit square matrix.

    ``eig`` is :func:`statespace.unitary_eigh` of the matrix: ``(w, q)``
    with ``A = q diag(w) q^H`` for a Hermitian or skew-Hermitian matrix,
    else ``None``; the confluent solve of a commuting set takes the ``q``
    of its first such group as the set's basis.  The semigroup acts
    through an eigenvector basis, ``eig`` or a well-conditioned
    non-unitary one, or else by scaling and squaring
    (:func:`statespace.expm_action`).  Both ``eig`` and the bound action
    ``propagate`` are computed on first use, so a set solved in a shared
    basis decomposes one matrix, not each.  ``matrix`` is a copy of the
    given one; it and both arrays of ``eig`` are read-only, as the bound
    action assumes.
    """

    def __init__(self, label: str, matrix):
        matrix = np.asarray(matrix)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1] or matrix.size == 0:
            raise DimensionMismatchError(f"matrix must be square and non-empty, got shape {matrix.shape}")
        dtype = np.complex128 if np.iscomplexobj(matrix) else np.float64
        self.matrix = np.array(matrix, dtype=dtype)
        check_finite(self.matrix, f"matrix of operator {label!r}")
        super().__init__(label, matrix.shape[0], "dense")
        _read_only(self.matrix)

    @cached_property
    def eig(self):
        eig = unitary_eigh(self.matrix)
        _read_only(*(eig or ()))
        return eig

    @cached_property
    def propagate(self):
        return expm_action(self.matrix, self.eig)

    @cached_property
    def exact_symmetry(self) -> int:
        """``1`` if the matrix equals its conjugate transpose exactly, ``-1``
        if it equals its negative, else ``0`` (:func:`commutation_defect`)."""
        adjoint = self.matrix.conj().T
        if np.array_equal(self.matrix, adjoint):
            return 1
        return -1 if np.array_equal(self.matrix, -adjoint) else 0

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
        as_count(self.n, "grid number of points", low=2)
        if not (np.isfinite(self.x0) and 0 < self.dx < np.inf):
            raise InvalidInputError(f"x0 must be finite and dx positive and finite, got {self.x0}, {self.dx}")

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

    ``modal_values`` serve ``apply``, ``M``, the coincidence rule and the
    resolvent.  :meth:`rows` builds the exponential from phase tables
    instead: the multiplier of integer frequency f (fftfreq order, the
    Nyquist frequency as 0) is ``f * lam1`` with ``lam1 = i speed 2 pi /
    (n dx)`` rounded once, and with ``|f| = B a + b``, ``B = ceil(sqrt(max
    |f|))``, its row is ``e^{t B a lam1} e^{t b lam1}`` (``-lam1`` for
    negative f): about ``2 sqrt(k)`` complex exponentials per time for k
    modes, not k.  Each factor's modulus lies between 1 and its row's, so a
    factor overflows only where its row does, and the rows keep the
    overflow check of the direct exponential (:func:`checked_rows`).
    Every stack, down to one row of two modes, takes the tables.
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
        self._layouts: dict[int, tuple] = {}

    def _phase_layout(self, k: int) -> tuple:
        """``(exponents, tables, runs)`` for the leading k modes, kept per k.

        For each sign of f in use (``lam = lam1``, then ``-lam1``),
        ``exponents`` holds the coarse ``B a lam`` for ``a`` in ``range(A)``,
        then the fine ``b lam`` for ``b`` in ``range(B)``, and ``tables``
        their slices and ``A B``: the product of their exponentials,
        flattened, is the table of ``e^{t |f| lam}`` for ``|f| = 0 .. A B -
        1``.  Each run ``(modes, sign, entries)`` copies the slice
        ``entries`` of one sign's table into the slice ``modes`` of the rows:
        the frequencies ``0 .. (n - 1) // 2``, the Nyquist mode as frequency
        0, and the negative frequencies ``-(n - n // 2 - 1) .. -1`` read
        backwards."""
        layout = self._layouts.get(k)
        if layout is not None:
            return layout
        n, half = self.dim, self.dim // 2 + 1  # modes half .. n - 1 are negative
        lam1 = 1j * self.speed * (2.0 * np.pi / (n * self.grid.dx))
        positive = min(k, (n + 1) // 2)
        runs = [(slice(0, positive), 0, slice(0, positive))]
        tops = [positive - 1]
        if n % 2 == 0 and k > n // 2:
            runs.append((slice(n // 2, n // 2 + 1), 0, slice(0, 1)))
        if k > half:
            runs.append((slice(half, k), 1, slice(n - half, n - k, -1)))
            tops.append(n - half)
        exponents, tables, start = [], [], 0
        for top, lam in zip(tops, (lam1, -lam1)):
            fine = math.isqrt(max(top - 1, 0)) + 1  # B = ceil(sqrt(top))
            coarse = top // fine + 1  # A, with B (A - 1) <= top
            exponents += [np.arange(coarse) * fine * lam, np.arange(fine) * lam]
            middle, stop = start + coarse, start + coarse + fine
            tables.append((slice(start, middle), slice(middle, stop), coarse * fine))
            start = stop
        exponents = np.concatenate(exponents)
        _read_only(exponents)
        layout = self._layouts[k] = (exponents, tables, runs)
        return layout

    def rows(self, t: np.ndarray, k: int, out: np.ndarray | None = None) -> np.ndarray:
        """:meth:`Operator.rows` of the leading k modes from the phase tables."""
        exponents, tables, runs = self._phase_layout(k)
        with np.errstate(over="ignore", invalid="ignore"):  # the caller checks
            factors = np.exp(np.multiply.outer(t, exponents))
            products = [(factors[:, coarse, None] * factors[:, None, fine]).reshape(t.size, size)
                        for coarse, fine, size in tables]
        grown = np.empty((t.size, k), dtype=factors.dtype) if out is None else out
        for modes, sign, entries in runs:
            grown[:, modes] = products[sign][:, entries]
        return grown

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

    Operators with a mode basis have 1x1 blocks, whose commutator
    ``a_k b_k - b_k a_k`` is exactly 0 where the product is finite and
    ``nan`` where it overflows: their defect is read off the products of
    the modal values, with no block products.  Dense ones give ``||AB -
    BA||_F``, which bounds ``||ABv - BAv|| / ||v||`` for every ``v``.  When
    each matrix is exactly Hermitian or skew-Hermitian
    (:attr:`DenseMatrixOperator.exact_symmetry`, ``s_A`` and ``s_B``),
    ``BA = s_A s_B (AB)^H``, so the defect is ``||C - s_A s_B C^H||_F``
    from the one product ``C = AB``; it agrees with the two-product form
    to rounding.  An overflowing commutator gives ``inf`` or ``nan``.
    Operators of different families or dimensions raise
    :class:`MixedBackendError` or :class:`DimensionMismatchError`.
    """
    require_same_family(a, b)
    with np.errstate(over="ignore", invalid="ignore"):  # the caller judges inf and nan
        if a.mode_basis is not None:
            return 0.0 if np.isfinite(a.modal_values * b.modal_values).all() else np.nan
        ab = a.matrix @ b.matrix
        sign = a.exact_symmetry * b.exact_symmetry
        ba = sign * ab.conj().T if sign else b.matrix @ a.matrix
        return float(np.linalg.norm(ab - ba))

