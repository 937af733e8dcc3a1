"""Generator backends: dense matrices, diagonal mode ladders, translations.

An :class:`Operator` bundles a generator ``A`` with the two actions the
solver needs, ``apply(v) = A v`` and ``semigroup(t, v) = e^{t A} v``, plus a
``label`` used for grouping repeated factors.  ``semigroup`` also takes a
1-D array of times with a stack of states, one per row, and returns the
rows ``e^{t_i A} v_i``; the solver uses that for all sample times of the
homogeneous part and for all nodes of a quadrature pass.
Grouping is by label, never by numerical comparison of the underlying data:
the user declares which factors coincide.

Three families are provided and may not be mixed inside one equation:

``dense``
    An explicit square matrix.  Hermitian and skew-Hermitian matrices get an
    eigendecomposition at construction so semigroup actions are cheap;
    everything else falls back to scaling-and-squaring per call (for an
    array of times, stacked calls of at most
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
mode) and ``mode_basis`` (a :class:`ModeBasis`, the transform into modes
and back).  Per-mode solves decide coincident modes by one rule,
:func:`coincident_modes`; dense operators have ``mode_basis = None``.
:func:`generator_blocks` gives dense and modal generators one block form,
from which both ``M`` and the companion oracle's generator are built.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    MixedBackendError,
    NotInvertibleError,
    UnsupportedOperationError,
)
from .statespace import (
    as_state_stack,
    as_state_vector,
    check_finite,
    checked_exp,
    expm_action,
    lu_solve,
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


def shared_mode_basis(ops) -> ModeBasis | None:
    """The basis in which all of ``ops`` (one family) are diagonal, or None."""
    bases = [op.mode_basis for op in ops]
    if any(basis is None for basis in bases):
        return None
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
        """

    @abstractmethod
    def signature(self) -> tuple:
        """Hashable description of the action, for label-consistency checks."""

    def _coerce(self, v) -> np.ndarray:
        return as_state_vector(v, self.dim)

    def _act(self, t, v, action) -> np.ndarray:
        """:meth:`semigroup` through ``action(t, v)``, which computes the
        rows ``e^{t_i A} v_i`` of a checked stack; a time of 0 gets the exact
        identity instead.  A scalar time goes through as one row, so its
        result has the dtype of that row."""
        if not isinstance(t, np.ndarray):
            return self._act(np.array([t], dtype=np.float64), self._coerce(v)[None], action)[0]
        v = as_state_stack(v, self.dim)
        if t.shape != v.shape[:1]:
            raise DimensionMismatchError(
                f"expected one time per state vector, got {t.shape} for {v.shape[0]}"
            )
        out = action(t.astype(np.float64, copy=False), v)
        zero = t == 0.0
        out[zero] = v[zero]
        return out

    def _modal_action(self, t, v: np.ndarray) -> np.ndarray:
        """``e^{t A} v`` for an operator diagonal in its ``mode_basis``."""
        basis = self.mode_basis
        phases = checked_exp(self.modal_values, t, f"semigroup of {self.label!r}")
        return basis.from_modes(phases * basis.to_modes(v), v)

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.label!r} dim={self.dim}>"


class DenseMatrixOperator(Operator):
    """Generator given by an explicit square matrix."""

    def __init__(self, label: str, matrix):
        matrix = np.asarray(matrix)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise DimensionMismatchError(f"matrix must be square, got shape {matrix.shape}")
        dtype = np.complex128 if np.iscomplexobj(matrix) else np.float64
        self.matrix = np.array(matrix, dtype=dtype)
        check_finite(self.matrix, f"matrix of operator {label!r}")
        super().__init__(label, matrix.shape[0], "dense")
        self._action = expm_action(self.matrix)

    def apply(self, v) -> np.ndarray:
        return self.matrix @ self._coerce(v)

    def semigroup(self, t, v) -> np.ndarray:
        return self._act(t, v, self._action)

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
        super().__init__(label, eigenvalues.shape[0], "spectral")

    def apply(self, v) -> np.ndarray:
        return self.modal_values * self._coerce(v)

    def semigroup(self, t, v) -> np.ndarray:
        return self._act(t, v, self._modal_action)

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
        self.modal_values = 1j * k * self.speed
        self.mode_basis = ModeBasis(fourier=True, real=not speed_is_complex)

    def node_multipliers(self) -> np.ndarray:
        """Per-Fourier-mode generator values ``i * k * speed``."""
        return self.modal_values.copy()

    def apply(self, v) -> np.ndarray:
        v = self._coerce(v)
        basis = self.mode_basis
        return basis.from_modes(self.modal_values * basis.to_modes(v), v)

    def semigroup(self, t, v) -> np.ndarray:
        return self._act(t, v, self._modal_action)

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
    if shared_mode_basis(ops) is not None:
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


def resolvent_solve(a: Operator, b: Operator, rhs) -> np.ndarray:
    """Solve ``(A - B) w = rhs`` for two operators of one family.

    Dense operators take a pivoted LU of ``A - B``; operators with a mode
    basis divide mode by mode, with ``w = 0`` on coincident modes
    (:func:`coincident_modes`).  :class:`NotInvertibleError` names the pair
    when the difference is singular: every mode coincides, or ``rhs``
    excites a coincident mode.  Translations need distinct speeds, else
    :class:`UnsupportedOperationError`.
    """
    require_same_family(a, b)
    rhs = as_state_vector(rhs, a.dim)

    if a.family == "dense":
        diff = a.matrix - b.matrix
        try:
            return lu_solve(diff, rhs)
        except Exception as exc:
            raise NotInvertibleError(
                f"difference of {a.label!r} and {b.label!r} is singular: {exc}"
            ) from exc

    if a.family == "translation":
        if abs(a.speed - b.speed) <= COINCIDENCE_RTOL * max(1.0, abs(a.speed), abs(b.speed)):
            raise UnsupportedOperationError(
                f"translation operators {a.label!r} and {b.label!r} have equal speeds; "
                "their difference is zero"
            )
    basis = shared_mode_basis((a, b))
    dead = coincident_modes(a.modal_values, b.modal_values)
    if np.all(dead):
        raise NotInvertibleError(
            f"difference of {a.label!r} and {b.label!r} is not injective "
            "(modal values coincide on every mode)"
        )
    rhs_hat = basis.to_modes(rhs)
    if np.any(dead) and excites(rhs_hat, dead):
        raise NotInvertibleError(
            f"difference of {a.label!r} and {b.label!r} annihilates modes "
            f"{np.flatnonzero(dead)[:8].tolist()} but the right-hand side has content there"
        )
    denom = a.modal_values - b.modal_values
    w_hat = np.zeros(rhs_hat.shape, dtype=np.result_type(rhs_hat, denom))
    np.divide(rhs_hat, denom, out=w_hat, where=~dead)
    return basis.from_modes(w_hat, rhs)


def commutation_defect(a: Operator, b: Operator, probes) -> float:
    """Largest normalized commutator residue ``||ABv - BAv|| / ||v||``.

    Diagnostic only: returns 0 for exactly commuting families and never
    raises.  Probes with zero norm are guarded by a tiny floor.
    """
    require_same_family(a, b)
    worst = 0.0
    for probe in probes:
        v = as_state_vector(probe, a.dim)
        ab = a.apply(b.apply(v))
        ba = b.apply(a.apply(v))
        defect = float(np.linalg.norm(ab - ba) / (np.linalg.norm(v) + 1e-30))
        worst = max(worst, defect)
    return worst
