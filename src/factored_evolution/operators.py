"""Generator backends: dense matrices, diagonal mode ladders, translations.

An :class:`Operator` bundles a generator ``A`` with the two actions the
solver needs, ``apply(v) = A v`` and ``semigroup(t, v) = e^{t A} v``, plus a
``label`` used for grouping repeated factors.  Grouping is by label, never
by numerical comparison of the underlying data: the user declares which
factors coincide.

Three families are provided and may not be mixed inside one equation:

``dense``
    An explicit square matrix.  Hermitian matrices get an eigendecomposition
    at construction so semigroup actions are cheap; everything else falls
    back to scaling-and-squaring per call.

``spectral``
    Componentwise multiplication by ``scale * eigenvalues``.  The state is a
    vector of mode coefficients (e.g. coefficients in an eigenfunction basis
    of the Laplacian with homogeneous Dirichlet data).

``translation``
    ``A = speed * d/dx`` on a uniform 1-D grid, whose group action is the
    shift ``(T(t) f)(x) = f(x + speed * t)``.  With periodic boundary the
    shift is realized band-limited through the FFT and is exact for
    band-limited data; with zero extension it uses cubic interpolation and
    is only accurate away from the boundary influence zone.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np
import scipy.interpolate
import scipy.linalg

from .errors import (
    DimensionMismatchError,
    MixedBackendError,
    NotInvertibleError,
    SemigroupOverflowError,
    UnsupportedOperationError,
)
from .statespace import (
    _eigh_expm_apply,
    _hermitian,
    as_state_vector,
    check_finite,
    expm_apply,
    inf_norm,
    lu_solve,
)

# Relative gap under which a pair of modal values counts as coincident.
COINCIDENCE_RTOL = 1e-12


class Operator(ABC):
    """A generator with its semigroup action, identified by ``label``."""

    label: str
    dim: int
    family: str

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
    def semigroup(self, t: float, v) -> np.ndarray:
        """Semigroup action ``e^{t A} v``; ``t = 0`` is the exact identity."""

    @abstractmethod
    def signature(self) -> tuple:
        """Hashable description of the action, for label-consistency checks."""

    def _coerce(self, v) -> np.ndarray:
        return as_state_vector(v, self.dim)

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
        self._eig = scipy.linalg.eigh(self.matrix) if _hermitian(self.matrix) else None

    def apply(self, v) -> np.ndarray:
        return self.matrix @ self._coerce(v)

    def semigroup(self, t: float, v) -> np.ndarray:
        v = self._coerce(v)
        if t == 0.0:
            return v.copy()
        if self._eig is not None:
            return _eigh_expm_apply(self._eig, t, v)
        return expm_apply(self.matrix, t, v)

    def signature(self) -> tuple:
        return ("dense", self.matrix.shape[0], self.matrix.tobytes())


class SpectralDiagonalOperator(Operator):
    """Diagonal generator acting mode-by-mode: ``(A v)_k = scale * lam_k * v_k``."""

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

    def semigroup(self, t: float, v) -> np.ndarray:
        v = self._coerce(v)
        if t == 0.0:
            return v.copy()
        with np.errstate(over="ignore"):
            grow = np.exp(self.modal_values * t)
        if not np.all(np.isfinite(grow)):
            raise SemigroupOverflowError(f"semigroup of {self.label!r} overflows at t={t:.3g}")
        return grow * v

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
        if self.dx <= 0:
            raise ValueError("dx must be positive")

    def points(self) -> np.ndarray:
        return self.x0 + self.dx * np.arange(self.n)

    @property
    def length(self) -> float:
        """Period length for the periodic interpretation of the grid."""
        return self.dx * self.n


class TranslationOperator(Operator):
    """Generator ``speed * d/dx`` whose group shifts profiles along the grid.

    Periodic boundary: derivative and shift are Fourier multipliers; for an
    even point count the unmatched Nyquist frequency is dropped from both so
    that ``semigroup`` really is the exponential of ``apply``.  Complex
    ``speed`` is supported on the periodic grid (the multipliers are simply
    complex); results stay complex in that case.  Note that a complex shift
    is an analytic continuation whose multipliers grow like ``e^{|k| t}``,
    so roundoff in high modes is amplified: keep the grid no finer than the
    data needs and the horizon short.

    Zero-extension boundary: the profile is treated as 0 outside the grid.
    ``apply`` uses second-order central differences and ``semigroup`` cubic
    interpolation, so accuracy claims hold only in the interior light cone;
    see :meth:`influence_margin`.  Requires real ``speed``.
    """

    def __init__(self, label: str, speed, grid: UniformGrid, boundary: str = "periodic"):
        if boundary not in ("periodic", "zero-extension"):
            raise ValueError(f"unknown boundary {boundary!r}")
        speed_is_complex = bool(np.iscomplexobj(speed)) and complex(speed).imag != 0.0
        if boundary == "zero-extension" and speed_is_complex:
            raise UnsupportedOperationError(
                "zero-extension translation requires a real speed"
            )
        self.speed = complex(speed) if speed_is_complex else float(np.real(speed))
        self.grid = grid
        self.boundary = boundary
        super().__init__(label, grid.n, "translation")
        if boundary == "periodic":
            k = 2.0 * np.pi * np.fft.fftfreq(grid.n, d=grid.dx)
            if grid.n % 2 == 0:
                k[grid.n // 2] = 0.0  # drop the unmatched Nyquist frequency
            self._wavenumbers = k

    # -- helpers -----------------------------------------------------------

    @property
    def _real_action(self) -> bool:
        return not isinstance(self.speed, complex)

    def node_multipliers(self) -> np.ndarray:
        """Per-Fourier-mode generator values ``i * k * speed`` (periodic only)."""
        if self.boundary != "periodic":
            raise UnsupportedOperationError(
                "mode multipliers are only defined for the periodic boundary"
            )
        return 1j * self._wavenumbers * self.speed

    def _from_modes(self, v_hat: np.ndarray, real_in: bool) -> np.ndarray:
        out = np.fft.ifft(v_hat)
        if real_in and self._real_action:
            return out.real
        return out

    def influence_margin(self, t: float) -> int:
        """Grid cells near each boundary polluted by the zero extension."""
        return int(np.ceil(abs(self.speed) * abs(t) / self.grid.dx)) + 2

    # -- actions -----------------------------------------------------------

    def apply(self, v) -> np.ndarray:
        v = self._coerce(v)
        if self.boundary == "periodic":
            v_hat = np.fft.fft(v)
            return self._from_modes(self.node_multipliers() * v_hat, not np.iscomplexobj(v))
        padded = np.zeros(self.dim + 2, dtype=v.dtype)
        padded[1:-1] = v
        return self.speed * (padded[2:] - padded[:-2]) / (2.0 * self.grid.dx)

    def semigroup(self, t: float, v) -> np.ndarray:
        v = self._coerce(v)
        if t == 0.0:
            return v.copy()
        if self.boundary == "periodic":
            phases = np.exp(self.node_multipliers() * t)
            if not np.all(np.isfinite(phases)):
                raise SemigroupOverflowError(
                    f"semigroup of {self.label!r} overflows at t={t:.3g}"
                )
            return self._from_modes(phases * np.fft.fft(v), not np.iscomplexobj(v))
        x = self.grid.points()
        spline = scipy.interpolate.CubicSpline(x, v, extrapolate=False)
        shifted = spline(x + self.speed * t)
        return np.nan_to_num(shifted, nan=0.0)

    def signature(self) -> tuple:
        return ("translation", self.speed, self.grid, self.boundary)


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

    Raises :class:`NotInvertibleError` when the difference is numerically
    non-injective, naming the offending pair.  For translation operators the
    difference is a multiple of ``d/dx``; equal speeds are rejected as
    :class:`UnsupportedOperationError` and for distinct speeds the constant
    Fourier mode is only accepted when ``rhs`` carries no content there.
    """
    require_same_family(a, b)
    rhs = as_state_vector(rhs, a.dim)

    if a.family == "spectral":
        denom = a.modal_values - b.modal_values
        scale = max(1.0, inf_norm(a.modal_values), inf_norm(b.modal_values))
        if np.min(np.abs(denom)) <= COINCIDENCE_RTOL * scale:
            raise NotInvertibleError(
                f"difference of {a.label!r} and {b.label!r} is not injective "
                "(coincident modal values)"
            )
        return rhs / denom

    if a.family == "dense":
        diff = a.matrix - b.matrix
        try:
            return lu_solve(diff, rhs)
        except Exception as exc:
            raise NotInvertibleError(
                f"difference of {a.label!r} and {b.label!r} is singular: {exc}"
            ) from exc

    # translation
    if a.boundary != "periodic" or b.boundary != "periodic":
        raise UnsupportedOperationError(
            "resolvent solves are only available on periodic translation grids"
        )
    dspeed = a.speed - b.speed
    if abs(dspeed) <= COINCIDENCE_RTOL * max(1.0, abs(a.speed), abs(b.speed)):
        raise UnsupportedOperationError(
            f"translation operators {a.label!r} and {b.label!r} have equal speeds; "
            "their difference is zero"
        )
    denom = a.node_multipliers() - b.node_multipliers()
    rhs_hat = np.fft.fft(rhs)
    dead = np.abs(denom) <= COINCIDENCE_RTOL * max(1.0, inf_norm(denom))
    tol = 1e-11 * max(1.0, inf_norm(rhs_hat))
    if np.any(np.abs(rhs_hat[dead]) > tol):
        raise NotInvertibleError(
            f"difference of {a.label!r} and {b.label!r} annihilates the constant "
            "Fourier mode but the right-hand side has content there"
        )
    w_hat = np.zeros_like(rhs_hat)
    live = ~dead
    w_hat[live] = rhs_hat[live] / denom[live]
    out = np.fft.ifft(w_hat)
    if not np.iscomplexobj(rhs) and a._real_action and b._real_action:
        return out.real
    return out


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
