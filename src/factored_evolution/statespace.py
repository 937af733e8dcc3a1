"""Dense linear-algebra and integration kernel shared by all backends.

State vectors are plain 1-D numpy arrays (float64, or complex128 where a
backend needs it) and matrices are 2-D arrays.  This module wraps the few
numerical primitives everything else is built on: a pivoted LU solve with an
explicit singularity gate, matrix-exponential actions, the overflow-checked
elementwise exponential behind every diagonal semigroup, a generic
fixed-step RK4 integrator (the companion oracle takes its own exact RK4
steps, in ``equation``), and the composite Gauss-Legendre rule.
"""

from __future__ import annotations

import threading
import warnings
from dataclasses import dataclass, replace
from functools import lru_cache, partial
from typing import Callable

import numpy as np
import scipy.linalg

from .errors import (
    DimensionMismatchError,
    NonFiniteError,
    SemigroupOverflowError,
    SingularMatrixError,
)

# Pivots below PIVOT_RTOL * ||A||_inf are treated as a singular system.
PIVOT_RTOL = 1e-14

# Relative tolerance for detecting (skew-)symmetry of a matrix.
SYMMETRY_RTOL = 1e-13

# Entries of one stacked scipy.linalg.expm call.  The stacks of t_i * a and
# of their exponentials grow with the number of times: a dense d = 128
# homogeneous solve over 1001 samples peaked at 339 MB as one stack and at
# 93 MB in chunks.  scipy exponentiates each matrix of a stack on its own,
# so the chunks give the same rows, and as fast (16 times per chunk at
# d = 128).
EXPM_STACK_ENTRIES = 2**18

# Largest ||V||_1 ||V^-1||_1 of an eigenvector matrix V through which a
# non-normal matrix is exponentiated; the rows then carry an error of about
# that times eps, 2e-12 (Moler and Van Loan 2003, method 14).  A matrix with
# a worse-conditioned or singular V takes scaling and squaring.
EIGVEC_COND_LIMIT = 1e4

# Held around every scipy.linalg.lu_solve.  With the OpenBLAS bundled in
# scipy 1.17.1 (0.3.30) two threads back-substituting at once get wrong
# solutions now and then: two threads of 2500 solves each on one 24x24 LU
# gave 1250-3702 wrong of 5000 without the lock, and 0 with it.
_LU_SOLVE_LOCK = threading.Lock()


def as_state_vector(v, dim: int | None = None) -> np.ndarray:
    """Coerce ``v`` to a finite 1-D float64/complex128 array.

    Raises
    ------
    DimensionMismatchError
        If ``v`` is not 1-D or its length differs from ``dim``.
    NonFiniteError
        If ``v`` contains NaN or Inf entries.
    """
    arr = np.asarray(v)
    if arr.ndim != 1:
        raise DimensionMismatchError(f"expected a 1-D state vector, got shape {arr.shape}")
    if np.iscomplexobj(arr):
        arr = arr.astype(np.complex128, copy=False)
    else:
        arr = arr.astype(np.float64, copy=False)
    if dim is not None and arr.shape[0] != dim:
        raise DimensionMismatchError(f"expected dimension {dim}, got {arr.shape[0]}")
    check_finite(arr, "state vector")
    return arr


def as_state_stack(rows, dim: int) -> np.ndarray:
    """Coerce ``rows`` (an ``(m, dim)`` array, or m state vectors) to a
    finite float64/complex128 stack, checked as :func:`as_state_vector`
    checks one vector.

    Raises
    ------
    DimensionMismatchError
        If a row is not a 1-D vector of length ``dim``.
    NonFiniteError
        If an entry is NaN or Inf.
    """
    try:
        arr = np.asarray(rows)
    except ValueError as exc:  # rows of different lengths
        raise DimensionMismatchError(f"state vectors differ in length: {exc}") from exc
    if arr.ndim != 2 or arr.shape[1] != dim:
        raise DimensionMismatchError(
            f"expected a stack of state vectors of dimension {dim}, got shape {arr.shape}"
        )
    if np.iscomplexobj(arr):
        arr = arr.astype(np.complex128, copy=False)
    else:
        arr = arr.astype(np.float64, copy=False)
    check_finite(arr, "state vector")
    return arr


def _check_time_grid(t_grid) -> np.ndarray:
    """Sample times as a float array; must be non-empty, 1-D, finite,
    non-negative and strictly increasing."""
    times = np.asarray(t_grid, dtype=np.float64)
    if times.ndim != 1 or times.size == 0:
        raise ValueError("t_grid must be a non-empty 1-D sequence")
    if not np.all(np.isfinite(times)) or times[0] < 0 or not np.all(np.diff(times) > 0):
        raise ValueError("t_grid must be finite, non-negative and strictly increasing")
    return times


def check_finite(arr: np.ndarray, what: str) -> None:
    """Raise :class:`NonFiniteError` if ``arr`` has NaN/Inf entries."""
    if not np.isfinite(arr).all():
        raise NonFiniteError(f"{what} contains non-finite entries")


def inf_norm(a) -> float:
    """Infinity norm: max row sum for matrices, max magnitude for vectors."""
    a = np.asarray(a)
    if a.size == 0:
        return 0.0
    if a.ndim <= 1:
        return float(np.max(np.abs(a)))
    return float(np.max(np.sum(np.abs(a), axis=1)))


def lu_factor_checked(a):
    """LU-factor ``a`` for :func:`lu_apply`, with the pivot gate applied:
    a pivot of magnitude below ``PIVOT_RTOL * ||a||_inf`` raises
    :class:`SingularMatrixError` instead of returning garbage; for an
    assembled coefficient system that signals a non-injective operator
    difference."""
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatchError(f"expected a square matrix, got shape {a.shape}")
    check_finite(a, "matrix")
    scale = inf_norm(a)
    if scale == 0.0:
        raise SingularMatrixError("zero matrix is singular")
    with warnings.catch_warnings():
        # exact singularity warns before we get to apply the pivot gate
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        lu, piv = scipy.linalg.lu_factor(a, check_finite=False)
    pivots = np.abs(np.diag(lu))
    if np.min(pivots) < PIVOT_RTOL * scale:
        raise SingularMatrixError(
            f"pivot {np.min(pivots):.3e} below threshold {PIVOT_RTOL * scale:.3e}; "
            "matrix is numerically singular"
        )
    return lu, piv


def lu_apply(factors, b) -> np.ndarray:
    """Back-substitute a right-hand side, a vector or stacked columns,
    through factors from :func:`lu_factor_checked`, one thread at a time
    (``_LU_SOLVE_LOCK``)."""
    lu, piv = factors
    b = np.asarray(b)
    check_finite(b, "right-hand side")
    if b.shape[0] != lu.shape[0]:
        raise DimensionMismatchError(
            f"right-hand side length {b.shape[0]} does not match matrix size {lu.shape[0]}"
        )
    with _LU_SOLVE_LOCK:
        x = scipy.linalg.lu_solve((lu, piv), b, check_finite=False)
    check_finite(x, "solution")
    return x


def _hermitian(a: np.ndarray, skew: bool = False) -> bool:
    """Whether ``a`` is Hermitian (``a = a^H``), or with ``skew``
    skew-Hermitian (``a = -a^H``), to ``SYMMETRY_RTOL``."""
    scale = inf_norm(a)
    if scale == 0.0:
        return True
    return inf_norm(a + a.conj().T if skew else a - a.conj().T) <= SYMMETRY_RTOL * scale


def checked_rows(rows: np.ndarray, t: np.ndarray, what: str) -> np.ndarray:
    """``rows``, one per entry of the 1-D array ``t``, if they are finite; else
    :class:`SemigroupOverflowError` names ``what`` and the first bad ``t``."""
    finite = np.isfinite(rows)
    if not finite.all():
        t_bad = t[np.argmin(finite.all(axis=-1))]
        raise SemigroupOverflowError(f"{what} overflows float range at t={t_bad:.3g}")
    return rows


def checked_exp(values: np.ndarray, t: np.ndarray, what: str) -> np.ndarray:
    """``exp(outer(t, values))``, one row per entry of the 1-D array ``t``,
    through :func:`checked_rows`."""
    with np.errstate(over="ignore", invalid="ignore"):  # inf * 0 is nan: checked below
        grow = np.multiply.outer(t, values)
        np.exp(grow, out=grow)
    return checked_rows(grow, t, what)


def _eigvec_expm_apply(eig, t: np.ndarray, v: np.ndarray, real: bool = False) -> np.ndarray:
    """The rows ``e^{t_i a} v[..., i, :]`` of a stack ``v`` of shape
    ``(..., m, d)``, broadcast over the leading axes, from ``eig = (w, q,
    q_inv)`` with ``a = q diag(w) q_inv``: one exponential of the m times,
    which may be complex, and two matrix products per ``(m, d)`` slice.
    With ``real`` (a real ``a`` whose ``w`` or ``q`` are complex), real
    times and a real ``v`` give the real part."""
    w, q, q_inv = eig
    grow = checked_exp(w, t, "matrix exponential")
    out = np.swapaxes(q @ (grow.T * (q_inv @ np.swapaxes(v, -1, -2))), -1, -2)
    return out.real if real and not (np.iscomplexobj(v) or np.iscomplexobj(t)) else out


def _pade_expm_apply(a: np.ndarray, t: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The rows ``e^{t_i a} v[..., i, :]`` of a stack ``v`` of shape
    ``(..., m, d)``, broadcast over the leading axes, by scaling and
    squaring, for a matrix without a well-conditioned eigenvector basis
    (:func:`expm_action`): the m times are cut into chunks along axis -2,
    each exponentiated as one stack of at most ``EXPM_STACK_ENTRIES``
    entries, and a time repeated within a chunk is exponentiated once."""
    step = max(1, EXPM_STACK_ENTRIES // a.size)
    if t.size > step:
        return np.concatenate(
            [_pade_expm_apply(a, t[i : i + step], v[..., i : i + step, :]) for i in range(0, t.size, step)],
            axis=-2,
        )
    distinct, index = np.unique(t, return_inverse=True)
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        phi = scipy.linalg.expm(np.multiply.outer(distinct, a))
        out = (phi[index] @ v[..., None])[..., 0]
    checked_rows(phi.reshape(distinct.size, a.size), distinct, "matrix exponential")
    return out


def unitary_eigh(a: np.ndarray):
    """``(w, q)`` with ``a = q diag(w) q^H`` and ``q`` unitary, or ``None``.

    Hermitian matrices take :func:`scipy.linalg.eigh`: a real symmetric
    one by divide and conquer (``driver="evd"``, Gu and Eisenstat 1995),
    whose eigenvectors are orthogonal to working precision and which is the
    faster driver on real input; a complex one by the default driver, the
    faster one there from d = 256 up.  Skew-Hermitian matrices (in
    particular real antisymmetric ones) take that of the complex Hermitian
    ``i a``.  Any other matrix gives ``None``.
    """
    if _hermitian(a):
        return scipy.linalg.eigh(a, driver=None if np.iscomplexobj(a) else "evd")
    if _hermitian(a, skew=True):  # a = -i (i a), with i a Hermitian
        w, q = scipy.linalg.eigh(1j * a)
        return -1j * w, q
    return None


def _eigenvector_basis(a: np.ndarray):
    """``(w, q, q_inv)`` with ``a = q diag(w) q_inv`` from
    :func:`numpy.linalg.eig`, if ``q`` is finite, invertible and
    ``||q||_1 ||q_inv||_1 <= EIGVEC_COND_LIMIT``; else ``None`` (a defective
    or nearly defective ``a``)."""
    try:
        w, q = np.linalg.eig(a)
        q_inv = np.linalg.inv(q)
    except np.linalg.LinAlgError:  # a singular q, or a non-finite a
        return None
    if not np.linalg.norm(q, 1) * np.linalg.norm(q_inv, 1) <= EIGVEC_COND_LIMIT:  # also inf or nan
        return None
    return w, q, q_inv


def expm_action(a: np.ndarray, eig) -> Callable:
    """The action ``(t, v) -> e^{t a} v`` of a square float ``a``, chosen once.

    ``eig`` is :func:`unitary_eigh` of ``a``.  The action is two matrix
    products per stack in an eigenvector basis (:func:`_eigvec_expm_apply`):
    the unitary one of ``eig``, else that of :func:`_eigenvector_basis`.  A
    matrix with neither, defective or with ill-conditioned eigenvectors,
    takes scaling-and-squaring with Pade approximation via
    :func:`scipy.linalg.expm` (:func:`_pade_expm_apply`).  Each takes a 1-D
    array of m times with a stack ``(..., m, d)`` of states, one time per
    row, broadcast over the leading axes.
    """
    if eig is not None:
        w, q = eig
        basis = (w, q, q.conj().T)
    else:
        basis = _eigenvector_basis(a)
        if basis is None:
            return partial(_pade_expm_apply, a)
    return partial(_eigvec_expm_apply, basis, real=not np.iscomplexobj(a))


def expm_apply(a, t: float, v) -> np.ndarray:
    """Apply the matrix exponential: ``e^{t a} v``, through :func:`expm_action`."""
    a = np.asarray(a, dtype=np.complex128 if np.iscomplexobj(a) else np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatchError(f"expected a square matrix, got shape {a.shape}")
    v = as_state_vector(v, a.shape[0])
    out = expm_action(a, unitary_eigh(a))(np.array([t], dtype=np.float64), v[None])[0]
    check_finite(out, "matrix exponential action")
    return out


def rk4_integrate(
    f: Callable[[float, np.ndarray], np.ndarray],
    u0,
    t_end: float,
    steps: int,
    t0: float = 0.0,
) -> np.ndarray:
    """Integrate ``u' = f(t, u)`` from ``t0`` to ``t_end`` with classical RK4.

    Fixed step size, deterministic for fixed inputs.  Raises
    :class:`NonFiniteError` as soon as the state picks up NaN/Inf entries.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    u = np.array(u0, copy=True)
    u = u.astype(np.complex128 if np.iscomplexobj(u) else np.float64, copy=False)
    h = (t_end - t0) / steps
    for i in range(steps):
        t = t0 + i * h
        k1 = f(t, u)
        k2 = f(t + 0.5 * h, u + (0.5 * h) * k1)
        k3 = f(t + 0.5 * h, u + (0.5 * h) * k2)
        k4 = f(t + h, u + h * k3)
        u = u + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.all(np.isfinite(u)):
            raise NonFiniteError(f"RK4 state became non-finite at t={t + h:.6g}")
    return u


@lru_cache(maxsize=32)
def _gauss_legendre_reference(q: int):
    # Nodes/weights on [-1, 1]; cached because every run of a Duhamel pass
    # takes its nodes from one rule of its own.
    x, w = np.polynomial.legendre.leggauss(q)
    return x, w


@dataclass(frozen=True)
class QuadratureRule:
    """Composite Gauss-Legendre rule on an interval, split into equal panels.

    Each panel holds ``nodes_per_panel`` Gauss points (exact on polynomials
    of degree ``2 q - 1``).  Panel-boundary nodes are not merged; the
    duplicate evaluations keep the bookkeeping trivial.
    """

    panels: int = 16
    nodes_per_panel: int = 8

    def __post_init__(self):
        if self.panels < 1:
            raise ValueError("panels must be >= 1")
        if self.nodes_per_panel < 1:
            raise ValueError("nodes_per_panel must be >= 1")

    @property
    def order(self) -> int:
        """Convergence order (also: exact on polynomials of degree order-1)."""
        return 2 * self.nodes_per_panel

    def refined(self) -> "QuadratureRule":
        """Same rule with twice as many panels: the panel-doubling check's."""
        return replace(self, panels=2 * self.panels)

    def nodes(self, a: float, b: float) -> tuple[np.ndarray, np.ndarray]:
        """Nodes and weights for the interval ``[a, b]``.

        Weights sum to ``b - a``.  Returns empty arrays for a zero-length
        interval.
        """
        if b == a:
            return np.empty(0), np.empty(0)
        edges = np.linspace(a, b, self.panels + 1)
        h = (b - a) / self.panels
        xr, wr = _gauss_legendre_reference(self.nodes_per_panel)
        mids = 0.5 * (edges[:-1] + edges[1:])
        pts = mids[:, None] + (0.5 * h) * xr[None, :]
        wts = np.broadcast_to((0.5 * h) * wr, pts.shape)
        return pts.ravel(), np.ascontiguousarray(wts).ravel()
