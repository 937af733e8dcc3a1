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

import numbers
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
    UnsupportedOperationError,
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

# Largest Gauss order q of a quadrature panel.  Laurie's mixed moments in
# :func:`_gauss_kronrod_reference` shrink like 4^-q (1.5e-301 at q = 500)
# and leave the normal doubles (2.2e-308) past q = 511; by q = 540 they
# reach 0 and the nodes are NaN.
MAX_NODES_PER_PANEL = 500

# Held around every scipy.linalg.lu_solve.  With the OpenBLAS bundled in
# scipy 1.17.1 (0.3.30) two threads back-substituting at once get wrong
# solutions now and then: two threads of 2500 solves each on one 24x24 LU
# gave 1250-3702 wrong of 5000 without the lock, and 0 with it.
_LU_SOLVE_LOCK = threading.Lock()


def as_state_vector(v, dim: int) -> np.ndarray:
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
    if arr.shape[0] != dim:
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
    non-negative and strictly increasing.  Complex times raise
    :class:`UnsupportedOperationError` before the cast would drop their
    imaginary parts."""
    if np.iscomplexobj(t_grid):
        raise UnsupportedOperationError("t_grid must hold real times, got complex ones")
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


def is_index(value) -> bool:
    """Whether ``value`` is an integer count: integral, so that
    ``operator.index`` takes it, and no bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


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


def exp_rows(values: np.ndarray, t: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``exp(outer(t, values))``, one row per entry of the 1-D array ``t``,
    formed in ``out`` when one is given, unchecked: an overflowing row
    keeps its ``inf`` (or ``nan``) for the caller's check."""
    with np.errstate(over="ignore", invalid="ignore"):  # inf * 0 is nan
        grow = np.multiply.outer(t, values, out=out)
        return np.exp(grow, out=grow)


def checked_exp(values: np.ndarray, t: np.ndarray, what: str) -> np.ndarray:
    """:func:`exp_rows` through :func:`checked_rows`."""
    return checked_rows(exp_rows(values, t), t, what)


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
    # takes its Gauss-Kronrod layout (:func:`_gauss_kronrod_reference`)
    # from a rule of its own, and the PDE closed forms call
    # QuadratureRule.nodes per value.
    x, w = np.polynomial.legendre.leggauss(q)
    return x, w


@lru_cache(maxsize=32)
def _gauss_kronrod_reference(q: int):
    """The (2q+1)-point Kronrod extension of the q-point Gauss-Legendre rule
    on ``[-1, 1]``: ``(x, w, gauss)`` with the nodes ``x`` in increasing
    order, their Kronrod weights ``w`` (exact on polynomials of degree
    ``3 q + 1``) and the positions ``gauss = 1, 3, .., 2 q - 1`` of the Gauss
    nodes, which are those of :func:`_gauss_legendre_reference` bit for bit.

    Laurie's algorithm (Math. Comp. 66 (1997) 1133-1145, appendix) extends
    the Legendre recurrence ``a_k = 0``, ``b_0 = 2``, ``b_k = k^2/(4k^2-1)``
    to the Jacobi-Kronrod matrix, whose eigenvalues are the nodes; for the
    Legendre weight they are real, interlace and lie inside for every q
    (Monegato, SIAM Rev. 24 (1982) 137-158).  The q+1 Kronrod nodes are
    made symmetric about 0.  The rule is interpolatory, so the weights solve
    the Legendre moment equations on the nodes, which reproduces the
    tabulated G7/K15 and G10/K21 weights more closely than the
    eigenvectors do.
    """
    a, b = np.zeros(2 * q + 1), np.zeros(2 * q + 1)
    k = np.arange(1, (3 * q + 1) // 2 + 1)
    b[0], b[k] = 2.0, k**2 / (4.0 * k**2 - 1.0)
    # s and t hold two consecutive rows of Laurie's mixed moments, offset by
    # one index; the rows past q - 1 fill in the unknown tail of a and b
    s, t = np.zeros(q // 2 + 3), np.zeros(q // 2 + 3)
    t[1] = b[q + 1]
    for m in range(q - 1):
        k = np.arange((m + 1) // 2, -1, -1)
        l = m - k
        s[k + 1] = np.cumsum((a[k + q + 1] - a[l]) * t[k + 1] + b[k + q + 1] * s[k] - b[l] * s[k + 1])
        s, t = t, s
    s[1 : q // 2 + 3] = s[: q // 2 + 2].copy()
    for m in range(q - 1, 2 * q - 2):
        k = np.arange(m + 1 - q, (m - 1) // 2 + 1)
        l = m - k
        j = q - 1 - l
        s[j + 1] = np.cumsum(-(a[k + q + 1] - a[l]) * t[j + 1] - b[k + q + 1] * s[j + 1] + b[l] * s[j + 2])
        j, k = j[-1], (m + 1) // 2
        if m % 2 == 0:
            a[k + q + 1] = a[k] + (s[j + 1] - b[k + q + 1] * s[j + 2]) / t[j + 2]
        else:
            b[k + q + 1] = s[j + 1] / s[j + 2]
        s, t = t, s
    a[2 * q] = a[q - 1] - b[2 * q] * s[1] / t[1]
    x = scipy.linalg.eigvalsh_tridiagonal(a, np.sqrt(b[1:]))
    x = 0.5 * (x - x[::-1])
    gauss = np.arange(1, 2 * q, 2)
    x[gauss] = _gauss_legendre_reference(q)[0]
    moments = np.zeros(2 * q + 1)
    moments[0] = 2.0
    w = np.linalg.solve(np.polynomial.legendre.legvander(x, 2 * q).T, moments)
    return x, 0.5 * (w + w[::-1]), gauss


@dataclass(frozen=True)
class QuadratureRule:
    """Composite Gauss-Legendre rule on an interval, split into equal panels.

    Each panel holds ``nodes_per_panel`` Gauss points (exact on polynomials
    of degree ``2 q - 1``), all inside the panel, so no two panels share a
    node.  :meth:`gauss_kronrod` adds each panel's q + 1 Kronrod nodes, so
    that one set of forcing values gives the Gauss sum and an error
    estimate.
    """

    panels: int = 16
    nodes_per_panel: int = 8

    def __post_init__(self):
        if not is_index(self.panels) or self.panels < 1:
            raise ValueError(f"panels must be an integer >= 1, got {self.panels!r}")
        if not is_index(self.nodes_per_panel) or not 1 <= self.nodes_per_panel <= MAX_NODES_PER_PANEL:
            raise ValueError(
                f"nodes_per_panel must be an integer in [1, {MAX_NODES_PER_PANEL}], got {self.nodes_per_panel!r}"
            )

    @property
    def order(self) -> int:
        """Convergence order (also: exact on polynomials of degree order-1)."""
        return 2 * self.nodes_per_panel

    def refined(self) -> "QuadratureRule":
        """Same rule with twice as many panels, for the order measurement
        of ``verify``."""
        return replace(self, panels=2 * self.panels)

    def _panels(self, a: float, b: float, xr: np.ndarray, wr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The reference nodes ``xr`` and weights ``wr`` on ``[-1, 1]``
        mapped to every panel of ``[a, b]``, flattened panel by panel."""
        edges = np.linspace(a, b, self.panels + 1)
        h = (b - a) / self.panels
        mids = 0.5 * (edges[:-1] + edges[1:])
        pts = mids[:, None] + (0.5 * h) * xr[None, :]
        wts = np.broadcast_to((0.5 * h) * wr, pts.shape)
        return pts.ravel(), np.ascontiguousarray(wts).ravel()

    def nodes(self, a: float, b: float) -> tuple[np.ndarray, np.ndarray]:
        """Nodes and weights for the interval ``[a, b]``.

        Weights sum to ``b - a``.  Returns empty arrays for a zero-length
        interval.
        """
        if b == a:
            return np.empty(0), np.empty(0)
        return self._panels(a, b, *_gauss_legendre_reference(self.nodes_per_panel))

    def gauss_kronrod(self, a: float, b: float) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The Gauss-Kronrod layout of ``[a, b]``: ``(pts, wts, gauss,
        gauss_wts)``, with the 2q+1 nodes ``pts`` of every panel and their
        Kronrod weights ``wts``, the positions ``gauss`` in ``pts`` of the
        Gauss nodes, which are the points of :meth:`nodes` bit for bit, and
        the Gauss weights ``gauss_wts`` of those, as :meth:`nodes` gives
        them (:func:`_gauss_kronrod_reference`).  ``b > a``."""
        x, w, gauss = _gauss_kronrod_reference(self.nodes_per_panel)
        pts, wts = self._panels(a, b, x, w)
        _, gauss_wts = self.nodes(a, b)
        positions = (np.arange(self.panels)[:, None] * x.size + gauss).ravel()
        return pts, wts, positions, gauss_wts
