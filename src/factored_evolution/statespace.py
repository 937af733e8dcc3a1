"""Dense linear-algebra and integration kernel shared by all backends.

State vectors are plain 1-D numpy arrays (float64, or complex128 where a
backend needs it) and matrices are 2-D arrays.  This module wraps the few
numerical primitives everything else is built on: a pivoted LU solve with an
explicit singularity gate, matrix-exponential actions, the overflow-checked
elementwise exponential behind every diagonal semigroup, a fixed-step RK4
integrator used as the brute-force referee, composite quadrature rules, and
finite-difference weights for derivative checks.
"""

from __future__ import annotations

import math
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


def lu_solve(a, b) -> np.ndarray:
    """Solve ``a x = b`` by pivoted LU elimination.

    ``b`` may be a vector or a matrix of stacked right-hand-side columns.
    A pivot of magnitude below ``PIVOT_RTOL * ||a||_inf`` raises
    :class:`SingularMatrixError` instead of returning garbage; for an
    assembled coefficient system that signals a non-injective operator
    difference.
    """
    factors = lu_factor_checked(a)
    return lu_apply(factors, b)


def lu_factor_checked(a):
    """LU-factor ``a`` with the pivot gate applied; reusable via lu_apply."""
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
    """Back-substitute a right-hand side through factors from lu_factor_checked."""
    lu, piv = factors
    b = np.asarray(b)
    check_finite(b, "right-hand side")
    if b.shape[0] != lu.shape[0]:
        raise DimensionMismatchError(
            f"right-hand side length {b.shape[0]} does not match matrix size {lu.shape[0]}"
        )
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


def checked_exp(values: np.ndarray, t: np.ndarray, what: str) -> np.ndarray:
    """``exp(outer(t, values))``, one row per entry of the 1-D array ``t``;
    an entry that overflows raises :class:`SemigroupOverflowError` naming
    ``what`` and the first ``t`` whose row overflows."""
    with np.errstate(over="ignore", invalid="ignore"):  # inf * 0 is nan: checked below
        grow = np.multiply.outer(t, values)
        np.exp(grow, out=grow)
    finite = np.isfinite(grow)
    if not np.all(finite):
        t_bad = t[np.argmin(np.all(finite, axis=-1))]
        raise SemigroupOverflowError(f"{what} overflows float range at t={t_bad:.3g}")
    return grow


def _eigh_expm_apply(eig, t: np.ndarray, v: np.ndarray, real: bool = False) -> np.ndarray:
    """The rows ``e^{t_i a} v_i`` of a stack ``v`` of shape ``(m, d)``, from
    ``eig = (w, q)`` with ``a = q diag(w) q^H`` and ``q`` unitary: two matrix
    products for the stack.  With ``real`` (a real ``a`` whose ``w`` or
    ``q`` are complex), a real ``v`` gives the real part."""
    w, q = eig
    grow = checked_exp(w, t, "matrix exponential")
    out = (q @ (grow.T * (q.conj().T @ v.T))).T
    return out.real if real and not np.iscomplexobj(v) else out


def _pade_expm_apply(a: np.ndarray, t: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The rows ``e^{t_i a} v_i`` of a stack ``v`` of shape ``(m, d)`` by
    scaling and squaring, from stacked exponentials of at most
    ``EXPM_STACK_ENTRIES`` entries each."""
    step = max(1, EXPM_STACK_ENTRIES // a.size)
    if t.size > step:
        return np.concatenate(
            [_pade_expm_apply(a, t[i : i + step], v[i : i + step]) for i in range(0, t.size, step)]
        )
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        phi = scipy.linalg.expm(np.multiply.outer(t, a))
        out = (phi @ v[..., None])[..., 0]
    if not np.all(np.isfinite(phi)):
        raise SemigroupOverflowError("matrix exponential overflowed float range")
    check_finite(out, "matrix exponential action")
    return out


def expm_action(a: np.ndarray) -> Callable:
    """The action ``(t, v) -> e^{t a} v`` of a square float ``a``, chosen once.

    Hermitian (in particular real symmetric) matrices go through an
    eigendecomposition, computed here; so do skew-Hermitian ones (in
    particular real antisymmetric), through that of the Hermitian ``i a``.
    Everything else uses scaling-and-squaring with Pade approximation via
    :func:`scipy.linalg.expm`.  Each takes a 1-D array of times with a
    stack of states, one per row, as :func:`_eigh_expm_apply` and
    :func:`_pade_expm_apply` do.
    """
    if _hermitian(a):
        return partial(_eigh_expm_apply, scipy.linalg.eigh(a))
    if _hermitian(a, skew=True):  # a = -i (i a), with i a Hermitian
        w, q = scipy.linalg.eigh(1j * a)
        return partial(_eigh_expm_apply, (-1j * w, q), real=not np.iscomplexobj(a))
    return partial(_pade_expm_apply, a)


def expm_apply(a, t: float, v) -> np.ndarray:
    """Apply the matrix exponential: ``e^{t a} v``, through :func:`expm_action`."""
    a = np.asarray(a, dtype=np.complex128 if np.iscomplexobj(a) else np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatchError(f"expected a square matrix, got shape {a.shape}")
    v = as_state_vector(v, a.shape[0])
    out = expm_action(a)(np.array([t], dtype=np.float64), v[None])[0]
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
    # Nodes/weights on [-1, 1]; cached because rules are rebuilt per interval.
    x, w = np.polynomial.legendre.leggauss(q)
    return x, w


@dataclass(frozen=True)
class QuadratureRule:
    """Composite quadrature rule on an interval, split into equal panels.

    ``gauss-legendre`` places ``nodes_per_panel`` Gauss points in each panel
    (exact on polynomials of degree ``2 q - 1``).  ``composite-simpson`` uses
    the 3-point Simpson rule per panel (degree 3).  Panel-boundary nodes are
    not merged; the duplicate evaluations keep the bookkeeping trivial.
    """

    kind: str = "gauss-legendre"
    panels: int = 16
    nodes_per_panel: int = 8

    def __post_init__(self):
        if self.kind not in ("gauss-legendre", "composite-simpson"):
            raise ValueError(f"unknown quadrature kind {self.kind!r}")
        if self.panels < 1:
            raise ValueError("panels must be >= 1")
        if self.kind == "composite-simpson" and self.nodes_per_panel != 3:
            raise ValueError("composite-simpson uses exactly 3 nodes per panel")
        if self.kind == "gauss-legendre" and self.nodes_per_panel < 1:
            raise ValueError("nodes_per_panel must be >= 1")

    @property
    def order(self) -> int:
        """Convergence order (also: exact on polynomials of degree order-1)."""
        if self.kind == "gauss-legendre":
            return 2 * self.nodes_per_panel
        return 4

    def refined(self, factor: int = 2) -> "QuadratureRule":
        """Same rule with ``factor`` times as many panels."""
        return replace(self, panels=self.panels * factor)

    def nodes(self, a: float, b: float) -> tuple[np.ndarray, np.ndarray]:
        """Nodes and weights for the interval ``[a, b]``.

        Weights sum to ``b - a``.  Returns empty arrays for a zero-length
        interval.
        """
        if b == a:
            return np.empty(0), np.empty(0)
        edges = np.linspace(a, b, self.panels + 1)
        h = (b - a) / self.panels
        if self.kind == "gauss-legendre":
            xr, wr = _gauss_legendre_reference(self.nodes_per_panel)
            mids = 0.5 * (edges[:-1] + edges[1:])
            pts = mids[:, None] + (0.5 * h) * xr[None, :]
            wts = np.broadcast_to((0.5 * h) * wr, pts.shape)
        else:
            left = edges[:-1]
            pts = left[:, None] + h * np.array([0.0, 0.5, 1.0])[None, :]
            wts = np.broadcast_to((h / 6.0) * np.array([1.0, 4.0, 1.0]), pts.shape)
        return pts.ravel(), np.ascontiguousarray(wts).ravel()


def finite_difference_weights(offsets, derivative_order: int) -> np.ndarray:
    """Weights approximating the ``derivative_order``-th derivative at 0.

    ``offsets`` are the (distinct) sample abscissae relative to the
    evaluation point.  Solves the small Vandermonde moment system, so the
    stencil is exact on polynomials of degree ``len(offsets) - 1``.
    """
    x = np.asarray(offsets, dtype=np.float64)
    m = x.shape[0]
    if derivative_order >= m:
        raise ValueError("need more offsets than the derivative order")
    powers = np.vander(x, m, increasing=True).T  # powers[p, i] = x_i**p
    rhs = np.zeros(m)
    rhs[derivative_order] = math.factorial(derivative_order)
    return np.linalg.solve(powers, rhs)
