"""End-to-end model problems with closed-form cross-checks.

Two second-order model PDEs whose characteristic polynomial has a double
root reduce to a multiplicity-2 factored equation and therefore exercise
the whole pipeline against independently evaluated closed forms.

Wave-type problem (translation backend)
    ``u_tt + a1 u_tx + a2 u_xx = f`` with ``u(0) = phi1``, ``u_t(0) = phi2``.
    With ``A = d/dx`` and a double root ``z1`` of ``z^2 + a1 z + a2`` this is
    ``(d/dt - z1 A)^2 u = f`` and has the closed form

        u(t, x) = phi1(x + z1 t) + t phi2(x + z1 t) - z1 t phi1'(x + z1 t)
                  + int_0^t (t - s) f(s, x + z1 (t - s)) ds.

    The continuous problem lives on the whole line; the validation setup
    uses a periodic grid where band-limited shifts are essentially exact.
    Complex double roots (complex ``a1``) run the same path with complex
    arithmetic end to end.

Plate-type problem (spectral backend)
    ``u_tt + b1 (Lap u)_t + b2 Lap^2 u = f`` on the interval ``(0, pi)``
    with homogeneous Dirichlet data.  In the sine eigenbasis of the
    Dirichlet Laplacian (eigenvalues ``lam_k = -k^2``, eigenfunctions
    ``w_k = sqrt(2/pi) sin(k x)``) and for a double root ``alpha`` of
    ``z^2 + b1 z + b2`` the modal solution is

        beta_k(t) = (b1_k + t b2_k) e^{lam_k alpha t},
        b1_k = <psi1, w_k>,  b2_k = <psi2, w_k> - alpha lam_k <psi1, w_k>,

    plus the matching Duhamel term for the forcing.  The eigenpairs are
    analytic, so no eigensolver is involved and both solution paths are
    exact in mode space.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .equation import FactoredEquation, Forcing
from .errors import DimensionMismatchError, NotDoubleRootError
from .operators import SpectralDiagonalOperator, TranslationOperator, UniformGrid
from .solver import default_quadrature_rule, solve_full
from .statespace import QuadratureRule
from .trace import SolutionTrace

DOUBLE_ROOT_RTOL = 1e-12


def characteristic_roots(c1, c2):
    """Roots of ``z^2 + c1 z + c2`` and whether they form a double root.

    Complex roots are allowed; for real coefficients with real roots the
    returned values are floats.  The double-root flag uses the discriminant:
    ``|c1^2 - 4 c2| <= 1e-12 * max(1, |c1|^2)``.
    """
    disc = c1 * c1 - 4.0 * c2
    is_double = bool(abs(disc) <= DOUBLE_ROOT_RTOL * max(1.0, abs(c1) ** 2))
    if is_double:
        z1 = z2 = -c1 / 2.0
    else:
        sq = np.sqrt(complex(disc))
        z1 = (-c1 + sq) / 2.0
        z2 = (-c1 - sq) / 2.0
    real_inputs = not (np.iscomplexobj(c1) or np.iscomplexobj(c2))
    if real_inputs and abs(np.imag(z1)) == 0.0 and abs(np.imag(z2)) == 0.0:
        return float(np.real(z1)), float(np.real(z2)), is_double
    return complex(z1), complex(z2), is_double


# ---------------------------------------------------------------------------
# wave-type problem on a translation grid
# ---------------------------------------------------------------------------


@dataclass
class Example1Problem:
    """Double-root advective problem: coefficients, profiles, forcing.

    ``forcing(t, x_points)`` must return samples on the grid; ``None`` means
    the homogeneous problem.  Characteristic roots are computed at
    construction and exposed as ``z1``, ``z2``, ``is_double``.
    """

    a1: float | complex
    a2: float | complex
    grid: UniformGrid
    phi1: np.ndarray
    phi2: np.ndarray
    forcing: Callable[[float, np.ndarray], np.ndarray] | None = None
    z1: float | complex = field(init=False)
    z2: float | complex = field(init=False)
    is_double: bool = field(init=False)

    def __post_init__(self):
        self.phi1 = np.asarray(self.phi1)
        self.phi2 = np.asarray(self.phi2)
        for name, arr in (("phi1", self.phi1), ("phi2", self.phi2)):
            if arr.shape != (self.grid.n,):
                raise DimensionMismatchError(
                    f"{name} must be sampled on the grid ({self.grid.n} points), "
                    f"got shape {arr.shape}"
                )
        self.z1, self.z2, self.is_double = characteristic_roots(self.a1, self.a2)

    def shift_operator(self, label: str = "wave-shift") -> TranslationOperator:
        return TranslationOperator(label, self.z1, self.grid)

    def _forcing_term(self) -> Forcing | None:
        if self.forcing is None:
            return None
        x = self.grid.points()
        fn = self.forcing
        return Forcing(lambda t: np.asarray(fn(t, x)))


def _require_double(is_double: bool, what: str) -> None:
    if not is_double:
        raise NotDoubleRootError(
            f"{what}: characteristic roots are distinct; build the two distinct "
            "factors yourself and use the generic solver"
        )


def example1_closed_form(
    p: Example1Problem, t_grid, rule: QuadratureRule | None = None
) -> np.ndarray:
    """Evaluate the shifted-profile closed form on the grid, per sample time."""
    _require_double(p.is_double, "closed form")
    rule = rule or default_quadrature_rule()
    op = p.shift_operator()
    slope = op.apply(p.phi1)  # z1 * phi1'
    x = p.grid.points()
    rows = []
    for t in np.asarray(t_grid, dtype=np.float64):
        t = float(t)
        row = op.semigroup(t, p.phi1) + t * op.semigroup(t, p.phi2) - t * op.semigroup(t, slope)
        if p.forcing is not None and t > 0.0:
            pts, wts = rule.nodes(0.0, t)
            forcing = np.stack([np.asarray(p.forcing(s, x)) for s in pts])
            row = row + (wts * (t - pts)) @ op.semigroup(t - pts, forcing)
        rows.append(row)
    return np.stack(rows)


def solve_example1(
    p: Example1Problem, t_grid, rule: QuadratureRule | None = None
) -> SolutionTrace:
    """Generic-path solution of the double-root advective problem.

    Runs the factored solver on the repeated shift generator and compares
    the result against the closed form; the per-sample deviation lands in
    the diagnostics (``closed_form_dev``, ``closed_form_max_dev``).
    """
    _require_double(p.is_double, "solve_example1")
    op = p.shift_operator()
    eq = FactoredEquation((op, op), (p.phi1, p.phi2), p._forcing_term())
    generic = solve_full(eq, t_grid, rule)
    closed = example1_closed_form(p, t_grid, rule)
    dev = np.max(np.abs(generic.values - closed), axis=1)
    diagnostics = dict(generic.diagnostics)
    diagnostics["closed_form_dev"] = dev
    diagnostics["closed_form_max_dev"] = float(np.max(dev)) if dev.size else 0.0
    return SolutionTrace(generic.times, generic.values, diagnostics)


def _time_stencils(times: np.ndarray, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """4th-order central stencils ``(u_t, u_tt)`` at the samples
    ``times[2:-2]`` of a uniform time grid of at least 5 samples."""
    if times.size < 5:
        raise ValueError("need at least 5 samples for the 4th-order stencil")
    h = np.diff(times)
    if not np.allclose(h, h[0], rtol=1e-12, atol=1e-14):
        raise ValueError("residual check needs a uniform time grid")
    h = float(h[0])
    u_t = (u[:-4] - 8 * u[1:-3] + 8 * u[3:-1] - u[4:]) / (12 * h)
    u_tt = (-u[:-4] + 16 * u[1:-3] - 30 * u[2:-2] + 16 * u[3:-1] - u[4:]) / (12 * h * h)
    return u_t, u_tt


def example1_residual(p: Example1Problem, trace: SolutionTrace) -> float:
    """Max discrete PDE residual of a trace on a uniform time grid.

    Time derivatives use 4th-order central stencils (needs at least 5
    equispaced samples); space derivatives use the grid's own derivative
    action.  Returns ``max |u_tt + a1 u_tx + a2 u_xx - f|`` over interior
    samples.
    """
    times, u = trace.times, trace.values
    u_t, u_tt = _time_stencils(times, u)
    ddx = TranslationOperator("ddx", 1.0, p.grid)
    x = p.grid.points()
    worst = 0.0
    for row in range(u_t.shape[0]):
        res = u_tt[row] + p.a1 * ddx.apply(u_t[row]) + p.a2 * ddx.apply(ddx.apply(u[row + 2]))
        if p.forcing is not None:
            res = res - np.asarray(p.forcing(float(times[row + 2]), x))
        worst = max(worst, float(np.max(np.abs(res))))
    return worst


# ---------------------------------------------------------------------------
# plate-type problem in the Dirichlet sine basis
# ---------------------------------------------------------------------------


@dataclass
class Example2Problem:
    """Double-root modal problem on ``(0, pi)`` with Dirichlet data.

    State is the vector of coefficients on the first ``num_modes`` sine
    eigenfunctions; ``forcing_modes(t)`` returns the forcing coefficients.
    ``x_grid`` fixes where solutions are synthesized (defaults to a uniform
    grid fine enough for discrete orthonormality of the retained modes).
    """

    b1: float
    b2: float
    num_modes: int
    psi1_modes: np.ndarray
    psi2_modes: np.ndarray
    forcing_modes: Callable[[float], np.ndarray] | None = None
    x_grid: np.ndarray | None = None
    alpha: float | complex = field(init=False)
    is_double: bool = field(init=False)
    eigenvalues: np.ndarray = field(init=False)

    def __post_init__(self):
        if self.num_modes < 1:
            raise ValueError("num_modes must be >= 1")
        self.psi1_modes = np.asarray(self.psi1_modes, dtype=np.float64)
        self.psi2_modes = np.asarray(self.psi2_modes, dtype=np.float64)
        for name, arr in (("psi1_modes", self.psi1_modes), ("psi2_modes", self.psi2_modes)):
            if arr.shape != (self.num_modes,):
                raise DimensionMismatchError(
                    f"{name} must have {self.num_modes} entries, got shape {arr.shape}"
                )
        if self.x_grid is None:
            self.x_grid = np.linspace(0.0, np.pi, 4 * self.num_modes + 1)
        else:
            self.x_grid = np.asarray(self.x_grid, dtype=np.float64)
        z1, _, self.is_double = characteristic_roots(self.b1, self.b2)
        self.alpha = z1
        k = np.arange(1, self.num_modes + 1)
        self.eigenvalues = -(k.astype(np.float64) ** 2)

    def eigenfunctions(self) -> np.ndarray:
        """Matrix ``W[k, i] = sqrt(2/pi) sin((k+1) x_i)`` for synthesis.

        Samples at the interval endpoints are set to exactly zero (the sine
        basis vanishes there analytically; ``np.sin(k*pi)`` does not).
        """
        k = np.arange(1, self.num_modes + 1)
        w = np.sqrt(2.0 / np.pi) * np.sin(np.outer(k, self.x_grid))
        w[:, self.x_grid == 0.0] = 0.0
        w[:, self.x_grid == np.pi] = 0.0
        return w

    def mode_operator(self, label: str = "dirichlet-laplacian") -> SpectralDiagonalOperator:
        return SpectralDiagonalOperator(label, self.eigenvalues, scale=self.alpha)

    def synthesize(self, modal_values: np.ndarray) -> np.ndarray:
        """Turn modal rows ``(m, K)`` into grid samples ``(m, nx)``."""
        return np.asarray(modal_values) @ self.eigenfunctions()


def example2_closed_form_modal(
    p: Example2Problem, t_grid, rule: QuadratureRule | None = None
) -> np.ndarray:
    """Per-mode closed form, shape ``(len(t_grid), num_modes)``."""
    _require_double(p.is_double, "closed form")
    rule = rule or default_quadrature_rule()
    lam, alpha = p.eigenvalues, p.alpha
    beta1 = p.psi1_modes
    beta2 = p.psi2_modes - alpha * lam * p.psi1_modes
    rows = []
    for t in np.asarray(t_grid, dtype=np.float64):
        t = float(t)
        row = (beta1 + t * beta2) * np.exp(lam * alpha * t)
        if p.forcing_modes is not None and t > 0.0:
            pts, wts = rule.nodes(0.0, t)
            forcing = np.stack([np.asarray(p.forcing_modes(s)) for s in pts])
            row = row + (wts * (t - pts)) @ (np.exp(np.outer(t - pts, lam * alpha)) * forcing)
        rows.append(row)
    return np.stack(rows)


def solve_example2(
    p: Example2Problem, t_grid, rule: QuadratureRule | None = None
) -> SolutionTrace:
    """Generic spectral-path solution, synthesized onto ``x_grid``.

    Diagnostics carry the modal trace (``modal_values``), the deviation
    from the modal closed form (``modal_closed_max_dev``), and the largest
    boundary value of the synthesized solution (``boundary_max``, zero up
    to roundoff because the basis is odd at both endpoints).
    """
    _require_double(p.is_double, "solve_example2")
    op = p.mode_operator()
    forcing = Forcing(lambda t: np.asarray(p.forcing_modes(t))) if p.forcing_modes else None
    eq = FactoredEquation((op, op), (p.psi1_modes, p.psi2_modes), forcing)
    generic = solve_full(eq, t_grid, rule)
    closed = example2_closed_form_modal(p, t_grid, rule)
    dev = float(np.max(np.abs(generic.values - closed))) if closed.size else 0.0
    synthesized = p.synthesize(generic.values)
    boundary_max = float(np.max(np.abs(synthesized[:, [0, -1]])))
    diagnostics = dict(generic.diagnostics)
    diagnostics["modal_values"] = generic.values
    diagnostics["modal_closed_max_dev"] = dev
    diagnostics["boundary_max"] = boundary_max
    return SolutionTrace(generic.times, synthesized, diagnostics)


def example2_residual(p: Example2Problem, times, modal_values) -> float:
    """Max modal residual ``|beta'' + b1 lam beta' + b2 lam^2 beta - f_k|``.

    Same stencil requirements as :func:`example1_residual`.
    """
    times = np.asarray(times, dtype=np.float64)
    beta = np.asarray(modal_values)
    b_t, b_tt = _time_stencils(times, beta)
    lam = p.eigenvalues
    res = b_tt + p.b1 * lam * b_t + p.b2 * lam**2 * beta[2:-2]
    if p.forcing_modes is not None:
        for row, t in enumerate(times[2:-2]):
            res[row] -= np.asarray(p.forcing_modes(float(t)))
    return float(np.max(np.abs(res)))
