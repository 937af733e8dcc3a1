"""Shared instance generators and comparison helpers."""

from __future__ import annotations

import math

import numpy as np

from factored_evolution import (
    DenseMatrixOperator,
    FactoredEquation,
    Forcing,
    SpectralDiagonalOperator,
    TranslationOperator,
    UniformGrid,
)


def max_rel_dev(values, reference) -> float:
    """Largest absolute deviation relative to the reference's overall scale."""
    scale = max(float(np.max(np.abs(reference))), 1e-12)
    return float(np.max(np.abs(np.asarray(values) - np.asarray(reference)))) / scale


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


def central_difference_operator(label: str, speed: float, grid: UniformGrid) -> DenseMatrixOperator:
    """``speed`` times the second-order central difference on ``grid`` with
    the profile 0 outside it: the generator of a zero-extension translation."""
    diff = (np.eye(grid.n, k=1) - np.eye(grid.n, k=-1)) / (2.0 * grid.dx)
    return DenseMatrixOperator(label, speed * diff)


def multiplicity_pattern(rng, n: int, kind: str | None = None) -> list[int]:
    """Composition of n: all-equal, all-distinct, or a random mixed split."""
    if kind is None:
        kind = str(rng.choice(["all-equal", "all-distinct", "mixed"]))
    if kind == "all-equal" or n == 1:
        return [n]
    if kind == "all-distinct":
        return [1] * n
    parts: list[int] = []
    left = n
    while left > 0:
        p = int(rng.integers(1, min(left, 3) + 1))
        parts.append(p)
        left -= p
    if len(parts) == 1:  # degenerated to all-equal, force a genuine mix
        parts = [n - 1, 1]
    return parts


def _spread_centers(rng, count: int) -> np.ndarray:
    # Group centers separated by at least ~0.45 so operator differences stay
    # comfortably injective and the confluent systems well conditioned.
    centers = np.linspace(-2.0, 0.3, max(count, 2))[:count].copy()
    rng.shuffle(centers)
    return centers


def random_spectral_instance(
    rng, n: int, dim: int, pattern: str | None = None, forcing: Forcing | None = None
) -> FactoredEquation:
    mults = multiplicity_pattern(rng, n, pattern)
    centers = _spread_centers(rng, len(mults))
    factors: list[SpectralDiagonalOperator] = []
    for j, mult in enumerate(mults):
        op = SpectralDiagonalOperator(f"G{j}", centers[j] + 0.12 * rng.uniform(-1, 1, dim))
        factors.extend([op] * mult)
    data = tuple(rng.standard_normal(dim) for _ in range(n))
    return FactoredEquation(tuple(factors), data, forcing)


def random_dense_commuting_instance(
    rng, n: int, dim: int, pattern: str | None = None, forcing: Forcing | None = None
) -> FactoredEquation:
    mults = multiplicity_pattern(rng, n, pattern)
    centers = _spread_centers(rng, len(mults))
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    factors: list[DenseMatrixOperator] = []
    for j, mult in enumerate(mults):
        lam = centers[j] + 0.12 * rng.uniform(-1, 1, dim)
        mat = q @ np.diag(lam) @ q.T
        op = DenseMatrixOperator(f"G{j}", 0.5 * (mat + mat.T))
        factors.extend([op] * mult)
    data = tuple(rng.standard_normal(dim) for _ in range(n))
    return FactoredEquation(tuple(factors), data, forcing)


def random_dense_polynomial_instance(
    rng, n: int, dim: int, pattern: str | None = None, forcing: Forcing | None = None
) -> FactoredEquation:
    """Non-normal commuting generators: ``c_j I + a_j N + b_j N^2`` for one
    random ``N`` of spectral radius about 0.3, so the group differences
    stay near the centre gaps and well conditioned.  Their semigroups act
    through the eigenvectors of ``N``."""
    mults = multiplicity_pattern(rng, n, pattern)
    centers = _spread_centers(rng, len(mults))
    base = 0.3 * rng.standard_normal((dim, dim)) / np.sqrt(dim)
    factors: list[DenseMatrixOperator] = []
    for j, mult in enumerate(mults):
        mat = centers[j] * np.eye(dim) + rng.uniform(0.5, 1.0) * base + rng.uniform(-0.2, 0.2) * (base @ base)
        factors.extend([DenseMatrixOperator(f"G{j}", mat)] * mult)
    data = tuple(rng.standard_normal(dim) for _ in range(n))
    return FactoredEquation(tuple(factors), data, forcing)


def defective_operator(label: str, center: float, slope: float, dim: int) -> DenseMatrixOperator:
    """``center I + slope N`` with ``N = np.eye(dim, k=1)``: one Jordan
    block, which has no eigenvector basis, so its semigroup takes scaling
    and squaring (``statespace._pade_expm_apply``)."""
    return DenseMatrixOperator(label, center * np.eye(dim) + slope * np.eye(dim, k=1))


def random_dense_defective_instance(
    rng, n: int, dim: int, pattern: str | None = None, forcing: Forcing | None = None
) -> FactoredEquation:
    """Defective commuting generators ``c_j I + a_j N`` (:func:`defective_operator`)."""
    mults = multiplicity_pattern(rng, n, pattern)
    centers = _spread_centers(rng, len(mults))
    factors: list[DenseMatrixOperator] = []
    for j, mult in enumerate(mults):
        factors.extend([defective_operator(f"G{j}", centers[j], rng.uniform(0.5, 1.0), dim)] * mult)
    data = tuple(rng.standard_normal(dim) for _ in range(n))
    return FactoredEquation(tuple(factors), data, forcing)


def zero_mean_profile(rng, points: int, modes: int = 6) -> np.ndarray:
    """Real periodic profile on ``points`` samples of ``[0, 2 pi)`` with
    Fourier modes ``1 .. modes``."""
    x = 2.0 * np.pi * np.arange(points) / points
    out = np.zeros(points)
    for k in range(1, modes + 1):
        a, b = rng.standard_normal(2) / k
        out += a * np.cos(k * x) + b * np.sin(k * x)
    return out


def random_translation_instance(
    rng, n: int, points: int, pattern: str | None = None, forced: bool = False
) -> FactoredEquation:
    """Periodic translations on ``[0, 2 pi)`` with distinct speeds.

    Distinct speeds coincide on the constant mode (and on the dropped
    Nyquist mode), so the data, and the forcing if ``forced``, are
    zero-mean profiles of Fourier modes 1-6 that leave both unexcited.
    The forcing takes a column of times as well as one time.
    """
    mults = multiplicity_pattern(rng, n, pattern)
    grid = UniformGrid(0.0, 2.0 * np.pi / points, points)
    factors: list[TranslationOperator] = []
    for j, (speed, mult) in enumerate(zip(_spread_centers(rng, len(mults)), mults)):
        factors.extend([TranslationOperator(f"T{j}", float(speed), grid)] * mult)
    data = tuple(zero_mean_profile(rng, points) for _ in range(n))
    forcing = None
    if forced:
        c0, c1 = (zero_mean_profile(rng, points) for _ in range(2))
        w = float(rng.uniform(0.5, 2.0))
        forcing = Forcing(lambda t: c0 * np.cos(w * t) + c1 * t, vectorized=True)
    return FactoredEquation(tuple(factors), data, forcing)


def random_commuting_instance(
    rng, n: int, dim: int, family: str, pattern: str | None = None, forcing: Forcing | None = None
) -> FactoredEquation:
    if family == "dense":
        return random_dense_commuting_instance(rng, n, dim, pattern, forcing)
    return random_spectral_instance(rng, n, dim, pattern, forcing)


def random_smooth_forcing(rng, dim: int) -> Forcing:
    """Polynomial or cosine forcing with random coefficient vectors; it
    takes a column of times as well as one time."""
    c0, c1, c2 = rng.standard_normal((3, dim))
    if rng.integers(0, 2) == 0:
        return Forcing(lambda t: c0 + c1 * t + 0.5 * c2 * t * t, vectorized=True)
    w = float(rng.uniform(0.5, 2.0))
    return Forcing(lambda t: c0 * np.cos(w * t) + 0.3 * c1 * np.sin(w * t), vectorized=True)
