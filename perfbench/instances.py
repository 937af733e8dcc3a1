"""Seeded problem generators owned by the benchmark.

The recipe mirrors the test suite's instance generators (group centres
spread over [-2, 0.3], per-mode jitter of 0.12, random-normal data) but
lives here so that editing a test can never change the benchmark inputs.

Every number (eigenvalues, matrices, speeds, initial data, forcing
coefficients) is drawn from the seed.  The shapes (family, dimension,
multiplicities, sample count) come from fixed ladders in ``workloads.py``,
so every seed asks for the same amount of work and runs with different
seeds are comparable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

@dataclass(frozen=True)
class Instance:
    """Raw arrays of one problem; operators are built from them per op.

    ``groups`` holds one entry per distinct factor: an eigenvalue vector
    (spectral), a matrix (dense) or a speed (translation).  ``forcing`` is
    ``None`` or ``(kind, c0, c1, c2, w)`` with kind ``"poly"``
    (``c0 + c1 t + c2 t^2 / 2``) or ``"trig"`` (``c0 cos wt + 0.3 c1 sin wt``).
    """

    name: str
    family: str
    groups: tuple
    mults: tuple[int, ...]
    data: tuple[np.ndarray, ...]
    forcing: tuple | None
    t_end: float
    samples: int
    grid_n: int = 0

    def time_grid(self) -> np.ndarray:
        return np.linspace(0.0, self.t_end, self.samples)

    def forcing_value(self, t: float) -> np.ndarray:
        kind, c0, c1, c2, w = self.forcing
        if kind == "poly":
            return c0 + c1 * t + 0.5 * c2 * t * t
        return c0 * np.cos(w * t) + 0.3 * c1 * np.sin(w * t)

    def with_data(self, data, name: str) -> "Instance":
        return Instance(name, self.family, self.groups, self.mults, tuple(data),
                        self.forcing, self.t_end, self.samples, self.grid_n)


def _centers(rng, count: int) -> np.ndarray:
    # Group centres at least ~0.45 apart keep operator differences injective
    # and the confluent systems well conditioned.
    centers = np.linspace(-2.0, 0.3, max(count, 2))[:count].copy()
    rng.shuffle(centers)
    return centers


def _forcing(rng, draw_vector) -> tuple:
    c0, c1, c2 = (draw_vector() for _ in range(3))
    if rng.integers(0, 2) == 0:
        return ("poly", c0, c1, c2, 0.0)
    return ("trig", c0, c1, c2, float(rng.uniform(0.5, 2.0)))


def spectral(rng, name, dim, mults, samples, t_end, forced) -> Instance:
    n = sum(mults)
    centers = _centers(rng, len(mults))
    groups = tuple(c + 0.12 * rng.uniform(-1.0, 1.0, dim) for c in centers)
    data = tuple(rng.standard_normal(dim) for _ in range(n))
    forcing = _forcing(rng, lambda: rng.standard_normal(dim)) if forced else None
    return Instance(name, "spectral", groups, mults, data, forcing, t_end, samples)


def dense_hermitian(rng, name, dim, mults, samples, t_end, forced) -> Instance:
    """Symmetric generators sharing one random orthogonal eigenbasis."""
    n = sum(mults)
    centers = _centers(rng, len(mults))
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    groups = []
    for c in centers:
        mat = q @ np.diag(c + 0.12 * rng.uniform(-1.0, 1.0, dim)) @ q.T
        groups.append(0.5 * (mat + mat.T))
    data = tuple(rng.standard_normal(dim) for _ in range(n))
    forcing = _forcing(rng, lambda: rng.standard_normal(dim)) if forced else None
    return Instance(name, "dense", tuple(groups), mults, data, forcing, t_end, samples)


def dense_polynomial(rng, name, dim, mults, samples, t_end, forced) -> Instance:
    """Non-Hermitian commuting generators: low-degree polynomials in one matrix.

    ``M`` is a random matrix with spectral radius about 0.3, so the group
    differences ``p_i(M) - p_j(M)`` have spectra near the (>= 0.45 apart)
    centre gaps and stay well conditioned.
    """
    n = sum(mults)
    centers = _centers(rng, len(mults))
    m = 0.3 * rng.standard_normal((dim, dim)) / np.sqrt(dim)
    eye = np.eye(dim)
    groups = tuple(
        c * eye + rng.uniform(0.5, 1.0) * m + rng.uniform(-0.2, 0.2) * (m @ m)
        for c in centers
    )
    data = tuple(rng.standard_normal(dim) for _ in range(n))
    forcing = _forcing(rng, lambda: rng.standard_normal(dim)) if forced else None
    return Instance(name, "dense", groups, mults, data, forcing, t_end, samples)


def zero_mean_profile(rng, points: int, modes: int = 6) -> np.ndarray:
    """Real periodic profile on ``points`` samples with Fourier modes 1..modes.

    Two distinct periodic speeds coincide on the constant mode and on the
    dropped Nyquist mode, so data there would make the coefficient solve
    singular by design; these profiles carry nothing on either.
    """
    x = 2.0 * np.pi * np.arange(points) / points
    out = np.zeros(points)
    for k in range(1, modes + 1):
        a, b = rng.standard_normal(2) / k
        out += a * np.cos(k * x) + b * np.sin(k * x)
    return out


def translation(rng, name, points, mults, samples, t_end, forced) -> Instance:
    """Two periodic speeds on ``[0, 2 pi)`` with multiplicities ``mults``."""
    if len(mults) != 2:
        raise ValueError("translation instances have exactly two distinct speeds")
    n = sum(mults)
    slow = float(rng.uniform(0.4, 0.8))
    speeds = (slow, slow + float(rng.uniform(0.5, 1.0)))
    data = tuple(zero_mean_profile(rng, points) for _ in range(n))
    forcing = _forcing(rng, lambda: zero_mean_profile(rng, points, 3)) if forced else None
    return Instance(name, "translation", speeds, mults, data, forcing, t_end, samples, points)


GENERATORS = {
    "spectral": spectral,
    "dense-hermitian": dense_hermitian,
    "dense-polynomial": dense_polynomial,
    "translation": translation,
}
