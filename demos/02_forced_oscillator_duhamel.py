"""Forced second-order equation via convolution weights.

u'' - u = 1 with u(0) = 1, u'(0) = 0 factors as
(d/dt - 1)(d/dt + 1) u = 1 and has the classical solution
u(t) = 2 cosh(t) - 1: cosh(t) from the initial data plus (cosh(t) - 1)
from variation of parameters.  The solver builds both parts separately,
so superposition is exact by construction.
"""

import numpy as np

from factored_evolution import (
    FactoredEquation,
    Forcing,
    SpectralDiagonalOperator,
    build_confluent_matrix,
    solve_coefficients,
    solve_full,
    solve_homogeneous,
    solve_inhomogeneous_zero_ic,
    solve_z_vector,
)

a = SpectralDiagonalOperator("a", [1.0])
b = SpectralDiagonalOperator("b", [-1.0])
forcing = Forcing(lambda t: np.ones(1))
eq = FactoredEquation((a, b), (np.array([1.0]), np.array([0.0])), forcing)

matrix = build_confluent_matrix(eq.grouped)
y = solve_coefficients(matrix, eq.initial_data)
print("coefficient vectors y:", [float(v[0]) for v in y], "(cosh t = e^t/2 + e^-t/2)")

z = solve_z_vector(matrix)
print("forcing weights applied to 1:", [float(v[0]) for v in z.apply_all(np.ones(1))])

t_grid = np.linspace(0.0, 2.0, 9)
full = solve_full(eq, t_grid)
hom = solve_homogeneous(eq.without_forcing(), t_grid)
conv = solve_inhomogeneous_zero_ic(eq.with_zero_initial_data(), t_grid)

print(f"\nsuperposition defect: {np.max(np.abs(full.values - hom.values - conv.values)):.1e}")
print(f"Gauss-Kronrod quadrature check: {conv.diagnostics['richardson_rel_dev']:.2e}")

expected = 2.0 * np.cosh(t_grid) - 1.0
print(f"max deviation from 2 cosh(t) - 1: {np.max(np.abs(full.values[:, 0] - expected)):.2e}")

print("\n   t     homogeneous   convolution   total      2cosh(t)-1")
for i, t in enumerate(t_grid):
    print(
        f"  {t:4.2f}   {hom.values[i, 0]: .6f}    {conv.values[i, 0]: .6f}    "
        f"{full.values[i, 0]: .6f}  {expected[i]: .6f}"
    )
