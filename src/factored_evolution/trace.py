"""Sampled solution container shared by the solvers and the oracle."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .errors import InvalidInputError
from .statespace import as_time_grid


@dataclass
class SolutionTrace:
    """Solution samples ``values[i] = u(times[i])`` plus run diagnostics.

    ``times`` is a grid :func:`statespace.as_time_grid` takes, as the
    solvers' are, with one row of ``values`` per time.  ``diagnostics``
    holds optional per-run records under documented keys:

    - ``coefficient_residual``: residual ``max_r ||(M y)_r - x_r||_inf`` of
      the coefficient solve, with ``M`` walked on ``y`` in the basis it was
      solved in and the residual measured on the grid; every closed-form
      trace carries it, zero-initial-data ones included;
    - ``richardson_rel_dev`` and ``quadrature``: the quadrature error gate's
      reading, ``max |G - K| / max |K|`` over the forced part's Gauss sums
      ``G`` and the Kronrod sums ``K`` of the same pass, and the rule
      settings, on every forced closed-form trace;
    - ``oracle_dev`` and ``oracle_rel_dev``: deviation from the companion
      oracle, added by :func:`compare_with_oracle`;
    - ``oracle_steps_per_unit``: step density, on oracle traces.

    The PDE examples add their own closed-form checks, such as
    ``closed_form_dev`` and ``boundary_max``.
    """

    times: np.ndarray
    values: np.ndarray
    diagnostics: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        self.times = as_time_grid(self.times, "times")
        self.values = np.asarray(self.values)
        if self.values.ndim != 2 or self.values.shape[0] != self.times.shape[0]:
            raise InvalidInputError(
                f"values shape {self.values.shape} does not match {self.times.shape[0]} samples"
            )

    @property
    def dim(self) -> int:
        return self.values.shape[1]

    def __len__(self) -> int:
        return self.times.shape[0]
