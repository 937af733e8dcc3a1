"""Sampled solution container shared by the solvers and the oracle."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np


@dataclass
class SolutionTrace:
    """Solution samples ``values[i] = u(times[i])`` plus run diagnostics.

    ``times`` must be strictly increasing.  ``diagnostics`` holds optional
    per-run records under documented keys:

    - ``coefficient_residual``: residual of the coefficient solve; every
      closed-form trace carries it, zero-initial-data ones included;
    - ``richardson_rel_dev`` and ``quadrature``: the panel-doubling check and
      the rule settings, on every forced closed-form trace;
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
        self.times = np.asarray(self.times, dtype=np.float64)
        self.values = np.asarray(self.values)
        if self.times.ndim != 1:
            raise ValueError("times must be 1-D")
        if self.values.ndim != 2 or self.values.shape[0] != self.times.shape[0]:
            raise ValueError(
                f"values shape {self.values.shape} does not match {self.times.shape[0]} samples"
            )
        if self.times.size > 1 and not np.all(np.diff(self.times) > 0):
            raise ValueError("times must be strictly increasing")

    @property
    def dim(self) -> int:
        return self.values.shape[1]

    def __len__(self) -> int:
        return self.times.shape[0]
