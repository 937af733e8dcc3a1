"""Host-speed reference: a fixed kernel that does not use the library.

The benchmark's host is shared.  Its neighbours slow a process down while
it runs, by up to 1.7x, in stretches from seconds to minutes.  The worker
times this kernel between ops, outside the timed region, and scales every
op time by ``REFERENCE_S`` over the kernel time at that moment.  The
kernel does the kind of work the library does (Python glue around many
small numpy and scipy calls), so the neighbours slow it about as much as
they slow an op.  It never calls the library, so a change to the library
cannot move it; a change that claims a gain must not edit this file.

``REFERENCE_S`` is about the kernel's time on a 2-core x86-64 Xeon host at
2.0 GHz while its neighbours are idle, so scaled times read as wall times
on that host then.
"""

from __future__ import annotations

import time

import numpy as np
import scipy.linalg

REFERENCE_S = 0.005
_ROUNDS = 50

_rng = np.random.default_rng(20071)
_vector = _rng.standard_normal(256)
_modes = -np.abs(_rng.standard_normal(256)) + 1j * np.arange(256)
_small = 0.3 * _rng.standard_normal((8, 8)) / np.sqrt(8)
_medium = _rng.standard_normal((16, 16)) / 4.0
_wide = _rng.standard_normal((128, 128)) / 12.0


def kernel() -> float:
    """One run of the reference work; returns a checksum."""
    total = 0.0
    for r in range(_ROUNDS):
        t = 0.01 * (r + 1)
        state = {"t": t, "terms": []}
        for k in range(8):
            state["terms"].append(np.exp(t * k * _vector[:32]))
        grow = np.exp(t * _vector)
        phases = np.fft.ifft(np.exp(_modes * t) * np.fft.fft(grow)).real
        total += float(phases[0]) + sum(float(term[1]) for term in state["terms"])
        total += float((scipy.linalg.expm(t * _small) @ _vector[:8])[0])
        total += float(np.linalg.solve(np.eye(16) - t * _medium, _vector[:16])[0])
        total += float((_wide @ _vector[:128])[0])
    return total


def measure() -> float:
    """Wall time of one kernel run, in seconds."""
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0
