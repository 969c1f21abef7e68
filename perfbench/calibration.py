"""A fixed workload that measures how fast the machine is running right now.

The benchmark's machine is a shared virtual machine whose speed drifts by
a third and more over minutes, all job kinds together.  run.py takes one
sample of this workload after every job and scales the run's times by
REFERENCE_S / (median sample), so that a run made while the machine is
slow reads like one made while it is fast.  The workload mixes the kinds
of work the package does: a harmonic sum of complex exponentials, a
trapezoid over an array larger than the caches, a loop of small numpy
calls and plain Python arithmetic.  It imports nothing from talbot_sim,
so no change to the package moves it.
"""

from __future__ import annotations

import time

import numpy as np

# Median sample on the 2-core VM the seed baseline was measured on, in its
# fast state.  Fixed: changing it rescales every time metric.
REFERENCE_S = 0.05

_XS = np.linspace(-1.0, 1.0, 2048)
_ORDERS = np.arange(-40, 41)
_GRID = np.linspace(0.0, 1.0, 1_000_000)
_SMALL = np.arange(256.0)


def sample() -> float:
    """Wall seconds of one pass of the fixed workload."""
    start = time.perf_counter()
    psi = np.exp(3j * np.multiply.outer(_XS, _ORDERS)) @ np.ones(_ORDERS.size)
    total = float(np.abs(psi).sum())
    total += float(np.trapezoid(np.sin(7.0 * _GRID), _GRID))
    for shift in range(768):
        total += float(np.roll(_SMALL, shift)[0])
    acc = 0
    for i in range(100_000):
        acc += i * i
    return time.perf_counter() - start
