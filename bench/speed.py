"""Speed probe of the machine, for times in reference seconds.

The benchmark is meant for a shared virtual machine. There the speed of a
core flips between two states, several seconds at a time, as other tenants
load and release the physical core: a fixed Python loop takes about 8 ms in
one state and 12 ms in the other. Over a 30-s run the share of slow time
varies so much that raw pass times of the interpreter-bound ``verify``
workload spread by 20-30% from run to run.

The probe is a fixed piece of work that shares nothing with ``fperturb``:
an interpreter loop, small-array numpy calls, a BLAS product and longdouble
arithmetic, the mix of the benchmark's items. The runner calls it between
items and divides each item's time by the mean of the probes on either side,
then multiplies by ``REFERENCE_S``. A slower ``fperturb`` still reads slower,
since the probe does not change; a slower machine state cancels out.
"""

from __future__ import annotations

import time

import numpy as np

#: time of one probe() on the baseline machine (2-core shared VM, Python
#: 3.11, numpy 2.4 with one OpenBLAS thread) in its fast state; a time in
#: reference seconds equals wall seconds when the machine runs in that state
REFERENCE_S = 0.0102

_rng = np.random.default_rng(0)
_SMALL = _rng.standard_normal((10, 10))
_BLOCK = _rng.standard_normal((200, 200))
_LONG = _SMALL.astype(np.longdouble)


def probe() -> float:
    """Run the fixed probe once and return its wall time in seconds."""
    t0 = time.perf_counter()
    total = 0
    for i in range(60_000):
        total += i * i
    x = _SMALL
    for _ in range(600):
        x = np.abs(x) @ _SMALL * 0.1 + _SMALL.sum(axis=0)
    for _ in range(4):
        _BLOCK @ _BLOCK
    y = _LONG
    for _ in range(150):
        y = np.abs(y) @ _LONG * 0.1
    return time.perf_counter() - t0


def reference_seconds(seconds: float, before: float, after: float) -> float:
    """``seconds`` of work timed between two probes, in reference seconds."""
    return seconds * REFERENCE_S * 2.0 / (before + after)
