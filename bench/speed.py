"""Reference kernel that scales end-to-end times to a nominal machine speed.

The benchmark machine shares its cores with other tenants. Its speed drifts
by 15-25% over minutes, which is longer than a run. So raw times of the same
work differ from run to run by more than any useful regression bound. A
fixed kernel owned by the benchmark is timed right before and right after
each timed interval, and the interval is scaled by ``REFERENCE_S`` over the
mean of the two kernel times: seconds at the nominal speed, at which the
kernel takes ``REFERENCE_S``.  Raw times are printed beside the scaled ones.

The kernel mixes the three kinds of work the workloads do: an interpreted
integer loop, scattered reads from a list larger than the caches with float
math and dict stores, and a numpy sort.  On identical inputs it cut the
run-to-run spread of ``montecarlo`` from 10% (raw) to about 2.5%; the
integer loop alone reached 5%.
"""

from __future__ import annotations

import math
import time

import numpy as np

# Kernel time at the nominal speed: its median on a 2-vCPU Intel Xeon virtual
# machine with Python 3.11 and numpy 2.4.
REFERENCE_S = 0.010

_LIST = [float(i) for i in range(300_000)]
_ARRAY = np.random.default_rng(0).random(250_000)


def kernel_s() -> float:
    """Wall time of the fixed reference kernel (about 10 ms)."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(60_000):
        acc += (i * i) % 7
    total = 0.0
    table = {}
    for i in range(8_000):
        x = _LIST[(i * 7919) % 300_000]
        total += math.log(x + 1.0)
        table[i & 4095] = total
    np.cumsum(np.sort(_ARRAY))
    return time.perf_counter() - t0


def scaled(elapsed: float, before: float, after: float) -> float:
    """``elapsed`` in seconds at the nominal speed."""
    return elapsed * REFERENCE_S / (0.5 * (before + after))
