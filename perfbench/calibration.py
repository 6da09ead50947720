"""Machine-speed calibration for the timed metrics.

On the shared 2-core VM this benchmark was built on, the same code runs in
speed states up to about 1.8 times apart that switch every few seconds, and
the mix drifts over minutes, so raw medians of 20-second runs spread by up to
half their median across seeds.  A fixed kernel, timed right before and
after every measured call, tracks that state: it mixes the kinds of work
hydrobench does (``Fraction`` arithmetic, small complex ``eig`` calls, float
formatting) and uses no hydrobench code.  A measured time t is reported as
t * NOMINAL_S / c, with c the median kernel time around it, i.e. in seconds
at the speed where one kernel run takes NOMINAL_S.
"""

from __future__ import annotations

import time
from fractions import Fraction

import numpy as np

#: Kernel time taken as nominal speed (the fast state of the reference VM).
NOMINAL_S = 0.0135
#: Kernel runs per burst.
REPS = 5

_STACK = np.arange(75, dtype=complex).reshape(3, 5, 5) + 1j


def _kernel() -> None:
    total = Fraction(0)
    for i in range(1, 1500):
        total += Fraction(1, i) - Fraction(2, 3 * i)
    for _ in range(40):
        np.linalg.eig(_STACK)
    ",".join(format(i * 0.1, ".17g") for i in range(3000))


def burst() -> list[float]:
    """Times of REPS back-to-back kernel runs."""
    times = []
    for _ in range(REPS):
        start = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - start)
    return times
