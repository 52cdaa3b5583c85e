"""Machine speed, read from a fixed reference computation.

The benchmark runs on shared hosts whose speed drifts by a fifth or more
over seconds to minutes (other tenants on the same cores and caches).  The
drift slows every computation on the core alike, so the benchmark times a
fixed pure-Python computation -- Fraction arithmetic and dict updates, the
same kind of work as the package's Scalar arithmetic -- next to the
package's calls and scales each measured time by ``NOMINAL_S / reading``:
the time the call would have taken at the speed the host had when the
constant was taken.  A change to the package moves the calls and not the
reference, so it still shows in full; a host that runs everything a fifth
slower for a while no longer does.

``NOMINAL_S`` is a typical reading on a 2-vCPU Intel Xeon VM under
Python 3.11.7, where readings ranged from about 6.5 to 15 ms as the host's
speed drifted.  It only fixes the scale of the reported times; the raw,
unscaled figures are printed beside them.
"""

from __future__ import annotations

import gc
import statistics
import time
from fractions import Fraction

NOMINAL_S = 0.0105
REPS = 6


def _reference_work() -> Fraction:
    total = Fraction(0)
    table: dict[int, int] = {}
    for i in range(1, 400):
        total += Fraction(i % 7 - 3, i % 5 + 1)
        table[i % 13] = table.get(i % 13, 0) + i * i
    return total


def read() -> float:
    """Seconds for one fixed portion of reference work.  The collector is
    off meanwhile, so that the reading does not depend on the size of the
    caller's heap."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        for _ in range(REPS):
            _reference_work()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def factor(readings: list[float]) -> float:
    """The scale that takes a time measured next to ``readings`` to the
    nominal speed."""
    return NOMINAL_S / statistics.fmean(readings)
