"""Host-speed probe: scales measured times to a nominal host speed.

The benchmark runs on shared virtual machines whose speed drifts within
seconds while the guest sees CPU time equal to wall time.  On a 2-vCPU VM
the 3 s median of one fixed 5x5 radius-1 defect ranged from 24 to 43 ms
within 90 s, and a half-length run of the probe below from 0.67 to
1.27 ms alongside it; the quartile spread of their ratio was 7%, against
36% for the defect alone.

So the loop runs the probe before every op, outside the op's timing, and
each time it reports is divided by the host's slowdown around that op: the
median probe time over the ops within WINDOW of it, over PROBE_NOMINAL_S.
A change to folnerlab moves the scaled times by the same share as the raw
ones, because the probe runs no folnerlab code.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

PROBE_ITERATIONS = 6000
# The probe's time on a quiet 2-vCPU Xeon VM with Python 3.11; it only sets
# the scale, so scaled times read as that machine's times.
PROBE_NOMINAL_S = 0.0013
WINDOW = 4


def probe() -> float:
    """Seconds taken by a fixed piece of pure-Python work: dict updates on
    tuple keys and Fraction arithmetic, the interpreter work folnerlab does."""
    start = time.perf_counter()
    counts: dict[tuple[int, int], int] = {}
    total = Fraction(0)
    for i in range(PROBE_ITERATIONS):
        key = (i % 17, i % 13)
        counts[key] = counts.get(key, 0) + 1
        if i % 50 == 0:
            total += Fraction(i, 7)
    return time.perf_counter() - start


def slowdowns(probes: list[float]) -> list[float]:
    """The host's slowdown at each op, from the probes run before the ops."""
    return [
        statistics.median(probes[max(0, i - WINDOW): i + WINDOW + 1]) / PROBE_NOMINAL_S
        for i in range(len(probes))
    ]
