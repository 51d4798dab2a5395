"""A fixed reference computation that tracks the host's momentary speed.

On a shared host the same code can run 20-120% slower for seconds to
minutes at a time. On a shared 2-core x86-64 VM with Python 3.11.7,
the quartile spread of raw times over ten seeded runs was 16% to
32% per workload. Scaling each operation's time by REFERENCE_S over the
mean probe time around it brought that to 3-5%, so the benchmark reports
every time as seconds at reference speed. The probe uses only the
standard library, so no change to the code under test can move it.
"""

import gc
import time
from fractions import Fraction

# Probe seconds at reference speed, about the fast phase of the host above.
REFERENCE_S = 0.005


def probe() -> float:
    """Seconds one run of the reference loop takes now. The garbage
    collector stays off meanwhile, so the probe never pays for a
    collection of the program's objects."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        total = Fraction(0)
        for i in range(1, 1500):
            total += Fraction(1, i)
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def factor(probes: list[float]) -> float:
    """Scale for a time measured while these probe times were taken."""
    return REFERENCE_S * len(probes) / sum(probes)
