"""Machine-speed calibration for the timed metrics.

On a shared machine the speed of a CPU drifts by tens of percent over
minutes, as other tenants load the host, and a run's median wall time
drifts with it.  ``calibrate`` times a fixed pure-Python loop that does not
touch pollsys.  Timed just before and just after each operation, it
measures how fast the machine ran meanwhile, and ``to_reference`` rescales
the operation's measured time to "reference seconds": the time on a machine
on which the loop takes ``REFERENCE_S``.  A program that gets 10% slower
reads 10% slower either way; the machine's drift mostly cancels.
"""

import time

LOOP = 1_000_000
REFERENCE_S = 0.15  # the loop's usual time on a 2-vCPU Xeon VM under Python 3.11


def calibrate() -> float:
    """Wall time of the fixed calibration loop, in seconds."""
    t0 = time.perf_counter()
    total = 0.0
    table = {}
    for i in range(LOOP):
        total += (i * 0.5) % 7.0
        table[i & 255] = total
    return time.perf_counter() - t0


def to_reference(measured_s: float, before_s: float, after_s: float) -> float:
    """``measured_s`` rescaled by the calibration times around it, in reference seconds."""
    return measured_s * REFERENCE_S / ((before_s + after_s) / 2)
