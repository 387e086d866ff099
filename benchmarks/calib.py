"""The machine's current speed, from a fixed calibration.

The machine is shared, and its speed drifts by up to 2x over seconds and
minutes.  `calibrate` times a fixed piece of plain-Python work:
Gauss-Jordan inverses over Q and F_3, the kind of arithmetic homsuper
spends its time on, with fixed inputs and no homsuper code.  A time t
measured next to a calibration that took c seconds is reported as
t * CAL_REF_S / c: the time on a machine on which the calibration takes
CAL_REF_S (this one takes 0.6-1.4 ms, by load).  A change to homsuper
moves the scaled times as it moves the wall times; the drift cancels out.
"""

from __future__ import annotations

import random
import time

import gen

CAL_REF_S = 1e-3

_RNG = random.Random(0)
_INPUTS = ((None, gen.random_even(None, 3, 3, _RNG, True)),
           (3, gen.random_even(3, 4, 4, _RNG, True)))


def calibrate() -> float:
    """Seconds the calibration takes now."""
    t0 = time.perf_counter()
    for p, m in _INPUTS:
        gen.inverse(p, m)
    return time.perf_counter() - t0
