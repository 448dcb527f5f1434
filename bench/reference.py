"""A fixed piece of work that times the host, not the program.

The shared host the benchmark was built on changes speed: for tens of
seconds to minutes at a time, everything, this work included, takes up to
1.5 times as long.  Each command's time is divided by the time of this
work sampled just before and after it, which cancels that.  The work
mixes what the benchmark's commands spend their time on: scalar ``math``
in interpreted loops, and numpy calls on 3-vectors.  It uses nothing from
``spheretile``, so no change to the package moves it.
"""

import gc
import math
import time

import numpy as np

# About the reference work's time on the host the benchmark was built on
# (a shared 2-vCPU Intel Xeon VM, Python 3.11.7, numpy 2.4.6) at its full
# speed; it turns the ratios back into seconds.
NOMINAL_S = 0.014

_VECTORS = [np.array([math.sin(i), math.cos(i), math.sin(2.0 * i)]) for i in range(60)]


def _work() -> float:
    total = 0.0
    for i in range(12000):
        x = math.sin(i * 0.001) * math.cos(i * 0.002)
        total += abs(x) ** 0.5
    for a in _VECTORS:
        for b in _VECTORS[::3]:
            if float(np.dot(a, b)) > 0.0:
                total += float(np.dot(np.cross(a, b), a))
    return total


def sample() -> float:
    """Time one run of the reference work, in seconds.

    The garbage collector is off meanwhile: a collection would walk every
    object the package keeps alive, and so make the reference depend on it.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _work()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()
