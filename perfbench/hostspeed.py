"""Host-speed correction of the benchmark's timings.

The benchmark runs on shared hosts whose speed drifts by up to 1.6x between
phases that last from seconds to minutes, far more than the changes the
benchmark has to detect. ``HostSpeed`` times a fixed reference computation
between the benchmark's own intervals and scales each interval to the time
it would have taken with the reference at ``NOMINAL_S``: when the host runs
the reference 20% slow, the interval is taken to be 20% slow too.

The reference is exact rational arithmetic, like postlie's own work, on a
private copy of the ``fractions`` module, so nothing postlie does to the
shared one changes it. The garbage collector is off while it runs, so the
size of postlie's heap does not change it either.
"""

from __future__ import annotations

import gc
import importlib.util
import random
import time

NOMINAL_S = 0.010  # about the reference's time on a 2-vCPU Xeon VM


def _private_fraction():
    spec = importlib.util.find_spec("fractions")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Fraction


Fraction = _private_fraction()
_rng = random.Random(0)
_M = [[Fraction(_rng.randint(-9, 9), _rng.randint(1, 4)) for _ in range(6)] for _ in range(6)]


def reference_work():
    """The cube of a fixed 6x6 rational matrix, row-reduced."""
    a = _M
    for _ in range(2):
        a = [[sum((a[i][k] * _M[k][j] for k in range(6)), Fraction(0)) for j in range(6)]
             for i in range(6)]
    for c in range(6):
        p = next((r for r in range(c, 6) if a[r][c]), None)
        if p is None:
            continue
        a[c], a[p] = a[p], a[c]
        a[c] = [x / a[c][c] for x in a[c]]
        for r in range(6):
            if r != c and a[r][c]:
                f = a[r][c]
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return a


REPS = 5  # reference_work calls per sample; about NOMINAL_S in all


def sample() -> float:
    """Seconds the reference takes now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        for _ in range(REPS):
            reference_work()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class HostSpeed:
    """Samples the reference between intervals; ``scale`` converts the
    interval since the previous sample to nominal host speed."""

    def __init__(self):
        self.last = sample()
        self.samples = [self.last]

    def scale(self) -> float:
        """Factor for the interval since the previous call (or creation)."""
        now = sample()
        self.samples.append(now)
        factor = NOMINAL_S / ((self.last + now) / 2)
        self.last = now
        return factor
