"""Host speed probe: a fixed reference kernel timed at intervals during a run.

On a shared host the speed of this process's CPU varies by a quarter from
second to second with other tenants' load, and pass times vary with it.  A
``SpeedProbe`` runs a short pure-Python kernel on a SIGALRM timer every
INTERVAL_S seconds, in the main thread between bytecodes, and keeps its
times.  The time the probe itself takes is subtracted from every operation
it interrupts.  ``scale()`` converts seconds measured while a given set of
samples was taken into seconds at the nominal speed, at which one kernel
run takes NOMINAL_KERNEL_S.  The kernel (Gibbs-style scoring over small
lists and dicts) resembles the package's hot loops.
"""

from __future__ import annotations

import gc
import math
import random
import signal
import statistics
import time

INTERVAL_S = 0.3
# Kernel time on the 2-vCPU Xeon host the benchmark was calibrated on.
NOMINAL_KERNEL_S = 0.020


def kernel() -> float:
    """Score candidates, sample one by exponential weights, update counts."""
    rng = random.Random(5)
    lam = [rng.random() for _ in range(64)]
    load = [0] * 64
    row: dict[int, int] = {}
    total = 0.0
    for _ in range(1500):
        cands = [y for y in range(0, 64, 3) if load[y] < 50]
        utils = [lam[y] - load[y] / 50 + 0.45 * row.get(y, 0) for y in cands]
        top = max(utils)
        weights = [math.exp(u - top) for u in utils]
        r = rng.random() * sum(weights)
        for y, w in zip(cands, weights):
            r -= w
            if r < 0:
                break
        load[y] = (load[y] + 1) % 50
        row[y] = row.get(y, 0) + 1
        if len(row) > 20:
            row.clear()
        total += top
    return total



class SpeedProbe:
    """Times ``kernel()`` every INTERVAL_S seconds inside its ``with`` block."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.busy = 0.0  # total seconds spent inside the probe
        self._previous = None

    def _fire(self, signum, frame) -> None:
        # Without the collector, the kernel's time does not depend on how
        # many objects the interrupted program holds.
        collecting = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        kernel()
        elapsed = time.perf_counter() - start
        if collecting:
            gc.enable()
        self.samples.append(elapsed)
        self.busy += elapsed
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)  # re-armed after, never nested

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._fire)
        self._fire(signal.SIGALRM, None)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def scale(self, seconds: float, samples: list[float] | None = None) -> float:
        """Seconds at the nominal speed, from the mean time of ``samples``
        (by default every sample taken so far)."""
        return seconds * NOMINAL_KERNEL_S / statistics.fmean(samples or self.samples)
