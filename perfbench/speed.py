"""Host speed probe, run inside the child between the program's own steps.

The benchmark runs on a few cores of a shared host whose speed drifts by
tens of percent within seconds and minutes, separately on each core. A fixed
kernel, timed every ``INTERVAL_S`` on the core the child runs on, tracks
the child's slow-down: per repetition, the child's wall time and the mean
probe time over it correlated 0.83 to 0.97 on the three workloads, and
dividing one by the other cut the repetition-to-repetition spread of
sample-bump-l6 from 13 % to 3 % (converge-const-l8 11 % to 6 %,
covariance-step-l8 9 % to 4.5 %). The kernel is an interpreter loop and a
Bessel evaluation, the kinds of work the varmatern pipelines do; it uses only
Python and scipy, never the program under test, so a change to the program
cannot move it, and its arrays are small enough to leave the program's
cached data in place.

The probe runs from a SIGALRM handler, so it waits for the call the program
is in to return to the interpreter; each probe is recorded as
``(start, duration)`` with ``time.perf_counter``.
"""

from __future__ import annotations

import signal
import time

import numpy as np
import scipy.special

__all__ = ["REF_PROBE_S", "INTERVAL_S", "Probe", "scaled_time"]

# Median probe time on a 2-vCPU Xeon at 2.1 GHz: times are scaled to the
# host speed at which one probe takes this long.
REF_PROBE_S = 0.0028
INTERVAL_S = 0.1  # one probe of about 3 ms per interval, 3 % of the child's time


class Probe:
    """Times a fixed kernel every ``INTERVAL_S`` while started."""

    def __init__(self):
        self._x = np.linspace(0.05, 12.0, 3000)
        self.records = []

    def once(self, *_):
        t0 = time.perf_counter()
        s = 0
        for i in range(20_000):
            s += i * i
        scipy.special.kv(0.3, self._x)
        self.records.append((t0, time.perf_counter() - t0))

    def start(self):
        """Probe once now, then on every timer tick."""
        self.once()
        signal.signal(signal.SIGALRM, self.once)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)


def scaled_time(probes, start, end):
    """Time of [start, end] without its probes, at the reference host speed.

    Returns ``(unscaled, factor)``: the interval's length less the probes
    that started in it, and the mean duration of those probes over
    ``REF_PROBE_S``; without such probes, the nearest probe sets the factor.
    The scaled time is ``unscaled / factor``. ``factor`` is None without probes.
    """
    inside = [d for t, d in probes if start <= t <= end]
    unscaled = end - start - sum(inside)
    if not inside and probes:
        mid = 0.5 * (start + end)
        inside = [min(probes, key=lambda p: abs(p[0] - mid))[1]]
    if not inside:
        return unscaled, None
    return unscaled, sum(inside) / len(inside) / REF_PROBE_S
