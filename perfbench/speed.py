"""CPU-speed reference for the end-to-end times.

On a host shared with other tenants, the speed of a core drifts by tens of
percent over tens of seconds as they load it: more than the changes the
benchmark has to resolve, and too slowly for medians within one run to
average out. So while a workload is measured, a timer interrupts it
every ``PERIOD_S`` seconds to time a fixed reference loop (interpreter work
and small NumPy operations, like the program's own). A pass's wall time,
less the time spent in the reference loop, is multiplied by
the pass's mean of ``REFERENCE_S / reference time``: it reads as the
seconds the pass takes on a CPU that runs the reference loop in
``REFERENCE_S``. The raw wall times are printed next to the scaled ones.
"""

import contextlib
import signal
import statistics
from time import perf_counter

import numpy as np

PERIOD_S = 0.05
REFERENCE_S = 1e-3

_REF_A = np.array([[0.0, 1.0], [-2.0, -0.5]])


def reference_loop():
    x = np.array([1.0, 0.5])
    s = 0.0
    for i in range(100):
        x = _REF_A @ x + 0.5 * x
        for j in range(40):
            s += (i * j) % 7 * 0.5
    return s + float(x @ x)


class Speedometer:
    """Reference-loop samples taken on a timer; ``clock`` excludes their time."""

    def __init__(self):
        self.samples = []
        self.spent = 0.0
        self.busy = False

    def clock(self):
        """perf_counter without the time spent in reference loops."""
        return perf_counter() - self.spent

    def sample(self, *_):
        if self.busy:  # the timer fired during a sample taken by hand
            return
        self.busy = True
        t0 = perf_counter()
        reference_loop()
        dt = perf_counter() - t0
        self.samples.append(dt)
        self.spent += dt
        self.busy = False

    @contextlib.contextmanager
    def running(self):
        previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def scale(self, first):
        """Factor for work done since sample index ``first`` (inclusive).

        The samples are evenly spaced in time, so the mean of the per-sample
        speeds weights each stretch of the pass by its length; the fastest
        and slowest tenth are dropped as outliers.
        """
        speeds = sorted(REFERENCE_S / d for d in self.samples[first:])
        cut = len(speeds) // 10
        return statistics.fmean(speeds[cut:len(speeds) - cut])

    def timed(self, fn, *args):
        """Run fn between two reference samples; return (result, wall s, scale)."""
        self.sample()
        first = len(self.samples) - 1
        t0 = self.clock()
        result = fn(*args)
        wall = self.clock() - t0
        self.sample()
        return result, wall, self.scale(first)
