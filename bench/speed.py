"""Machine speed, sampled while a run measures, to take it out of the timings.

On a shared virtual machine the same pure-Python work runs up to 1.5x
faster or slower from one second to the next, in CPU time as much as in
wall time, and a 40-second run does not average that out.  So the untraced
run samples the machine's speed the whole time it measures: every
``PERIOD_S`` of wall time a SIGALRM handler runs a fixed kernel and times
it.  The handler runs in the benchmark's own thread between bytecodes, so
no thread or process is added.  The kernel builds tuples, dicts and
frozensets, the kind of work orbsemi does, with the garbage collector off,
so that a program's own collector settings do not change it.

``Probe.scale(t0, t1)`` is ``REF_S`` over the kernel's mean time from
``WINDOW_S`` before ``t0`` to ``WINDOW_S`` after ``t1``.  The benchmark
multiplies the time of each operation and each set-up round by the scale
around it, which gives seconds on a machine whose kernel takes ``REF_S``.
The kernel's own time is taken out of every interval it interrupts;
``paused()`` gives the wall and CPU time it took so far.  A change to
orbsemi does not change the kernel, so it moves the scaled timings as it
moves the raw ones.  Without samples (a traced run) the scale is 1.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from bisect import bisect_left, bisect_right

PERIOD_S = 0.05
#: the speed changes over about a second, so a sample this near counts
WINDOW_S = 0.5
#: the kernel's mean time on the 2-vCPU machine the bounds were set on
REF_S = 0.002


def kernel():
    table = {}
    for i in range(3500):
        t = (i % 97, i % 89, i % 83)
        table[t] = frozenset(t)
    return len(table)


class Probe:
    def __init__(self):
        self.at = []  # start of each sample
        self.samples = []  # the kernel's time in each sample
        self.wall = 0.0
        self.cpu = 0.0

    def _sample(self, signum, frame):
        was_enabled = gc.isenabled()
        gc.disable()
        c0, t0 = time.process_time(), time.perf_counter()
        kernel()
        dt = time.perf_counter() - t0
        self.cpu += time.process_time() - c0
        self.wall += dt
        self.at.append(t0)
        self.samples.append(dt)
        if was_enabled:
            gc.enable()

    def start(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def paused(self):
        """Wall and CPU seconds the kernel has taken so far."""
        return self.wall, self.cpu

    def scale(self, t0, t1) -> float:
        lo = bisect_left(self.at, t0 - WINDOW_S)
        hi = bisect_right(self.at, t1 + WINDOW_S)
        near = self.samples[lo:hi] or self.samples
        return REF_S / statistics.mean(near) if near else 1.0
