"""Machine speed, sampled while a pass runs.

The 2-CPU VM this benchmark was tuned on runs identical code at 1.0x to
1.8x its best time, in phases of seconds to minutes, under load from
outside it.  Process CPU time grows with wall time in the slow phases, so
the cause is slower execution, not lost CPU.  Sets of ten runs of the
same code gave pass times whose interquartile range was 0.22 to 0.29 of
their median.

``Speedometer`` times a fixed reference routine, owned by the benchmark
and independent of mbpilab, every ``PERIOD_S`` seconds of a pass from a
SIGALRM handler, and once at each end of the pass.  A pass's time divided
by the mean reference time over that pass is its cost in reference units:
it stays put when the whole machine slows down and moves when mbpilab does
more or less work.  The sampling time is taken out of the task timings.

The routine mixes the lab's two kinds of work: interpreted steps on tiny
numpy arrays (the integrator at batch width 1, the simulator) and wide
vector arithmetic (quadrature batches, series evaluation, inversion).
Machine slowdowns hit the two kinds unequally, and the mix tracked all
three workloads where either kind alone tracked only some of them.  In
reference units, sets of ten runs spread by 0.04 to 0.09 (see
bench/README.md).
"""

from __future__ import annotations

import math
import signal
import time
from contextlib import contextmanager

import numpy as np

PERIOD_S = 0.25

_WIDE_Z = np.exp(1j * np.linspace(0.0, 6.0, 1025))
_WIDE_C = np.linspace(0.0, 1.0, 64)


def reference():
    """Fixed work: 0.5 to 1 ms on the VM, depending on its speed."""
    x = np.zeros(4)
    s = 0.0
    for i in range(150):
        x = x * 0.5 + 1.0
        s += float(x[0]) * 1e-3 + math.sin(i)
    acc = np.zeros_like(_WIDE_Z)
    for c in _WIDE_C:
        acc = acc * _WIDE_Z + c
    return s + acc[0].real


class Speedometer:
    """Reference timings taken while ``running()`` is active."""

    def __init__(self):
        self.samples = []      # wall seconds of each reference() call
        self.spent_wall = 0.0  # wall and main-thread CPU seconds spent
        self.spent_cpu = 0.0   # sampling, to take out of task timings

    def sample(self, signum=None, frame=None):
        wall, cpu = time.perf_counter(), time.thread_time()
        reference()
        wall, cpu = time.perf_counter() - wall, time.thread_time() - cpu
        self.samples.append(wall)
        self.spent_wall += wall
        self.spent_cpu += cpu

    @contextmanager
    def running(self):
        """Sample every PERIOD_S seconds, and once on entry and on exit.
        Yields the index of the first sample of this stretch."""
        first = len(self.samples)
        self.sample()
        previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield first
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            self.sample()
