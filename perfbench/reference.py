"""A fixed reference kernel that measures how fast the machine is right now.

The end-to-end times are library time divided by the reference kernel's
time, measured while the library runs, times REFERENCE_S: seconds at the
speed the machine has when the kernel takes REFERENCE_S.  On a shared host
the speed of a core drifts by up to 2x within seconds, and the library and
the kernel slow down together; their ratio does not.  The kernel mixes what
the library spends its time on (numpy calls on small complex arrays,
Householder reflections, pure-Python complex arithmetic), and it uses
nothing from ``src/``, so a change to the library cannot change it.
"""

from __future__ import annotations

import bisect
import cmath
import math
import signal
import statistics
from time import perf_counter

import numpy as np

# The kernel's time on an unloaded core of an Intel Xeon vCPU (Python
# 3.11, numpy 2.4); a fixed constant, so results stay comparable across runs.
REFERENCE_S = 0.0025

# Rounds of the kernel: a few milliseconds, so that it can be sampled often.
ROUNDS = 12

# Wall time between two samples of the kernel while a run measures.  The
# machine's speed keeps about half its correlation over 100 ms.
INTERVAL_S = 0.05

_SIZE = 8
_START = np.array([[complex(math.cos(7 * i + 3 * j), math.sin(5 * i - 2 * j))
                    for j in range(_SIZE)] for i in range(_SIZE)])

_paused_s = 0.0  # wall time spent sampling the kernel inside a timed run


def clock():
    """perf_counter() that stands still while the sampler runs the kernel:
    the time a library call took, without the samples taken during it."""
    return perf_counter() - _paused_s


def kernel():
    """ROUNDS rounds of Householder reflections on an 8x8 complex matrix,
    each followed by a Horner-style loop in Python complex arithmetic."""
    a = _START.copy()
    acc = 0j
    for _ in range(ROUNDS):
        for k in range(_SIZE - 1):
            v = a[k:, k].copy()
            v[0] += np.linalg.norm(v)
            v /= np.linalg.norm(v)
            a[k:, :] -= 2.0 * np.outer(v, v.conj() @ a[k:, :])
        z = complex(a[0, 0])
        for _ in range(40):
            w = 1 + 0j
            for t in range(8):
                w = w * z * 0.5 + cmath.exp(1j * t)
            acc += w / (abs(w) + 1)
    if not cmath.isfinite(acc):
        raise ArithmeticError("reference kernel lost its values")
    return acc


def measure():
    """Seconds one run of the kernel takes now."""
    start = perf_counter()
    kernel()
    return perf_counter() - start


def measure_median(repeats=5):
    """The median of a few back-to-back runs of the kernel."""
    return statistics.median(measure() for _ in range(repeats))


class Sampler:
    """Runs the kernel every INTERVAL_S of wall time, from a SIGALRM
    handler, while the block is active.

    The handler runs between two bytecodes of whatever the main thread is
    doing, library calls included, so the samples cover a long call
    uniformly; ``clock`` leaves their time out of the call.  ``scale(start,
    end)`` is REFERENCE_S over the mean kernel time of the samples taken
    within a call, together with the last one before it and the first one
    after it.
    """

    def __init__(self):
        self.stamps = []   # clock() at each sample
        self.seconds = []  # the kernel's time at each sample
        self._busy = False

    def sample(self, *_):
        global _paused_s
        if self._busy:
            return
        self._busy = True
        try:
            entered = perf_counter()
            self.stamps.append(entered - _paused_s)
            self.seconds.append(measure())
            _paused_s += perf_counter() - entered
        finally:
            self._busy = False

    def __enter__(self):
        self.sample()
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self.sample()
        return False

    def scale(self, start, end):
        first = max(bisect.bisect_right(self.stamps, start) - 1, 0)
        last = min(bisect.bisect_left(self.stamps, end), len(self.stamps) - 1)
        return REFERENCE_S / statistics.fmean(self.seconds[first:last + 1])

    def slowdown(self):
        """Median kernel time over REFERENCE_S: how slow the machine was."""
        return statistics.median(self.seconds) / REFERENCE_S
