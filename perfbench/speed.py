"""Machine-speed probe, so that times taken on a shared host compare.

On a host whose other tenants load the same cores, identical pure-Python
work runs up to 1.5x slower from one second or minute to the next.  Whole
passes of identical code then differ by 20-30% between runs, more than any
regression bound worth having, and repeating work within a run of a minute
does not remove it.

The probe times a fixed stdlib-only kernel (exact ``Fraction`` sums and
dict updates, the same kind of work as the program) before and after each
job and, from a ``SIGALRM`` timer, every ``INTERVAL_S`` during it.  A job's
time in *reference seconds* is its wall time, less the time spent in the
probe, times the mean speed ``REFERENCE_S / kernel time`` over its samples
and ``PAD`` neighbours on each side: the time the job would take on a
machine where the kernel takes ``REFERENCE_S``.  A mean of speeds, not of
kernel times, so that one sample slowed by a page fault or a preemption
moves the estimate by little.  On the host the benchmark was defined on,
the spread (IQR over median) of pass time over sets of ten runs fell from
9-44% raw to 1.4-5.4% in reference seconds.

The kernel never calls qshift, so a change to the program cannot move it.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from fractions import Fraction

# Kernel time on the machine the benchmark was defined on (Intel Xeon,
# 2 vCPUs, CPython 3.11); only ratios to it matter.
REFERENCE_S = 0.0005
INTERVAL_S = 0.025
PAD = 4


def kernel():
    acc = Fraction(0)
    table = {}
    for i in range(1, 100):
        acc += Fraction(i % 7 + 1, i)
        key = (i % 13, i % 17)
        table[key] = table.get(key, 0) + i
    return acc, len(table)


def speed_now():
    """Mean speed (REFERENCE_S over kernel time) of 15 kernel runs."""
    probe = SpeedProbe()
    for _ in range(15):
        probe.sample()
    return statistics.fmean(REFERENCE_S / k for k in probe.samples)


class SpeedProbe:
    """Kernel samples around and during each job of a pass.

    Use as a context manager: it owns the ``SIGALRM`` handler while open.
    ``call`` times one job; ``finish`` turns a pass's times into reference
    seconds.  A job's speed is the mean over its own samples and the
    ``PAD`` samples on either side, so that a job of a few milliseconds,
    which holds no timer sample, is not rescaled by two samples alone.
    """

    def __init__(self):
        self.samples = []
        self.spent = 0.0
        self._previous_handler = None

    def sample(self, *_):
        # a collection of the program's garbage is not machine speed
        collecting = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        kernel()
        elapsed = time.perf_counter() - t0
        if collecting:
            gc.enable()
        self.samples.append(elapsed)
        self.spent += elapsed

    def __enter__(self):
        self._previous_handler = signal.signal(signal.SIGALRM, self.sample)
        self.sample()
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous_handler)
        return False

    def call(self, fn):
        """Run ``fn()``.  Returns ``(error, result, seconds, span)``: the
        exception it raised or None, its result, its wall time less the
        probe's own time, and the indices of its samples for ``finish``."""
        first = len(self.samples) - 1
        spent = self.spent
        error = out = None
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        t0 = time.perf_counter()
        try:
            out = fn()
        except Exception as exc:  # the caller counts it as a failed job
            error = exc
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            elapsed = time.perf_counter() - t0 - (self.spent - spent)
        self.sample()
        return error, out, elapsed, (first, len(self.samples))

    def finish(self, times, spans):
        """The pass's job times in reference seconds."""
        for _ in range(PAD):
            self.sample()
        out = []
        for elapsed, (first, end) in zip(times, spans):
            window = self.samples[max(0, first - PAD):end + PAD]
            out.append(elapsed * statistics.fmean(REFERENCE_S / k for k in window))
        return out
