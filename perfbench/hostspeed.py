"""Host-speed sampling for the benchmark's timings.

The benchmark runs on shared hosts whose speed changes while an op runs:
on a shared 2-vCPU Intel Xeon virtual machine, a fixed pure-Python loop
switched between a fast and a 1.4-1.6 times slower state every tenth of
a second to every few seconds, and one 1.5 s scan took between 1.4 and
2.3 s in consecutive calls.  Reference timings taken between ops miss
what happens during a long op, so the benchmark samples the host's speed
during the op itself.

While the sampler runs, a wall-clock interval timer (SIGALRM, every
``INTERVAL_S``) interrupts the benchmark's own thread and times a short
pure-Python reference kernel there.  An op's *nominal seconds* are its
raw seconds, less the kernel's own time, times the mean of
``REF_NOMINAL_S / sample`` over the samples taken during the op: the
integral of the host's speed over the op's duration.  Short ops that
hold fewer than ``MIN_SAMPLES`` samples use the most recent
``MIN_SAMPLES``.  A nominal second is a second on a host where the
kernel takes ``REF_NOMINAL_S``.  The kernel calls nothing of the
library, so a change to the library moves raw and nominal seconds alike.
"""

from __future__ import annotations

import signal
import statistics
import time

REF_NOMINAL_S = 0.25e-3  # about the kernel's duration in that host's fast state
KERNEL_STEPS = 360
INTERVAL_S = 0.01
MIN_SAMPLES = 8


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int):
        self.a = a
        self.b = b


def _mix(x: int, y: int) -> int:
    return (x * 5 + y) & 1023


def _kernel() -> int:
    # The kind of work the library does: objects, calls, tuples, hashing,
    # dicts and frozensets.  Across the host's states its slowdown matched
    # that of a lattice build and a scan (log-log slope 0.9-1.0); a plain
    # integer loop's slowdown was two thirds of theirs in log terms.
    acc = 0
    rows = []
    counts = {}
    for i in range(KERNEL_STEPS):
        pair = _Pair(i, acc)
        row = (pair.a, pair.b & 63, i & 7)
        rows.append(row)
        acc = _mix(acc, hash(row) & 4095)
        counts[row[1]] = counts.get(row[1], 0) + 1
        if i & 15 == 0:
            acc ^= len(frozenset(r[1] for r in rows[-16:]))
    return acc + len(counts)


def speed(samples: list[float]) -> float:
    """Nominal seconds per raw second, given kernel durations sampled
    evenly in time."""
    return statistics.fmean(REF_NOMINAL_S / s for s in samples)


class Sampler:
    """Kernel durations sampled every INTERVAL_S of wall time while running."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent_s = 0.0  # time spent in the kernel and its handler
        self.busy = False

    def _sample(self, *_):
        if self.busy:  # a tick that fell inside the previous one
            return
        self.busy = True
        start = time.perf_counter()
        _kernel()
        self.samples.append(time.perf_counter() - start)
        self.spent_s += time.perf_counter() - start
        self.busy = False

    def start(self):
        for _ in range(MIN_SAMPLES):  # so that the first op has a recent history
            self._sample()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def __enter__(self):
        self.start()
        return self

    def __exit__(self, *_):
        self.stop()

    def clock(self) -> tuple[float, int, float]:
        """A mark to pass to elapsed() at the end of the timed stretch."""
        return time.perf_counter(), len(self.samples), self.spent_s

    def elapsed(self, mark) -> tuple[float, float]:
        """Raw and nominal seconds since ``mark``, the kernel's time left
        out.  Without samples, nominal seconds equal raw seconds."""
        end = time.perf_counter()
        start, first, spent_s = mark
        raw_s = end - start - (self.spent_s - spent_s)
        window = self.samples[min(first, len(self.samples) - MIN_SAMPLES):]
        return raw_s, raw_s * speed(window) if window else raw_s


SAMPLER = Sampler()
