"""Op times scaled to a nominal machine speed.

The shared VMs this benchmark runs on change speed by 10-25 % over tenths
of a second to minutes: a fixed pure-Python loop, timed back to back for a
minute on a 2-core Xeon VM, ranged from 17.6 to 23.1 ms in 2 s medians.
The package's work slows down with the machine: its word calculus almost
in proportion, its chain enumerations somewhat more.  So a worker samples
a fixed reference loop every ``INTERVAL_S`` of wall time, from a
``SIGALRM`` handler that runs between the program's bytecodes, and scales
each op by ``NOMINAL_S`` over the mean time of the samples taken during
it, or of the ``MIN_SAMPLES`` nearest to it if fewer fell inside.  Sample
time is never counted as op time.  Work that cannot be sampled while it
runs (a process's imports) is scaled by ``calibration_factor``, taken
right after it.

On that VM the machine flips between a fast and a slow state at random,
some 1.6 times apart.  Fifteen runs of one 0.2 s ``chain`` op spread by
0.15 (q3 - q1 over the median) raw and by 0.04 scaled.  Interleaved every
16 wp-stream ops, the reference cut the spread of twenty 3 s throughput
windows from 0.15 to 0.06.  An integer loop tracked the machine better
than a dict-and-tuple one (correlation 0.92 against 0.86), and the mean
of the samples better than their median.

A change to the program moves the scaled times as it moves the raw ones;
the reference loop is not the program's code and no program change moves
it.  The raw figures are printed on the ``info`` line next to the scaled
ones.
"""

from __future__ import annotations

import bisect
import contextlib
import gc
import signal
import time

# typical time of one reference sample on a 2-core x86-64 Xeon VM with
# Python 3.11.7; scaled times read as they would at that speed
NOMINAL_S = 1.0e-3
INTERVAL_S = 0.01
MIN_SAMPLES = 8
CALIBRATION_SAMPLES = 100


def reference_work():
    """A fixed pure-Python integer loop."""
    acc = 0
    for i in range(12500):
        acc += i * i % 7
    return acc


def calibration_factor(samples=CALIBRATION_SAMPLES):
    """NOMINAL_S over the mean time of ``samples`` reference samples taken
    back to back, for work that could not be sampled while it ran."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        for _ in range(samples):
            reference_work()
        total = time.perf_counter() - t0
    finally:
        if collecting:
            gc.enable()
    return NOMINAL_S * samples / total


@contextlib.contextmanager
def _ticks_held():
    """Hold back the sampling signal: a sample taken while an op opens or
    closes would land on the wrong side of its piece boundary."""
    signal.pthread_sigmask(signal.SIG_BLOCK, [signal.SIGALRM])
    try:
        yield
    finally:
        signal.pthread_sigmask(signal.SIG_UNBLOCK, [signal.SIGALRM])


class Meter:
    """Samples the reference loop on a timer while started, and times
    ops as the pieces between samples.  A meter that is never started
    scales nothing: every factor is 1."""

    def __init__(self):
        self.ref_times = []  # when each reference sample ended, in order
        self.ref_s = []  # how long it took
        self.sample_s = 0.0  # time spent sampling
        self.pieces = None  # pieces of the open op
        self.start = None
        self._handler = None
        self._sampling = False

    def begin(self):
        with _ticks_held():
            self.pieces = []
            self.start = time.perf_counter()

    def end(self):
        """Close the op; returns its pieces as (start, end) pairs."""
        with _ticks_held():
            self.pieces.append((self.start, time.perf_counter()))
            pieces, self.pieces = self.pieces, None
        return pieces

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        # the collector stays off so that the program's garbage is not
        # collected, and charged, inside a sample
        collecting = gc.isenabled()
        gc.disable()
        try:
            t = time.perf_counter()
            reference_work()
            t1 = time.perf_counter()
        finally:
            if collecting:
                gc.enable()
        self.ref_times.append(t1)
        self.ref_s.append(t1 - t)
        if self.pieces is not None:
            self.pieces.append((self.start, t0))
            self.start = time.perf_counter()
        self.sample_s += time.perf_counter() - t0

    def start_sampling(self):
        self._handler = signal.signal(signal.SIGALRM, self._tick)
        self._sampling = True
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop_sampling(self):
        if self._sampling:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._handler)
            self._sampling = False

    def factor(self, start, end):
        """NOMINAL_S over the mean time of the samples taken between
        ``start`` and ``end``, widened to the MIN_SAMPLES nearest."""
        times = self.ref_times
        if not times:
            return 1.0
        lo = bisect.bisect_left(times, start)
        hi = bisect.bisect_right(times, end)
        while hi - lo < min(MIN_SAMPLES, len(times)):
            if lo > 0 and (hi == len(times) or start - times[lo - 1] < times[hi] - end):
                lo -= 1
            else:
                hi += 1
        return NOMINAL_S * (hi - lo) / sum(self.ref_s[lo:hi])

    def scaled(self, pieces):
        """The time of an op's pieces at the nominal speed."""
        raw = sum(end - start for start, end in pieces)
        return raw * self.factor(pieces[0][0], pieces[-1][1])
