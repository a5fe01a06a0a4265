"""Host speed sampler, to scale timings to the host's fast state.

The shared host switches between a fast state and one up to 2 times slower
every few seconds, and can stay slow for minutes.  :class:`HostSpeed`
samples that state while it runs: a ``SIGALRM`` interval timer runs a fixed
pure-Python loop in the main thread and records when it ran and how long it
took.  The loop slows less than the pipeline does: the pipeline's slowdown
is about the loop's raised to the power :data:`SLOWDOWN_EXPONENT`.  So a
speed factor is the loop's time in the host's fast state,
:data:`LOOP_FAST_S`, over its mean time over some stretch of the sampling,
raised to that power; a time measured in that stretch, multiplied by the
factor, is that time as the fast host would have taken it.  Each loop adds
about 0.42 ms.

This module imports nothing heavy, so it can sample the imports of set-up.
"""

from __future__ import annotations

import bisect
import itertools
import signal
import time

LOOP_ITERATIONS = 8000
#: Fast-state time of the loop: the 10th percentile of 686 samples taken
#: during four suite passes on a 2-vCPU Intel Xeon at 2.0 GHz, CPython 3.11.
LOOP_FAST_S = 0.42e-3
#: Fitted over 43 runs of ``paper-suite`` and ``serve-zipf`` on that host,
#: log pass time against log loop time: slopes 1.55 and 1.48, correlations
#: 0.98 and 0.99.
SLOWDOWN_EXPONENT = 1.5
#: Shortest stretch of samples a local factor averages over.
MIN_WINDOW_S = 2.0


def _loop():
    total = 0
    for i in range(LOOP_ITERATIONS):
        total += i * i
    return total


class HostSpeed:
    """Samples the loop's time every ``interval_s`` between start and stop."""

    def __init__(self, interval_s):
        self.interval_s = interval_s
        self.times = []
        self.samples = []
        self._previous = None

    def _sample(self, signum, frame):
        start = time.perf_counter()
        _loop()
        self.samples.append(time.perf_counter() - start)
        self.times.append(start)

    def start(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)
        return self

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return self

    def _clipped(self):
        """Loop times, those above the 95th percentile (loops hit by an
        interrupt) clipped to it."""
        cap = sorted(self.samples)[int(0.95 * (len(self.samples) - 1))]
        return [min(s, cap) for s in self.samples]

    def factor(self):
        """The factor of all samples, 1.0 without samples."""
        if not self.samples:
            return 1.0
        return (LOOP_FAST_S * len(self.samples) / sum(self._clipped())) ** SLOWDOWN_EXPONENT

    def local_factors(self, starts, seconds):
        """The factor of each timed piece of work, from the samples around it.

        Piece ``i`` ran from ``starts[i]`` for ``seconds[i]``.  Its factor
        averages the samples taken while it ran, in a window widened to
        :data:`MIN_WINDOW_S` around its middle, and at least the one sample
        nearest to it.  All 1.0 without samples.
        """
        if not self.samples:
            return [1.0] * len(starts)
        sums = [0.0, *itertools.accumulate(self._clipped())]
        factors = []
        for start, duration in zip(starts, seconds):
            pad = max(MIN_WINDOW_S - duration, 0.0) / 2.0
            lo = min(bisect.bisect_left(self.times, start - pad), len(self.times) - 1)
            hi = max(bisect.bisect_left(self.times, start + duration + pad), lo + 1)
            factors.append((LOOP_FAST_S * (hi - lo) / (sums[hi] - sums[lo]))
                           ** SLOWDOWN_EXPONENT)
        return factors
