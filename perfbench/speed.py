"""How fast the sample's CPU runs while the sample does.

A shared host slows the benchmark's core by a third or more, for tens of
seconds at a time, so two runs of the same code can differ by more than any
useful bound.  ``Gauge`` pins the process to one CPU and times a fixed
pure-Python reference loop on a background thread every few milliseconds.
The two threads take turns under the GIL on that CPU, so the loop runs at
the speed the workload sees.  A time divided by ``Gauge.factor`` over the
same window is the time the work would have taken with the reference loop at
``REFERENCE_S``: the time at the machine's quiet speed.
"""

from __future__ import annotations

import bisect
import os
import statistics
import threading
import time

# the reference loop's time on one core of a 2-vCPU Xeon 2.1 GHz VM when the
# host is quiet (Python 3.11)
REFERENCE_S = 0.00021
INTERVAL_S = 0.02
# the machine's speed holds for about a second at a time: an op is compared
# with the reference loops that ran within this much of it
PAD_S = 0.25


def reference_loop() -> int:
    """Tuple building, dict updates and frozenset hashing: the kind of work
    the library's interpreter time goes to."""
    table: dict = {}
    for i in range(1000):
        key = (i & 63, i >> 4)
        table[key] = table.get(key, 0) + 1
    return len(frozenset(table))


class Gauge:
    def __init__(self) -> None:
        # start and duration of every timed reference loop, in time order
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._watch, daemon=True)

    def _measure(self) -> None:
        start = time.perf_counter()
        reference_loop()
        self.durations.append(time.perf_counter() - start)
        self.starts.append(start)

    def _watch(self) -> None:
        while not self._stop.wait(INTERVAL_S):
            self._measure()

    def start(self) -> None:
        try:
            # threads started after this inherit the mask
            os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
        except (AttributeError, OSError):
            pass  # unpinned, the loop may run on another CPU than the workload
        self._measure()
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        self._thread.join()
        self._measure()

    def factor(self, begin: float, end: float) -> float:
        """Slowdown against the quiet machine around ``perf_counter`` times
        [begin, end], from the reference loops within ``PAD_S`` of it.

        The loops are taken at even steps of time, and work done at slowdown
        s takes s times as long, so the quiet time of the window is its time
        times the mean of 1/s: the slowdown is the harmonic mean.  A loop
        stretched by an interrupt barely moves it."""
        lo = bisect.bisect_left(self.starts, begin - PAD_S)
        hi = bisect.bisect_right(self.starts, end + PAD_S)
        if lo == hi:
            # nothing measured that close: the nearest loop
            lo = min(max(lo - 1, 0), len(self.starts) - 1)
            hi = lo + 1
        return statistics.harmonic_mean(self.durations[lo:hi]) / REFERENCE_S
