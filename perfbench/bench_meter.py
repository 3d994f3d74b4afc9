"""CPU speed sampling, to report host times at a fixed reference speed.

On a shared machine the same code runs at very different speeds from one
second to the next: a busy neighbour on the same physical core makes this
process's thread up to ~1.9x slower, for seconds or minutes, with no steal
time to show for it (CPU time and wall time slow down alike).  Timings
taken minutes apart are then not comparable.

:class:`SpeedMeter` samples the speed of the benchmark's own thread while a
workload runs: a ``SIGALRM`` handler runs a fixed calibration loop every
``INTERVAL`` seconds and records how long it took.  :meth:`SpeedMeter.scale`
turns a raw host time into *reference seconds*: the raw time multiplied by
``REFERENCE_S`` over the mean calibration time sampled around that interval.
A change that makes the program slower makes its reference seconds larger
exactly as it makes its raw seconds larger; a neighbour that slows the CPU
down slows the calibration loop too, and mostly cancels out.

The loop is pure interpreter dispatch over data built once at import: it
allocates nothing (every value stays a cached small int), so neither the
allocator nor the garbage collector, whose state the workload sets, can
change a sample.  It is timed warm: run once untimed, then once timed.
"""

from __future__ import annotations

import bisect
import random
import signal
import statistics
import time
from typing import List

INTERVAL = 0.025
# Warm calibration-loop time on a quiet core of the machine the bounds were
# set on (a 2-vCPU Intel Xeon VM), so reference seconds read close to raw ones.
REFERENCE_S = 7.0e-5
# Samples this far either side of a short interval also count for it.
WINDOW = 0.25

_SMALL = tuple(random.Random(20050628).randrange(256) for _ in range(1500))


def calibration_loop() -> int:
    """A fixed slice of interpreter work that allocates nothing."""
    total = 0
    for value in _SMALL:
        total = (total * 31 + value) & 255
    return total


def calibrate(repeats: int = 20) -> float:
    """Mean warm calibration-loop time, measured now (for short child processes)."""
    calibration_loop()
    started = time.perf_counter()
    for _ in range(repeats):
        calibration_loop()
    return (time.perf_counter() - started) / repeats


class SpeedMeter:
    """Samples the calibration loop's time from a ``SIGALRM`` handler."""

    def __init__(self) -> None:
        self.times: List[float] = []
        self.durations: List[float] = []
        self._previous = None

    def _sample(self, signum, frame) -> None:
        calibration_loop()
        started = time.perf_counter()
        calibration_loop()
        self.times.append(started)
        self.durations.append(time.perf_counter() - started)

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def __enter__(self) -> "SpeedMeter":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def scale(self, seconds: float, start: float, end: float) -> float:
        """``seconds`` measured over [start, end], in reference seconds."""
        if end - start < 2 * WINDOW:
            start, end = start - WINDOW, end + WINDOW
        low = bisect.bisect_left(self.times, start)
        high = bisect.bisect_right(self.times, end)
        if high <= low:
            raise RuntimeError("no speed sample covers the interval; is the meter running?")
        return seconds * REFERENCE_S / statistics.fmean(self.durations[low:high])
