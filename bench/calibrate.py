"""A fixed reference loop that measures how fast the host runs right now.

The benchmark's hosts share their cores with other load, and the same code
runs up to a third slower, sometimes nearly twice as slow, for seconds to
minutes at a time.  ``loop_seconds`` times a fixed loop of small numpy
operations and Python arithmetic, the same kind of work splitflow does per
step, that does not touch splitflow.  ``run.py`` scales each measured
wall time by ``REFERENCE_S`` over the loop's time measured around it, so
that a timing reads as it would on a host where the loop takes
``REFERENCE_S``: a change to splitflow moves the scaled time as much as the
wall time, and a change in the host's speed cancels out.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

# The loop's median time on a 2-vCPU Xeon VM (Python 3.11, numpy 2.4).
REFERENCE_S = 0.0019
# Reference-loop times within this many seconds of an experiment are averaged
# for it: slow phases last from tens of milliseconds to minutes.
WINDOW_S = 0.3
_N = 600
_X = np.linspace(-1.0, 1.0, 10)


def _loop() -> float:
    x, s = _X, 0.0
    for i in range(_N):
        y = np.maximum(x - 0.1, 0.0) - 0.5 * x
        s += float(y @ y) + 0.5 * i
    return s


def loop_seconds() -> float:
    """Wall time of one pass of the reference loop."""
    t0 = time.perf_counter()
    _loop()
    return time.perf_counter() - t0


def warm_up() -> None:
    """Run the loop a few times untimed, so that first-call costs are paid."""
    for _ in range(3):
        _loop()


def host_times(reference, intervals, window: float = WINDOW_S):
    """Mean reference-loop time within ``window`` seconds of each interval.

    ``reference`` holds (time, loop seconds) in time order, timed at least
    right before and right after each (start, end) interval.
    """
    times = [t for t, _ in reference]
    out = []
    for start, end in intervals:
        lo = bisect.bisect_left(times, start - window)
        hi = bisect.bisect_right(times, end + window)
        out.append(statistics.fmean(loop for _, loop in reference[lo:hi]))
    return out
