"""Host speed gauge for a shared machine.

On a shared host the same work takes up to 1.7x longer from one minute to the
next: ten runs of the fixed ``families`` pass took 19.3-33.5 s, and a fixed
pure-Python loop went from 0.82 s to 1.39 s within 40 s.  No run length
averages that out.  So while operations run, a fixed kernel that shares no
code with ``hypstab`` (exact fraction sums into a dict, the same kind of work
as the program's) is timed every ``PERIOD_S`` from a SIGALRM handler, which
runs between bytecodes of the main thread and so also inside long
operations.  Each operation's time, less the time spent in readings, is
scaled by ``REF_S`` over the mean of the readings taken while it ran (widened
by ``WINDOW_S`` on each side): end-to-end times are seconds at the host speed
where the kernel takes ``REF_S``.  A program change does not move the
kernel, so it shows in full.
"""
from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

PERIOD_S = 0.25
WINDOW_S = 0.5
REF_S = 0.02


def reading() -> float:
    """Seconds the fixed kernel takes now."""
    start = time.perf_counter()
    acc: dict[tuple[int, int, int], Fraction] = {}
    for i in range(3000):
        key = (i % 7, i % 5, i % 3)
        acc[key] = acc.get(key, Fraction(0)) + Fraction(i % 13 + 1, i % 11 + 1) * Fraction(3, i % 17 + 1)
    return time.perf_counter() - start


def scale_now(count: int = 3) -> float:
    """Factor to the reference speed from readings taken now."""
    return REF_S / statistics.mean(reading() for _ in range(count))


class Gauge:
    """Readings every PERIOD_S while the context is open.  ``spent`` is the
    time taken by readings so far, to subtract from the operations they
    interrupted; ``on_reading`` lets a tracer record them as spans."""

    def __init__(self, on_reading=None):
        self.readings: list[tuple[float, float]] = []  # (taken at, seconds)
        self.spent = 0.0
        self._on_reading = on_reading  # called with (start, end) of each reading

    def _read(self, *_) -> None:
        start = time.perf_counter()
        self.readings.append((start, reading()))
        end = time.perf_counter()
        self.spent += end - start
        if self._on_reading is not None:
            self._on_reading(start, end)

    def __enter__(self) -> "Gauge":
        signal.signal(signal.SIGALRM, self._read)
        self._read()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._read()

    def scale(self, start: float, end: float) -> float:
        """Factor from measured seconds in [start, end] to seconds at the
        reference speed."""
        near = [r for t, r in self.readings if start - WINDOW_S <= t <= end + WINDOW_S]
        return REF_S / statistics.mean(near)
