"""A fixed unit of CPU work that gauges how fast the machine runs right now.

On a shared host the same code can take half again as long from one
second to the next.  A timed run samples this unit every ``PERIOD_S``
while its items run, and rescales each item's time by ``NOMINAL_S /
mean unit time`` of the samples during and next to it: times read as
seconds on a machine where the unit takes ``NOMINAL_S``.  The unit
mixes small numpy eliminations and plain Python as the library does,
but runs no codedim code, so a change to codedim cannot move it.
"""

from __future__ import annotations

import signal
import time
from contextlib import contextmanager
from typing import Iterator

import numpy as np

NOMINAL_S = 0.04
PERIOD_S = 0.5  # a sample costs about NOMINAL_S, so 8% of a run's time


def _rank_mod3(a: np.ndarray) -> int:
    a = a % 3
    rows, cols = a.shape
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        pivot = r + int(nz[0])
        if pivot != r:
            a[[r, pivot]] = a[[pivot, r]]
        below = a[r + 1 :, c]
        hit = below != 0
        if hit.any():
            a[r + 1 :][hit] = (a[r + 1 :][hit] * a[r, c] - np.outer(below[hit], a[r])) % 3
        r += 1
    return r


def unit() -> int:
    """Eliminations of the sizes the sweeps see, and a loop over bit sets."""
    rng = np.random.default_rng(2026)
    shapes = [(60, 90)] * 12 + [(8, 12)] * 150
    total = sum(
        _rank_mod3((rng.random(shape) < 0.2).astype(np.int64)) for shape in shapes
    )
    faces = {i * 7 % 4099 for i in range(20000)}
    total += sum(1 for f in faces if all(f ^ (1 << v) in faces for v in range(3)))
    return total


def sample() -> float:
    """Seconds one unit takes now."""
    started = time.perf_counter()
    unit()
    return time.perf_counter() - started


class Gauge:
    """Speed samples taken during timed work, on a clock that stops for them.

    While ``running``, a SIGALRM timer takes a sample every PERIOD_S.  The
    handler runs between the library's bytecodes, and ``clock`` leaves
    out the time it takes, so an item timed on ``clock`` holds no sampling
    work.  Outside ``running`` the gauge takes no samples and ``clock`` is
    plain ``time.perf_counter``.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._paused = 0.0
        self._sampling = False

    def clock(self) -> float:
        return time.perf_counter() - self._paused

    def take(self, *_signal_args) -> None:
        if self._sampling:  # the timer fired during a sample
            return
        self._sampling = True
        started = time.perf_counter()
        self.samples.append(sample())
        self._paused += time.perf_counter() - started
        self._sampling = False

    def around(self, first: int, end: int) -> list[float]:
        """``samples[first:end]``, taken during an item, and one either side."""
        return self.samples[max(first - 1, 0) : end + 1]

    @contextmanager
    def running(self) -> Iterator[None]:
        """Sample at entry, every PERIOD_S, and at exit."""
        previous = signal.signal(signal.SIGALRM, self.take)
        self.take()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            self.take()
