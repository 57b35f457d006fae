"""Host-speed probe: scales timings to a fixed reference speed.

On a 2-vCPU VM whose 2.1 GHz Xeon host is shared with other machines, a
fixed pure-Python loop took anywhere from 1.3 ms to 2.0 ms from one second to
the next. Raw item times drifted by up to 60% between runs a few minutes apart.
So while items run, SIGALRM fires every ``INTERVAL_S`` and times
``reference_loop``, which does not touch macc_lab. An item's time, minus the
probe's own time, is multiplied by ``NOMINAL_S`` over the median probe time
seen during the item. On a stream of identical plan items this cut the
interquartile spread of item times from 17% to 5%.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

INTERVAL_S = 0.05
NOMINAL_S = 1.3e-3  # the loop's time on an uncontended 2.1 GHz Xeon vCPU, Python 3.11
MIN_SAMPLES = 5  # fewer samples inside an item: use the most recent ones


def reference_loop() -> int:
    s = 0
    for i in range(20000):
        s += i * i % 7
    return s


def reference_s(repeats: int) -> float:
    """Median time of ``reference_loop`` over ``repeats`` runs."""
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        reference_loop()
        times.append(perf_counter() - t0)
    return statistics.median(times)


class SpeedProbe:
    """Samples the host's speed while it is entered."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def _sample(self, signum, frame) -> None:
        t0 = perf_counter()
        reference_loop()
        self.samples.append(perf_counter() - t0)

    def __enter__(self) -> "SpeedProbe":
        self.samples.extend(reference_s(1) for _ in range(MIN_SAMPLES))
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def scaled(self, elapsed: float, first: int) -> float:
        """``elapsed`` seconds of work, during which the samples from index
        ``first`` on were taken, at the nominal speed."""
        during = self.samples[first:]
        work = elapsed - sum(during)
        window = during if len(during) >= MIN_SAMPLES else self.samples[-MIN_SAMPLES:]
        return work * NOMINAL_S / statistics.median(window)
