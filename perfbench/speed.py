"""Machine-speed normalization of host timings.

A shared host can run the same code at very different speeds from one
minute to the next: on a 2-vCPU virtual machine an arithmetic loop ran
between 7,700 and 19,300 times a second within one 20-second run, and
cold-tune and serving wall times moved by up to 2x between runs of the
same code. CPU time does not help, because the CPU itself runs slower.
So the benchmark interleaves short slices of a fixed interpreter-bound
calibration step with the work it times, and reports each timed interval
scaled to a reference speed:

    normalized = wall * (calibration rate around the interval) / REFERENCE_RATE

A normalized second is the time the interval would have taken on a
machine that runs the calibration step :data:`REFERENCE_RATE` times per
second. Raw wall times are kept in the run record.

Native multi-threaded work (the compiled kernels) does not slow down by
the same factor: neither this step nor a numpy one tracked it, so those
timings are reported raw.
"""

from __future__ import annotations

import bisect
import statistics
import time

__all__ = ["SpeedClock", "REFERENCE_RATE"]


def interpreter_step() -> tuple:
    """Hashing, small allocations and a keyed sort: the kind of interpreter
    work the tuner and the service spend their host time on."""
    table = {}
    for j in range(100):
        table[(j, str(j))] = [j, j * 2.0, {"v": j}]
    return sorted(table, key=lambda key: -key[0])[0]


#: Calibration steps per second of the reference machine.
REFERENCE_RATE = 20_000.0


class SpeedClock:
    """Calibration slices spread over a run, and the normalization they allow."""

    #: Length of one calibration slice.
    SLICE_S = 0.005
    #: Minimum time between slices requested through :meth:`tick`.
    PERIOD_S = 0.2
    #: Slices on either side of an interval that also vote on its rate
    #: (single 5 ms slices are noisy).
    NEIGHBOURS = 2

    def __init__(self) -> None:
        self._times: list[float] = []
        self._rates: list[float] = []

    def probe(self) -> None:
        """Run one calibration slice now."""
        t0 = time.perf_counter()
        n = 0
        while True:
            interpreter_step()
            n += 1
            elapsed = time.perf_counter() - t0
            if elapsed >= self.SLICE_S:
                break
        self._times.append(t0 + elapsed / 2)
        self._rates.append(n / elapsed)

    def tick(self) -> None:
        """Probe if the last slice is older than :data:`PERIOD_S`."""
        if not self._times or time.perf_counter() - self._times[-1] >= self.PERIOD_S:
            self.probe()

    def rate(self, t0: float, t1: float) -> float:
        """Median calibration rate of the slices inside ``[t0, t1]`` and
        the :data:`NEIGHBOURS` nearest on either side."""
        lo = max(bisect.bisect_left(self._times, t0) - self.NEIGHBOURS, 0)
        hi = bisect.bisect_right(self._times, t1) + self.NEIGHBOURS
        return statistics.median(self._rates[lo:hi])

    def normalize(self, t0: float, t1: float) -> float:
        return (t1 - t0) * self.rate(t0, t1) / REFERENCE_RATE

    def summary(self) -> dict:
        return {
            "slices": len(self._rates),
            "rate_median": statistics.median(self._rates) if self._rates else None,
            "rate_min": min(self._rates, default=None),
            "rate_max": max(self._rates, default=None),
            "reference_rate": REFERENCE_RATE,
        }
