"""Host speed reference for the end-to-end timings.

On a shared machine, other tenants slow down every instruction of a run for
seconds to minutes at a time: a fixed pure-Python loop drifted by up to 25%
between runs a few seconds apart on a shared 2-vCPU Intel Xeon (2.1 GHz)
virtual machine.  Such a slowdown hits endkit and a fixed kernel of the same
kind of work alike.  So a run times that kernel between operations, at least
every ``EVERY_S``, and scales each operation's time by the kernel's nominal
time over its time measured just before and just after the operation.
End-to-end times are therefore "at nominal host speed"; the raw times are
printed beside them.
"""

from __future__ import annotations

import statistics
import time

# The kernel's median time on that machine, with Python 3.11.7.
NOMINAL_S = 0.0008
EVERY_S = 0.05


def kernel() -> list[int]:
    """String keys, dicts, sets of tuples and a sort: endkit's kind of work."""
    buckets: dict[str, set] = {}
    for i in range(1200):
        key = f"s{i % 97}"
        buckets.setdefault(key, set()).add((i, key))
    return sorted(len(v) for v in buckets.values())


class Speed:
    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []  # (start, kernel seconds)

    def sample(self) -> int:
        """Time the kernel once; the index of the new sample."""
        start = time.perf_counter()
        kernel()
        self.samples.append((start, time.perf_counter() - start))
        return len(self.samples) - 1

    def due(self) -> int:
        """Sample unless the latest sample is recent; the latest sample's index."""
        if not self.samples or time.perf_counter() - self.samples[-1][0] >= EVERY_S:
            return self.sample()
        return len(self.samples) - 1

    def scale(self, seconds: float, before: int) -> float:
        """``seconds`` measured after sample ``before``, at nominal speed: by
        the mean of that sample and the next one."""
        pair = self.samples[before:before + 2]
        return seconds * NOMINAL_S / statistics.fmean(d for _, d in pair)

    def median_ms(self) -> float:
        return statistics.median(d for _, d in self.samples) * 1000
