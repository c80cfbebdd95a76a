"""Stdlib-only reference kernel that calibrates wall time.

Wall time on a shared machine drifts by tens of percent between
processes.  The benchmark therefore runs this fixed kernel between jobs
and reports every time as ``raw * NOMINAL_MS / kernel_ms``, where
``kernel_ms`` is the kernel's mean time in the seconds around the job.  The
kernel does the kinds of interpreter work the package does (a recursive
exponent walk building small frozen objects, fraction-free integer
elimination, Fraction sums), so both slow down together.

The kernel must never change: calibrated figures are only comparable
between runs that use the same kernel.
"""

from __future__ import annotations

import bisect
import statistics
import time
from dataclasses import dataclass
from fractions import Fraction

NOMINAL_MS = 4.0


@dataclass(frozen=True)
class _Class:
    free: tuple
    torsion: tuple

    def __post_init__(self):
        if len(self.free) != 2:
            raise ValueError("free part must have two coordinates")


def kernel():
    found = {}
    expo = [0, 0, 0, 0]

    def walk(i, left):
        if i == 4:
            c = _Class((expo[0] - expo[1], expo[2] + expo[3]),
                       ((expo[0] + 2 * expo[2]) % 3,))
            found[c] = found.get(c, 0) + 1
            return
        for e in range(left + 1):
            expo[i] = e
            walk(i + 1, left - e)
        expo[i] = 0

    walk(0, 12)
    n = 8
    a = [[(i * 7 + j * 13) % 17 - 8 + (i == j) * 5 for j in range(n)]
         for i in range(n)]
    prev = 1
    for k in range(n - 1):
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[k][k] * a[i][j] - a[i][k] * a[k][j]) // prev
        prev = a[k][k] or 1
    acc = Fraction(0)
    for i in range(1, 60):
        acc += Fraction(i, i + 1) * Fraction(1, i)
    return len(found), acc


def sample_ms() -> float:
    """Wall time of one kernel run, in milliseconds."""
    start = time.perf_counter()
    kernel()
    return (time.perf_counter() - start) * 1e3


class Calibrator:
    """Interleaves kernel samples with timed work.

    The machine's speed jitters in bursts of a tenth of a second, faster
    than a job lasts, so one sample next to a job says little about it.
    ``mark()`` therefore takes one short sample per ``SPACING_S`` of work
    done since the last sample, and each timed interval is calibrated by
    the mean of all samples within ``HALF_WINDOW_S`` of its midpoint: the
    share of slow phases in that window.
    """

    SPACING_S = 0.05
    HALF_WINDOW_S = 2.0

    def __init__(self):
        self.samples = []      # (time, kernel ms)
        self._raw = []         # (midpoint time, raw seconds)
        self._since = 0.0
        self._take()

    def _take(self):
        start = time.perf_counter()
        ms = sample_ms()
        self.samples.append((start, ms))

    def add(self, start: float, raw_s: float):
        """Record one timed interval that began at ``start``."""
        self._raw.append((start + raw_s / 2, raw_s))
        self._since += raw_s

    def mark(self, force: bool = False):
        if force and self._since < self.SPACING_S:
            self._since = self.SPACING_S
        while self._since >= self.SPACING_S:
            self._take()
            self._since -= self.SPACING_S

    def kernel_ms(self):
        """Mean kernel time over the whole run."""
        return statistics.fmean(ms for _, ms in self.samples)

    def calibrated(self):
        """Calibrated seconds of every interval added so far."""
        if self._raw and self._raw[-1][0] > self.samples[-1][0]:
            self.mark(force=True)
        times = [t for t, _ in self.samples]
        out = []
        for mid, raw in self._raw:
            lo = bisect.bisect_left(times, mid - self.HALF_WINDOW_S)
            hi = bisect.bisect_right(times, mid + self.HALF_WINDOW_S)
            near = [ms for _, ms in self.samples[lo:hi]] or \
                [self.samples[min(lo, len(times) - 1)][1]]
            out.append(raw * NOMINAL_MS / statistics.fmean(near))
        return out
