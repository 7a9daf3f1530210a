"""Host speed, sampled during each pass, to put every timing on one scale.

The benchmark shares the cores of its host with other tenants, and the
host's speed drifts with their load: a fixed pure-Python loop took from 17
to 30 ms, in phases lasting from seconds to minutes, and CPU time tracked
wall time, so the process was not waiting but running slower. Timings of
qpke drift with it, by more than any bound a benchmark could hold.

So each pass times a fixed reference loop, which runs no qpke code, every
PROBE_EVERY_S of wall time, from a SIGALRM handler (Python runs it in the
main thread between bytecodes, so a probe can interrupt an operation but
never a C call). Every interval the pass reports is divided by the host's
slowdown at that moment: the median loop time of the PROBE_NEAREST probes
nearest the interval's midpoint, over NOMINAL_LOOP_S. A reported time is
thus the interval as it would read on a host where the loop takes
NOMINAL_LOOP_S, which is about what it took on a 2-CPU cloud VM (Xeon,
Python 3.11) in that host's fast phases.

On that VM, over 12 sweep passes, the pass time as measured varied by 9.1%
(coefficient of variation) and its ratio to the loop time by 3.7%. The
loop mixes interpreter arithmetic, small numpy calls and object churn,
because each alone tracked qpke's slowdowns less well.

The time spent in probes is left out of every interval, also in the
times "as measured".
"""
from __future__ import annotations

import bisect
import signal
import statistics
from time import perf_counter

import numpy as np

NOMINAL_LOOP_S = 1.5e-3
PROBE_EVERY_S = 0.05
PROBE_NEAREST = 5

_I2 = np.eye(2, dtype=complex)
_I8 = np.eye(8, dtype=complex)
_kron = np.kron  # bound now, before a traced pass wraps np.kron


def _reference_loop() -> int:
    """Interpreter arithmetic, small numpy calls and object churn: the kinds
    of work qpke spends its time on."""
    total = 0
    for i in range(8_000):
        total += i * i
    for _ in range(25):
        _kron(_I2, _I8)
    table = {i: (i, str(i)) for i in range(1_000)}
    return total + sum(len(v[1]) for v in table.values())


class HostSpeed:
    def __init__(self):
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.loop_s: list[float] = []

    def probe(self, *_) -> None:
        """Time the reference loop (also the SIGALRM handler)."""
        start = perf_counter()
        _reference_loop()
        end = perf_counter()
        self.starts.append(start)
        self.ends.append(end)
        self.loop_s.append(end - start)

    def start(self) -> None:
        """Probe every PROBE_EVERY_S until stop()."""
        signal.signal(signal.SIGALRM, self.probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def slowdown(self, t: float) -> float:
        """The host's slowdown near time t, relative to the nominal host."""
        i = bisect.bisect(self.ends, t)
        lo = max(0, min(i - PROBE_NEAREST // 2, len(self.loop_s) - PROBE_NEAREST))
        return statistics.median(self.loop_s[lo:lo + PROBE_NEAREST]) / NOMINAL_LOOP_S

    def slowdown_median(self) -> float:
        return statistics.median(self.loop_s) / NOMINAL_LOOP_S

    def _pieces(self, start: float, end: float):
        """The parts of [start, end] between the probes in it."""
        i = bisect.bisect_left(self.starts, start)
        t = start
        while i < len(self.starts) and self.ends[i] <= end:
            yield t, self.starts[i]
            t = self.ends[i]
            i += 1
        yield t, end

    def scaled(self, start: float, end: float) -> float:
        """The interval [start, end] at nominal speed, without the probes in it."""
        return sum((b - a) / self.slowdown((a + b) / 2) for a, b in self._pieces(start, end))

    def raw(self, start: float, end: float) -> float:
        """The interval [start, end] as measured, without the probes in it."""
        return sum(b - a for a, b in self._pieces(start, end))
