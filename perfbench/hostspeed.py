"""Host-speed probe: turns wall seconds into reference seconds.

The hosts this benchmark runs on are shared.  The same pass can take
twice as long from one second to the next while its CPU time still
tracks its wall time: the process is running, but the host runs it
slower.  Medians over a run do not remove that, because a slow phase can
last the whole run.

So the benchmark measures the host's speed while the program runs.
Inside a ``Speedometer`` block a wall-clock timer interrupts the running
code every ``INTERVAL_S`` and, in the same thread, runs ``probe()``: a
fixed piece of allocation-heavy Python arithmetic, the same kind of work
as the HyperDual and field code the benchmark measures, and none of the
package's code.  How long the probe took says how fast the host ran
Python at that moment, as ``REFERENCE_S / duration`` (1 on the reference
host).  The package's passes slow down a little less than the probe:
their wall time mostly goes as speed ** -0.83 to speed ** -0.97, so the
benchmark takes the program's speed to be the probe's raised to
``SENSITIVITY``.  Because the probes are spaced evenly in wall time, the
mean of that speed over the probes in a window is the window's mean
speed, and

    reference seconds = (wall seconds - the probes' own seconds) * mean speed

is how long the window's work would take on the reference host.  On the
host the benchmark was defined on this cut the pass-to-pass coefficient
of variation of a suite's time from about 20 % (wall) to 2-5 % (reference).
Only the signal module and the clock are used, so the probe is the same
on every commit of the package.
"""

from __future__ import annotations

import bisect
import signal
import statistics
from time import perf_counter

INTERVAL_S = 0.01
# probe() seconds on the host the benchmark was defined on, run back to back
# at its fastest
REFERENCE_S = 2.2e-4
# log(program speed) / log(probe speed), fitted over the suites and shooting
# states of every workload on that host (0.67-0.98, most near 0.88)
SENSITIVITY = 0.9
PROBE_TERMS = 400


class _Dual:
    __slots__ = ("re", "eps")

    def __init__(self, re, eps):
        self.re = re
        self.eps = eps

    def __add__(self, other):
        return _Dual(self.re + other.re, self.eps + other.eps)

    def __mul__(self, other):
        return _Dual(self.re * other.re, self.re * other.eps + self.eps * other.re)


def probe() -> float:
    x = _Dual(0.3, 1.0)
    acc = _Dual(0.0, 0.0)
    for _ in range(PROBE_TERMS):
        acc = acc + x * x
    return acc.eps


class Speedometer:
    """Samples the host's speed while the block runs; see the module doc."""

    def __init__(self):
        self.starts = []
        self.durations = []
        self._previous = None

    def _sample(self, signum, frame):
        t0 = perf_counter()
        probe()
        self.durations.append(perf_counter() - t0)
        self.starts.append(t0)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def window(self, start: float, end: float):
        """(probe seconds inside [start, end), mean speed over it).

        A window too short to hold a probe takes its speed from the
        nearest probe on each side.
        """
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_left(self.starts, end)
        inside = self.durations[lo:hi]
        around = inside or self.durations[max(lo - 1, 0):hi + 1]
        if not around:
            raise ValueError("no probe ran; was the window measured inside the Speedometer block?")
        return sum(inside), statistics.fmean((REFERENCE_S / d) ** SENSITIVITY for d in around)

    def wall_seconds(self, start: float, end: float) -> float:
        """Wall seconds of the window less the probes' own time."""
        return end - start - self.window(start, end)[0]

    def reference_seconds(self, start: float, end: float) -> float:
        """Seconds the window's work would take on the reference host."""
        probes_s, speed = self.window(start, end)
        return (end - start - probes_s) * speed
