"""Machine-speed-normalised timing.

On the shared 2-core machine this benchmark was written on, the speed of
one core flips between two states, about 2x apart, every few seconds
(a fixed mpmath loop timed in 0.15 s chunks reads 1.0x, then 1.9x, then
1.0x again).  Wall time of a 20-60 s command then depends on how much of
it fell into the slow state, which spreads run-to-run figures by 20-30%.

``SpeedProbe`` times a fixed multiprecision kernel (the mpmath library
routines the program itself spends its time in, at explicit precision so
no global mpmath state is touched) from a SIGALRM handler every
``interval`` seconds.  ``normalized(a, b)`` rescales each stretch of
[a, b] by REFERENCE_S / (duration of the probe that ends the stretch):
the seconds the interval would have taken on a core that runs the
kernel in REFERENCE_S, which is about this machine's fast state.  The
reference is a constant, not a per-run minimum, because some runs never
see the fast state.  Probe time itself is left out.

Measured on that machine, 5 seeds of the residual workload: the spread
(interquartile range over median) of wall time was 0.31 raw and 0.036
normalised.  The raw seconds stay in each run's details line.
"""

from __future__ import annotations

import signal
import time
from array import array
from bisect import bisect_right

from mpmath.libmp import from_int, mpf_add, mpf_mul, mpf_sqrt

REFERENCE_S = 100e-6
_PREC = 340  # bits, about 100 digits
_X = from_int(3**200)
_Y = from_int(7**150)


def kernel():
    x = _X
    for _ in range(12):
        x = mpf_sqrt(mpf_add(mpf_mul(x, _Y, _PREC, "n"), _X, _PREC, "n"), _PREC, "n")
    return x


class SpeedProbe:
    """Context manager sampling the kernel's duration on a timer."""

    def __init__(self, interval: float = 0.025):
        self.interval = interval
        self.starts = array("d")
        self.ends = array("d")
        self._busy = False
        self._previous = None

    def _sample(self, signum=None, frame=None):
        if self._busy:
            return
        self._busy = True
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        self.starts.append(t0)
        self.ends.append(t1)
        self._busy = False

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def durations(self) -> list[float]:
        return [e - s for s, e in zip(self.starts, self.ends)]

    def normalized(self, a: float, b: float) -> float:
        """Seconds of [a, b], outside probes, at the reference speed."""
        n = len(self.starts)
        if n == 0:
            return b - a
        ref = REFERENCE_S
        i = bisect_right(self.starts, a)
        prev = a
        total = 0.0
        while i < n and self.starts[i] < b:
            total += (self.starts[i] - prev) * ref / (self.ends[i] - self.starts[i])
            prev = self.ends[i]
            i += 1
        last = min(i, n - 1)
        if b > prev:
            total += (b - prev) * ref / (self.ends[last] - self.starts[last])
        return total

    def summary(self) -> dict:
        d = sorted(self.durations())
        return {
            "probes": len(d),
            "fastest_us": d[0] * 1e6,
            "median_us": d[len(d) // 2] * 1e6,
            "slow_share": sum(1 for x in d if x > 1.5 * REFERENCE_S) / len(d),
        }
