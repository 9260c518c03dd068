"""Host-speed calibration of the benchmark's timings.

On a shared two-core virtual machine (Intel Xeon, 2.1 GHz), the same
frozen work ran up to 35% slower from one run to the next and drifted
within seconds, while CPU time tracked wall time: the host's speed changed,
not the program's.  So while a ``HostClock`` is active, a wall-clock timer runs a
fixed exact-arithmetic kernel, independent of the program, every
``EVERY_S`` seconds, also in the middle of a solve.  A measured interval is
reported at nominal host speed::

    nominal = (wall time - kernel time inside it) * NOMINAL_S / mean kernel time

where the mean is over the kernel runs inside the interval, or over the
``WINDOW`` runs nearest to it when fewer fell inside.  A change to the
program moves the wall time but not the kernel, so it moves the reported
time by the same share.
"""

import bisect
import signal
import time
from fractions import Fraction

NOMINAL_S = 0.00026  # the kernel's fastest time on that machine
EVERY_S = 0.01  # the kernel then takes about 5% of the wall time
WINDOW = 20


def _kernel():
    """Exact Gauss-Jordan elimination of a fixed 4 x 6 rational matrix."""
    rows = [[Fraction((7 * i + 3 * j) % 11 - 5, 1 + (i + j) % 4) for j in range(6)] for i in range(4)]
    for p in range(4):
        piv = rows[p][p] or Fraction(1)
        rows[p] = [v / piv for v in rows[p]]
        for i in range(4):
            f = rows[i][p]
            if i != p and f:
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[p])]
    return rows


class HostClock:
    """Context manager that runs the kernel from SIGALRM while it is active."""

    def __init__(self):
        self.starts = []
        self.durations = []
        self.stolen = 0.0
        self._busy = False
        self._previous = None

    def _tick(self, signum=None, frame=None):
        if self._busy:
            return
        self._busy = True
        t = time.perf_counter()
        _kernel()
        d = time.perf_counter() - t
        self.starts.append(t)
        self.durations.append(d)
        self.stolen += d
        self._busy = False

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def work_time(self):
        """A clock that stands still while the kernel runs."""
        return time.perf_counter() - self.stolen

    def _span(self, t0, t1):
        if not self.starts:
            self._tick()
        i = bisect.bisect_left(self.starts, t0)
        j = bisect.bisect_left(self.starts, t1)
        return i, j

    def factor(self, t0, t1):
        """Multiplier to nominal host speed for work in [t0, t1]."""
        i, j = self._span(t0, t1)
        if j - i < WINDOW:
            i = max(0, min((i + j - WINDOW) // 2, len(self.starts) - WINDOW))
            j = i + WINDOW
        window = self.durations[i:j]
        return NOMINAL_S * len(window) / sum(window)

    def nominal(self, t0, t1):
        """Seconds of program work in the wall interval [t0, t1] (perf_counter
        stamps) at nominal host speed."""
        i, j = self._span(t0, t1)
        return (t1 - t0 - sum(self.durations[i:j])) * self.factor(t0, t1)
