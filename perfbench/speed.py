"""A reference clock that discounts the host's changing speed.

On a shared host the same Python code runs up to 1.7 times slower for
tens of seconds at a time, in process CPU time as much as in wall time,
so whole runs differ by more than any bound that would still catch a
regression.  `ReferenceClock` samples the host's speed while a run
measures: every PERIOD_S of wall time a signal handler runs `probe`, a
fixed piece of work in the mix of the package's hot loops (pure Python
plus small numpy matrix products), and records how long it took.

`ref` maps perf_counter() readings to reference seconds.  Wall time
between two probes counts at NOMINAL_PROBE_S over the local probe time
(the median of the WINDOW probes around it), and time spent inside a
probe does not count.  An interval in reference seconds is what it
would have lasted on a host where the probe takes NOMINAL_PROBE_S: a
change in the program moves it, a change in the host's speed mostly
does not.  The probes cost about 1.5% of the run.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

import numpy as np

PERIOD_S = 0.02
NOMINAL_PROBE_S = 3.0e-4  # about the probe's median on a 2-vCPU Xeon VM
WINDOW = 11

_A = (np.arange(400) % 3 == 0).reshape(20, 20).astype(np.uint16)


def probe() -> int:
    s = 0
    seen = {}
    for i in range(1500):
        s += (i * 7) % 13
        seen[i & 63] = s
    p = _A
    for _ in range(8):
        p = (p @ _A).astype(bool).astype(np.uint16)
    return s + int(p[0, 0])


class ReferenceClock:
    """Probes the host's speed between `start` and `stop`; afterwards
    `ref` and `interval` convert wall readings to reference seconds."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.ends: list[float] = []
        self._walls = self._refs = None
        self._busy = False

    def _sample(self, signum=None, frame=None) -> None:
        if self._busy:  # a signal that falls due inside a probe
            return
        self._busy = True
        t = perf_counter()
        probe()
        self.starts.append(t)
        self.ends.append(perf_counter())
        self._busy = False

    def start(self) -> None:
        self._sample()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        if self._walls is not None:
            return
        durs = [e - s for s, e in zip(self.starts, self.ends)]
        half = WINDOW // 2
        self.rates = [NOMINAL_PROBE_S / statistics.median(durs[max(0, k - half):k + half + 1])
                      for k in range(len(durs))]
        # knots of the piecewise linear map: the clock stands still from
        # a probe's start to its end and runs at that probe's rate until
        # the next one starts
        walls, refs, r = [], [], 0.0
        for k, (s, e) in enumerate(zip(self.starts, self.ends)):
            if k:
                r += (s - self.ends[k - 1]) * self.rates[k - 1]
            walls += [s, e]
            refs += [r, r]
        self._walls, self._refs = np.array(walls), np.array(refs)

    def ref(self, t):
        """Reference seconds at wall reading(s) `t`, extrapolated at the
        first and last probe's rate outside the probed span."""
        t = np.asarray(t, dtype=float)
        w, r = self._walls, self._refs
        out = np.interp(t, w, r)
        out = np.where(t < w[0], r[0] - (w[0] - t) * self.rates[0], out)
        return np.where(t > w[-1], r[-1] + (t - w[-1]) * self.rates[-1], out)

    def interval(self, t0: float, t1: float) -> float:
        return float(self.ref(t1) - self.ref(t0))

    def probe_median_s(self) -> float:
        return statistics.median(e - s for s, e in zip(self.starts, self.ends))
