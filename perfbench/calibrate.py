"""The host's speed, measured by a fixed reference loop run between the ops.

On a shared machine the speed of the host drifts: the same op runs up to
twice as slow for half a minute to a few minutes at a time, whatever the
program does.  A closed loop interleaves the ops with ``reference_loop``, a
fixed loop that no commit of fracroots changes, and spends about ``SHARE``
of its time on it.  Each op's wall latency is then rescaled to the host
speed at which the reference loop takes ``REFERENCE_MS``:

    normalised latency = wall latency * REFERENCE_MS / reference loop time

where the reference loop time is the mean of the ``NEIGHBOURS`` loops that
ran nearest in time to the op.  The host's speed also flips within tens of
milliseconds, so the loops right next to an op tell its speed better than
the loops of a longer stretch of the run.  A change to the program moves the
op and not the loop, so it moves the normalised figure in full; a change of
host speed moves both, and cancels.  The wall-clock figures are reported
next to the normalised ones.

Different code slows down by different amounts: pure-Python arithmetic
gains less than fracroots in the host's fast mode, and small numpy calls
gain more.  The loop therefore mixes the two, weighted as the ops' figures
were steadiest on the benchmark's workloads.
"""

from __future__ import annotations

import bisect
import math
import statistics
import time

import numpy as np

#: Iterations of the pure-Python part of the reference loop.
PYTHON_ITERATIONS = 10_000
#: Iterations of its small-array numpy part (together about 3 to 6.5 ms on
#: a 2-vCPU shared VM).
NUMPY_ITERATIONS = 600
#: Loop time, in ms, that defines the reference host speed.
REFERENCE_MS = 5.0
#: Share of a closed loop's busy time spent in the reference loop.
SHARE = 0.1
#: Reference loops, nearest in time to an op, whose mean rescales it.
NEIGHBOURS = 2


_MATRIX = np.array([[2.0, 0.1], [0.1, 3.0]])


def reference_loop() -> float:
    """The fixed work whose duration measures the host's speed."""
    total = 0.0
    for i in range(PYTHON_ITERATIONS):
        total += math.sqrt(i * 0.5 + 1.0)
    x = np.array([1.0, 2.0])
    for _ in range(NUMPY_ITERATIONS):
        y = _MATRIX @ x + 0.5 * x
        norm = math.sqrt(float(np.dot(y, y)))
        x = y / norm
    return total + norm


class HostSpeed:
    """Reference loops interleaved with a closed loop's ops, and the scale they give.

    Times are seconds since ``start``.  Call ``after_op`` after every op; it
    runs reference loops until they make up ``SHARE`` of the busy time.
    """

    def __init__(self, start: float):
        self.start = start
        self.samples: list = []
        self._op_s = 0.0
        self._loop_s = 0.0

    def after_op(self, latency: float) -> None:
        self._op_s += latency
        while self._loop_s < SHARE * (self._op_s + self._loop_s):
            t0 = time.perf_counter()
            reference_loop()
            t1 = time.perf_counter()
            self.samples.append(((t0 + t1) / 2.0 - self.start, t1 - t0))
            self._loop_s += t1 - t0

    def loop_ms(self) -> float:
        """Median reference loop time over the whole run, in ms."""
        return statistics.median(s for _, s in self.samples) * 1e3

    def scales(self, midpoints: list) -> list:
        """The factor that rescales an op centred at each of ``midpoints`` to reference speed."""
        times = [t for t, _ in self.samples]
        out = []
        for mid in midpoints:
            hi = bisect.bisect(times, mid)
            lo = hi - 1
            nearest = []
            while len(nearest) < min(NEIGHBOURS, len(times)):
                if hi >= len(times) or (lo >= 0 and mid - times[lo] <= times[hi] - mid):
                    nearest.append(self.samples[lo][1])
                    lo -= 1
                else:
                    nearest.append(self.samples[hi][1])
                    hi += 1
            out.append(REFERENCE_MS / 1e3 / statistics.fmean(nearest))
        return out
