"""Reference kernel and gauge: fixed work, independent of nlmkit, that reads the host's speed.

Other tenants of a shared host slow a process down by up to two or three
times, in phases from a second to minutes, and a phase can cover a whole
run.  The untraced run reads the host's **slowdown**, the kernel's time over
``REFERENCE_S``, between every two requests and every ``PERIOD_S`` during a
request.  A request's latency, less the time of the readings inside it,
divided by the mean of the readings from just before it to just after it,
is its latency at reference speed.

The kernel mixes the three kinds of work the workloads do: small numpy
calls dominated by per-call overhead, plain interpreter loops, and larger
array operations.  The kernel never changes with the package, so a change
to nlmkit moves latencies at reference speed as it moves the real ones.
"""

from __future__ import annotations

import contextlib
import signal
import time

import numpy as np

# The kernel's time on the 2-vCPU machine of the first recorded numbers in a
# quiet phase.  It fixes the scale of latencies at reference speed and
# nothing else: every commit is scaled by the same constant.
REFERENCE_S = 0.4e-3
# Readings during a request, about 2% of its time in a quiet phase.
PERIOD_S = 0.02

_rng = np.random.default_rng(0)
_SMALL = _rng.standard_normal((64, 64))
_LEFT = _rng.standard_normal((96, 96))
_RIGHT = _rng.standard_normal((96, 48))
_COLUMNS = _rng.standard_normal((500, 16))


def _kernel() -> float:
    total = 0.0
    for i in range(25):
        row = _SMALL[i]
        e = np.exp(row - row.max())
        total += float((e / e.sum())[0])
    count = 0
    for i in range(2000):
        count += i * i % 7
    total += float((_LEFT @ _RIGHT)[0, 0])
    e = np.exp(_COLUMNS - _COLUMNS.max(axis=0))
    total += float((e / e.sum(axis=0))[0, 0])
    return total + count


def reading() -> tuple[float, float]:
    """One run of the kernel: (slowdown, seconds it took)."""
    t0 = time.perf_counter()
    _kernel()
    seconds = time.perf_counter() - t0
    return seconds / REFERENCE_S, seconds


class Gauge:
    """Readings of the host's slowdown between and during requests.

    During a request a SIGALRM timer takes a reading every ``PERIOD_S``; the
    handler runs in the main thread between two bytecodes of the request.
    """

    def __init__(self, period: float = PERIOD_S):
        self.period = period
        self._readings = None

    def _on_alarm(self, signum, frame):
        if self._readings is not None:
            self._readings.append(reading())

    @contextlib.contextmanager
    def sampling(self):
        """Take readings while the block runs; yields the list they go to."""
        readings = []
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        self._readings = readings
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        try:
            yield readings
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            self._readings = None
            signal.signal(signal.SIGALRM, previous)
