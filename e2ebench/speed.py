"""Machine-speed probe: rescales host times to a reference machine speed.

The 2-core VMs this benchmark runs on share their cores with other
tenants, and the same cell's set-up or serve time moves by up to 2x
from one minute to the next (process CPU time moves with it, so the
slowdown is slower execution, not waiting for a core). A probe that is
timed once before and once after a phase does not track that: the
machine's speed changes within a phase.

:class:`SpeedProbe` samples instead. Every ``INTERVAL_S`` a ``SIGALRM``
handler times a fixed allocation-free loop (dict updates and float
arithmetic over a 997-entry table, with the garbage collector held off)
in the middle of whatever the simulator is doing. A phase's host time
is its wall time minus the time spent in the probe, and its
*normalized* time is that times ``REF_SAMPLE_S`` over the phase's mean
sample: the seconds the phase would take on a machine where one sample
takes ``REF_SAMPLE_S``. A change to the program moves the phase time
and leaves the samples alone, so it moves the normalized time by the
same share. The handler only reads the clock and its own table; the
simulation's records are unchanged (the record fingerprint checks it).
"""

from __future__ import annotations

import gc
import signal
import time

__all__ = ["INTERVAL_S", "REF_SAMPLE_S", "SpeedProbe", "normalize"]

INTERVAL_S = 0.05
#: A probe sample's duration on the reference machine: about the mean
#: sample on a 2-core Intel Xeon VM with Python 3.11.7, so normalized
#: times there read close to host times.
REF_SAMPLE_S = 0.00074
_LOOPS = 2000


class SpeedProbe:
    """Periodic speed samples of this process, taken on ``SIGALRM``."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        #: Wall seconds spent inside the handler so far.
        self.spent = 0.0
        self._table = {i: 0.0 for i in range(997)}
        self._previous = None

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        enabled = gc.isenabled()
        gc.disable()
        try:
            table, acc = self._table, 0.0
            s0 = time.perf_counter()
            for i in range(_LOOPS):
                k = i % 997
                table[k] = table[k] + i * 0.5
                acc += (i * 0.37) ** 0.5
            self.samples.append(time.perf_counter() - s0)
        finally:
            if enabled:
                gc.enable()
            self.spent += time.perf_counter() - t0

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def mark(self) -> tuple[int, float]:
        """A point to measure a phase from (see :meth:`since`)."""
        return len(self.samples), self.spent

    def since(self, mark: tuple[int, float]) -> tuple[list[float], float]:
        """Samples taken and probe seconds spent since ``mark``."""
        n, spent = mark
        return self.samples[n:], self.spent - spent

    @staticmethod
    def mean(samples: list[float]) -> float | None:
        return sum(samples) / len(samples) if samples else None


def normalize(host_s: float, mean_sample: float | None) -> float:
    """``host_s`` at the reference speed, given the mean probe sample
    taken while it ran (``host_s`` itself when there is none)."""
    if not mean_sample:
        return host_s
    return host_s * REF_SAMPLE_S / mean_sample
