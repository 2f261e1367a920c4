"""Host-speed calibration: scale measured seconds to a reference speed.

The benchmark runs on shared hosts whose cores slow down for minutes at a
time when neighbours are busy.  On the 2-core host it was written on, the
same job list took from 5.0 to 8.3 s in ten runs a few minutes apart, and
every workload sped up or slowed down together.  Medians over passes cannot
remove a slow spell that covers a whole run, so the benchmark times a fixed
piece of work (`_work`: FFT and direct convolution, element-wise array
arithmetic and interpreted Python, what frontlab spends its time in) every
`PERIOD_S` seconds while the workload runs, also in the middle of a job, and
scales the run's seconds by REFERENCE_S / (median time of that work).  The
time spent calibrating is taken out of the job times.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np
from scipy.signal import fftconvolve

# Median time of `_work` on the reference host (2 x Intel Xeon vCPU, Python
# 3.11.7, numpy 2.4.6, scipy 1.17.1).  It only fixes the unit: reference
# seconds are the seconds the run would have taken had `_work` run at this
# speed throughout.
REFERENCE_S = 0.0175
PERIOD_S = 0.5

_rng = np.random.default_rng(0)
_FFT_A, _FFT_B = _rng.random(1201), _rng.random(2401)
_DIRECT_A, _DIRECT_B = _rng.random(400), _rng.random(799)
_ELEMENTS = _rng.random(20000)


def _work() -> float:
    for _ in range(40):
        fftconvolve(_FFT_A, _FFT_B)
    for _ in range(40):
        np.convolve(_DIRECT_A, _DIRECT_B)
    z = _ELEMENTS
    for _ in range(20):
        np.exp(-np.abs(z)) * np.where(z < 0.5, z, 1.0 - z)
    acc = 0.0
    for i in range(40000):
        acc += i * 0.5
    return acc


class Sampler:
    """Times `_work` every PERIOD_S seconds from a SIGALRM handler.

    The handler runs in the main thread between bytecodes, so it reads and
    writes nothing of the interrupted computation.  `spent` is the total time
    taken by the handler; callers subtract its growth from what they time.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent = 0.0
        self._busy = False
        self._previous = None

    def _tick(self, signum, frame) -> None:
        if self._busy:  # a host so slow that ticks overlap: skip, don't nest
            return
        self._busy = True
        t0 = time.perf_counter()
        _work()
        t1 = time.perf_counter()
        self.samples.append(t1 - t0)
        self.spent += time.perf_counter() - t0
        self._busy = False

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def factor(self) -> float:
        """Multiplier taking this run's seconds to reference seconds."""
        return REFERENCE_S / statistics.median(self.samples)
