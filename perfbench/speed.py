"""Host timings scaled by a machine-speed reference.

The benchmark's host is shared: within minutes the same op takes anywhere
from one to two times its fastest host time, far more than the regressions
the bounds must catch. So while it times, the runner also times a fixed
reference snippet: small NumPy and SciPy calls from a Python loop, the mix
that tblsim's hot path runs, but no tblsim code, so no change to the
program moves it. A SIGALRM handler runs the snippet every 0.1 s. Each timed
interval is scaled by ``NOMINAL_REF_S`` over the mean snippet time seen
within it; the result reads as host seconds at a fixed machine speed. The
raw host seconds are reported beside the scaled ones.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

import numpy as np
from scipy.linalg import lu_factor, lu_solve

#: the snippet's typical time on a 2-vCPU x86_64 VM (Python 3.11, NumPy 2.4)
NOMINAL_REF_S = 1.6e-3
INTERVAL_S = 0.1

_rng = np.random.default_rng(0)
_LU = lu_factor(np.eye(12) * 4.0 + _rng.random((12, 12)))
_L_FK = _rng.random((12, 6))
_FIXED = np.array([145.0e3, 0.0])
_VOLUMES = [1.0e-6 + 1.0e-8 * k for k in range(4)]


def reference() -> float:
    """Host seconds for one run of the reference snippet."""
    t0 = perf_counter()
    for k in range(40):
        vols = [v * (1.0 + 1.0e-4 * k) for v in _VOLUMES]
        kpa = np.array([max(v - 1.0e-6, 0.0) / 4.0e-10 / 1.0e3 for v in vols])
        p = np.concatenate([_FIXED, kpa * 1.0e3])
        float(np.abs(lu_solve(_LU, -(_L_FK @ p))).max())
    return perf_counter() - t0


def factor(durations: list[float]) -> float:
    """Host time over an interval integrates the machine's slowness, and
    the snippet samples it evenly in time, so the mean is the right scale."""
    return NOMINAL_REF_S / statistics.fmean(durations)


class Sampler:
    """Times the reference snippet every ``INTERVAL_S`` while active."""

    def __init__(self):
        self.samples: list[float] = []
        self._previous = None

    def _on_alarm(self, signum, frame) -> None:
        self.samples.append(reference())

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def mark(self) -> tuple[float, int]:
        return perf_counter(), len(self.samples)

    def since(self, mark: tuple[float, int]) -> tuple[float, float]:
        """Raw and scaled host seconds since ``mark``, net of the snippet
        runs inside the interval. An interval too short to hold a sample
        takes the latest ones."""
        t1 = perf_counter()
        t0, n0 = mark
        inside = self.samples[n0:]
        raw = t1 - t0 - sum(inside)
        return raw, raw * factor(inside or self.samples[-2:] or [reference()])
