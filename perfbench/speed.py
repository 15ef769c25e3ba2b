"""Machine-speed probes: fixed reference work timed next to the measured work.

The machine this benchmark was written on is shared, and its speed moves
between faster and slower spells, lasting seconds to minutes, by up to 1.8
times.  Measured work and reference work slow alike in a spell, so the
benchmark reports every time scaled to a machine on which the reference
takes its nominal time: measured time * nominal / reference time, with the
reference timed just before and just after the measured work.

Jobs are scaled by a pure-Python loop, run before and after each job
(probe) and, so that a spell changing during a long job is seen, every
SAMPLE_PERIOD_S within it (Sampler).  Set-up is scaled by a fresh Python
process that imports numpy, the library's one third-party dependency
(process_probe): like set-up, it is mostly process start and the loading of
numpy's modules and shared libraries.  Both references are benchmark code
and never change with the library, so a change in the library's speed shows
in full.
"""
from __future__ import annotations

import signal
import subprocess
import sys
import time

# Nominal times: about those of a fast spell on the 2-core machine the
# benchmark was written on (Intel Xeon, 2.1 GHz), so scaled values are
# close to seconds there.
REFERENCE_S = 0.6e-3
REFERENCE_PROCESS_S = 0.2
PROBE_REPS = 8
SAMPLE_PERIOD_S = 0.1
_PROCESS = [sys.executable, "-c", "import numpy"]


def _reference(n: int = 3000) -> int:
    """Big-integer shifts and xors and small-dict stores in a Python loop,
    the kind of work the library's kernels do."""
    x, d = 0, {}
    for i in range(n):
        x ^= (i * 2654435761) << (i & 63)
        d[i & 255] = x & 0xFFFF
    return x


def probe() -> float:
    """Seconds one reference loop takes now (mean of PROBE_REPS)."""
    start = time.perf_counter()
    for _ in range(PROBE_REPS):
        _reference()
    return (time.perf_counter() - start) / PROBE_REPS


class Sampler:
    """Runs the reference loop every SAMPLE_PERIOD_S, from a timer signal,
    while a job runs; keeps each loop's time and the time spent in them, to
    be taken out of the job's latency."""

    def start(self) -> None:
        self.loops: list[float] = []
        self.spent = 0.0
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        _reference()
        took = time.perf_counter() - start
        self.loops.append(took)
        self.spent += took


def process_probe() -> float:
    """Seconds a fresh reference process takes now, from start to exit."""
    start = time.perf_counter()
    subprocess.run(_PROCESS, check=True, timeout=60)
    return time.perf_counter() - start
