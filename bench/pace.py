"""Wall time rescaled to an unloaded CPU, by a calibration loop run alongside.

On a shared virtual machine other tenants slow the benchmark's CPU by up to
2x for stretches of 100 ms to tens of seconds, and the guest sees no steal
time.  ``Pacer`` cuts a timed stretch into chunks of about ``CHUNK_S``: a
``SIGALRM`` interval timer interrupts the program between two bytecodes,
and the handler times a fixed calibration loop.  Each chunk's wall time is
then multiplied by ``reference_s / loop time``, with the loop timed at the
start of the chunk: how much slower than on an unloaded CPU it ran.  The
handler's own time is left out of every chunk.

Each loop's ``reference_s`` is a constant: its time on a lightly loaded
vCPU of the machine the baseline was recorded on (see ``bench/README.md``).
On that machine a paced time approximates the wall time with little
interference, for code that other tenants slow as much as they slow the
loop (``bench/README.md`` says how well that holds); on another machine
it is scaled by a fixed factor, so paced times from one machine stay
comparable with each other.
"""

from __future__ import annotations

import signal
import time
from typing import Callable, NamedTuple

CHUNK_S = 0.002


class Calibration(NamedTuple):
    loop: Callable[[], None]
    reference_s: float

    def measure(self):
        """Fastest of three runs of the loop."""
        clock, best = time.perf_counter, float("inf")
        for _ in range(3):
            begin = clock()
            self.loop()
            best = min(best, clock() - begin)
        return best

    def scale(self):
        """How much faster an unloaded CPU would have run the loop just now."""
        return self.reference_s / self.measure()


def _additions():
    total = 0
    for i in range(100):
        total += i


def numpy_calibration():
    """Five NumPy products of a 24x24 matrix and a vector: dispatch, like the workloads' oracles.

    Of the loops tried (also 100 interpreter additions and products of
    64x64 and 160x160 matrices), this one rescaled the solve of every
    workload most consistently across machine loads.
    """
    import numpy as np

    matrix = np.random.default_rng(0).standard_normal((24, 24))
    vector = np.ones(24)

    def products():
        for _ in range(5):
            matrix @ vector

    return Calibration(products, 4.7e-6)


# 100 additions in the interpreter, for code that runs before NumPy is
# imported: the set-up probe paces its own ``import numpy``.
INTERPRETER = Calibration(_additions, 2.2e-6)


class Pacer:
    """Context manager timing the code it encloses: ``wall`` and ``paced`` seconds.

    ``split()`` reads both totals so far.  Runs in the main thread only; it
    owns ``SIGALRM`` while active.
    """

    def __init__(self, calibration):
        self.calibration = calibration
        self.wall = self.paced = 0.0

    def _mark(self):
        """Close the running chunk and start the next one at the current speed."""
        begin = time.perf_counter()
        elapsed = begin - self._chunk_start
        self.wall += elapsed
        self.paced += elapsed * self._scale
        self._scale = self.calibration.scale()
        self._chunk_start = time.perf_counter()

    def _on_alarm(self, signum, frame):
        self._mark()

    def split(self):
        """``(wall, paced)`` seconds from entry until now."""
        elapsed = time.perf_counter() - self._chunk_start
        return self.wall + elapsed, self.paced + elapsed * self._scale

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        self._scale = self.calibration.scale()
        self._chunk_start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, CHUNK_S, CHUNK_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        self._mark()
        signal.signal(signal.SIGALRM, self._previous)
        return False
