"""A fixed calibration kernel that tracks the speed of the host.

On a shared virtual machine the same CPU-bound work runs up to 1.7x
slower at some moments than at others (the host shares its cores with
other tenants), and the machine switches between its fast and slow
states within seconds. CPU time does not hide this, so a run's figures
depend on how much of it fell into slow periods. On a 2-core Intel Xeon
VM, ten 20-second runs of identical work spread by 12-26% of their
median in raw CPU time.

The runner therefore runs this kernel once before every timed task,
once after it and, from a ``SIGALRM`` handler, once every
``SAMPLE_INTERVAL_S`` inside it (so a long task, whose machine state can
change midway, is sampled throughout), takes the CPU time of the passes
inside off the task's time, and scales that by ``REFERENCE_S`` over the
mean time of all the passes: latencies are reported as CPU time at the
speed at which the kernel takes ``REFERENCE_S``. The kernel does the
kind of work the library's hot layers do (exact ``Fraction`` row
reduction, as in ``exact.rref``; small ``numpy`` contractions, as in
``forms.MultilinearForm.eval``) but calls nothing of the library, so a
change to the library moves the scaled figures in the same proportion as
the raw ones. In a seven-minute trace on that VM (20-second blocks of
atlas-probe and tied-cli), scaling by the passes around each task alone
cut the spread of tasks per second between blocks from 7-11% to
2.4-3.4% (coefficient of variation); with the passes inside as well, ten
20-second runs of each workload spread by at most 2.1% (quartiles over
median).
"""

from __future__ import annotations

import signal
import statistics
from fractions import Fraction
from time import perf_counter, process_time

import numpy as np

#: Kernel CPU seconds that define the reference speed (on the 2-core Xeon
#: VM the bounds were set on, one pass took 0.9 ms in the fast state and
#: 1.5 ms in the slow one).
REFERENCE_S = 1.0e-3
#: Seconds of work between two kernel passes inside a task. The timer is
#: a wall-clock one: with a process CPU-time timer (``ITIMER_PROF``) armed,
#: Linux reads the process CPU clock only to scheduler-tick granularity.
SAMPLE_INTERVAL_S = 0.02

_ROWS = [[Fraction((7 * i + 3 * j) % 11 - 5, 1 + (i + j) % 3) for j in range(6)]
         for i in range(5)]
_TENSOR = np.linspace(-1.0, 1.0, 12).reshape(2, 3, 2)
_VECTORS = (np.array([0.3, 0.7]), np.array([0.2, 0.3, 0.5]), np.array([0.6, 0.4]))


def _kernel() -> None:
    mat = [list(r) for r in _ROWS]
    nrows, ncols, r = len(mat), len(mat[0]), 0
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if mat[i][c] != 0), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        inv = 1 / mat[r][c]
        mat[r] = [x * inv for x in mat[r]]
        for i in range(nrows):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[r])]
        r += 1
        if r == nrows:
            break
    for _ in range(20):
        t = _TENSOR
        for k in (2, 1, 0):
            t = np.tensordot(t, _VECTORS[k], axes=([k], [0]))


def kernel_s() -> float:
    """CPU seconds of one pass of the kernel."""
    t0 = process_time()
    _kernel()
    return process_time() - t0


class Sampled:
    """Kernel passes around and inside one piece of work.

    Used as a context manager around the work: one pass on entry, one
    every ``SAMPLE_INTERVAL_S`` inside (run from a ``SIGALRM`` handler
    between two bytecodes of whatever is running) and one on exit.
    ``cpu_overhead_s`` and ``wall_overhead_s`` are the time the passes
    inside took, to be taken off the work's own time.
    With ``inside=False`` only the passes on entry and exit run, so that
    traced spans hold no kernel time.
    """

    def __init__(self, inside: bool = True):
        self.inside = inside
        self.passes: list[float] = []
        self.cpu_overhead_s = 0.0
        self.wall_overhead_s = 0.0
        self._handler = None

    def _tick(self, signum, frame):
        c0, w0 = process_time(), perf_counter()
        self.passes.append(kernel_s())
        self.cpu_overhead_s += process_time() - c0
        self.wall_overhead_s += perf_counter() - w0

    def __enter__(self):
        self.passes.append(kernel_s())
        if self.inside:
            self._handler = signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc_info):
        if self.inside:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, self._handler)
        self.passes.append(kernel_s())
        return False

    @property
    def slowdown(self) -> float:
        """How much slower than the reference speed the host ran."""
        return statistics.fmean(self.passes) / REFERENCE_S
