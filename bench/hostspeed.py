"""Host speed probe: a fixed reference computation timed next to each call.

On a shared host the same call can take anywhere from its quiet time to
about 1.7 times that, depending on what other tenants run on the machine
at the moment; the slowdown drifts over seconds to minutes, so the median
call time of a 25 s run moves with it. Timing a fixed reference
computation right before and right after each call and scaling the call
by it cancels most of that drift.

The reference mixes the kinds of work condrift does: an interpreter loop,
Python method calls and dict updates, numpy ufuncs on small arrays, and
scalar root finding with Python callbacks. Its time is the geometric
mean of the kernels, so no one kernel dominates. Among candidate kernels
these four slow down under contention about as much as the workloads do
(call time against probe time has a log-log slope between 0.9 and 1.15
on all three); numpy sorts and random gathers tracked them less well and
were left out. Every working set is small, so the probe's cost does not depend on
where a process's allocations land in memory. The probe depends only on
this file, never on the program under test.
"""

from __future__ import annotations

import math
import time

# Probe time, in seconds, that defines the reference host speed: a scaled
# time is what the call would take on a host where the probe takes this
# long (about its median on one core of a 2-vCPU KVM guest of a Xeon,
# Sapphire Rapids).
NOMINAL_S = 0.005

LOOP = 80_000
OBJECTS = 12_000
UFUNC_CELLS = 2048
UFUNC_ROUNDS = 120
ROOTS = 200


class _Cell:
    __slots__ = ("value", "twice")

    def __init__(self, value):
        self.value = value
        self.twice = 2 * value

    def total(self):
        return self.value + self.twice


class Probe:
    """Calling the probe returns its time in seconds; ``scale(seconds,
    before, after)`` turns a wall time measured between two probe times
    into seconds at the reference speed."""

    def __init__(self):
        import numpy
        from scipy.optimize import brentq
        self._np = numpy
        self._brentq = brentq
        self._grid = numpy.linspace(-1.0, 1.0, UFUNC_CELLS)
        self.kernels = (self._loop, self._objects, self._ufuncs, self._roots)

    def _loop(self):
        total = 0
        for i in range(LOOP):
            total += i * i
        return total

    def _objects(self):
        table = {}
        total = 0
        for i in range(OBJECTS):
            cell = _Cell(i)
            total += cell.total() + len(str(i))
            table[i % 97] = cell
        return total

    def _ufuncs(self):
        np, grid = self._np, self._grid
        u = np.sin(grid)
        for _ in range(UFUNC_ROUNDS):
            flux = np.maximum(np.maximum(u, 0.0) ** 2, np.minimum(u, 0.0) ** 2)
            u[1:-1] -= 0.01 * np.diff(flux)[1:]
            np.cumsum(u)
            np.searchsorted(grid, 0.5)
        return float(u.sum())

    def _roots(self):
        return sum(self._brentq(lambda z, k=k: z ** 3 - k - 1.0, 0.0, 100.0, xtol=1e-12)
                   for k in range(ROOTS))

    def __call__(self) -> float:
        log_sum = 0.0
        for kernel in self.kernels:
            started = time.perf_counter()
            kernel()
            log_sum += math.log(time.perf_counter() - started)
        return math.exp(log_sum / len(self.kernels))

    @staticmethod
    def scale(seconds: float, before: float, after: float) -> float:
        return seconds * NOMINAL_S / (0.5 * (before + after))
