"""Reference kernels that measure how fast the machine is running right now.

On a shared machine the speed of the CPU drifts by tens of percent over
minutes, and every op of a run drifts with it: in one four-minute sample the
`deep` op went from 0.45 s to 0.70 s and a fixed numpy kernel slowed by the
same 55 %.  Raw op times of two runs minutes apart therefore differ by more
than any change worth measuring.

The benchmark runs a reference kernel before and after every op and reports
each op time scaled to a fixed kernel speed:

    normalized = seconds * REFERENCE_S[kind] / (median of nearby kernel times)

The kernels use numpy only, never vertexsim, so a change to the library moves
the op time and not the kernel.  There are two kinds, matched to the work
whose drift they track: `python` does interpreter-bound small-array steps
like the simulator's gate kernel; `dense` streams a dense 8 MB matrix through
a block product and a complex matvec like the spectral oracle.  A plain real
matvec kernel tracked the oracle less well: the oracle also allocates large
complex copies, whose cost drifts on its own.

REFERENCE_S is about each kernel's median time on the machine the benchmark
was defined on (2 vCPU Intel Xeon, OpenBLAS 0.3.31 on one thread), so
normalized times read as seconds on that machine at its usual speed.  The
values only set the scale; they must stay fixed for results to compare.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

REFERENCE_S = {"python": 0.025, "dense": 0.020}


def _python_kernel(rng: np.random.Generator):
    state = rng.random(256) + 1j * rng.random(256)
    gate = rng.random((4, 4)) + 0j

    def run(reps: int = 800) -> float:
        s = state
        t0 = perf_counter()
        for _ in range(reps):
            t = np.moveaxis(s.reshape([2] * 8), [7, 3], [6, 7])
            shape = t.shape
            t = np.moveaxis((t.reshape(-1, 4) @ gate.T).reshape(shape), [6, 7], [7, 3])
            s = np.ascontiguousarray(t).reshape(-1)
            s = s / np.linalg.norm(s)
        return perf_counter() - t0

    return run


def _dense_kernel(rng: np.random.Generator):
    matrix = rng.random((1024, 1024))
    block = rng.random((1024, 4))
    vector = rng.random(1024)

    def run(reps: int = 3) -> float:
        v = vector
        t0 = perf_counter()
        for _ in range(reps):
            matrix @ block
            # a real matrix times a complex vector: numpy casts the matrix to a
            # fresh 16 MB complex array first, as the oracle's Ritz step does
            w = matrix @ (v + 0j)
            v = np.abs(w) / np.linalg.norm(w)
        return perf_counter() - t0

    return run


KERNELS = {"python": _python_kernel, "dense": _dense_kernel}


class Normalizer:
    """Brackets timed work with kernel runs and scales each time to REFERENCE_S.

    The speed for a piece of work is the median of the three kernel runs on
    each side of it, so one disturbed kernel run does not move its time.
    """

    def __init__(self, kind: str):
        self.kind = kind
        self._kernel = KERNELS[kind](np.random.default_rng(20211031))
        self.kernel_times = [self._kernel()]
        self.raw: list[float] = []

    def add(self, seconds: float) -> None:
        """Record a raw time, then run the kernel after it."""
        self.raw.append(seconds)
        self.kernel_times.append(self._kernel())

    def normalized(self) -> list[float]:
        c = self.kernel_times  # c[i] and c[i + 1] bracket raw[i]
        ref = REFERENCE_S[self.kind]
        return [t * ref / statistics.median(c[max(0, i - 2):i + 4])
                for i, t in enumerate(self.raw)]
