"""Machine-speed calibration: ladder and set-up times at a fixed speed.

The shared machines this benchmark runs on change speed by up to a factor
of two, in phases that last from seconds to minutes.  So each timed
stretch is rescaled to a fixed reference speed.  Seven small probes that
use no surfdg code, on fixed data, are timed next to the stretch; each
probe's time over its fixed reference time is a slowdown, and the median
of the seven is the machine's slowdown at that moment.  A second of the
stretch counts as ``1 / slowdown`` seconds.  A change to surfdg moves the
stretch's time but not the probes', so it shows in full.

The probes cover the kinds of work a ladder does, because slow phases
hit them unequally: no single probe followed every ladder, and the median
is not thrown off by one probe that a phase hits much harder than the
ladder (see README.md, "Machine speed").

During a ladder the probes run from a SIGALRM handler every
``INTERVAL_S`` seconds, in the ladder's own process and between its
bytecodes, so the speed is sampled throughout the ladder; the time spent
in the handler is taken out of the ladder's time.
"""

import signal
import time
from statistics import median

import numpy as np

INTERVAL_S = 0.4
WARMUP_SAMPLES = 3

# each probe's time at the reference speed; fixed once, never
# re-measured, so that rescaled seconds compare across commits
REFERENCE_S = {
    "spmv": 2.0e-3, "scatter": 3.0e-3, "points": 1.0e-3, "coo": 2.0e-3,
    "copy": 2.0e-3, "gather": 6.0e-3, "loop": 0.3e-3,
}

_ROWS = 40000
_NNZ_PER_ROW = 9
_COPY_ROWS = 20000
_COPY_COLUMNS = 250000
_TABLE_ROWS = 300000  # 7.2 MB of points, more than the L2 cache holds
_GATHER = 60000
_COO = 40000
_LOOP = 30


class Kernel:
    """Fixed, seeded data and the seven probes over it."""

    def __init__(self):
        import scipy.sparse as sp
        self._sp = sp
        rng = np.random.default_rng(0)
        n, nnz = _ROWS, _ROWS * _NNZ_PER_ROW
        self.indices = rng.integers(0, n, nnz)
        self.data = rng.standard_normal(nnz)
        self.matrix = sp.csr_matrix(
            (self.data, self.indices, np.arange(0, nnz + 1, _NNZ_PER_ROW)),
            shape=(n, n))
        self.x = rng.standard_normal(n)
        self.points = rng.standard_normal((n, 3))
        nnz = _COPY_ROWS * _NNZ_PER_ROW
        self.wide = sp.csr_matrix(
            (rng.standard_normal(nnz), rng.integers(0, _COPY_COLUMNS, nnz),
             np.arange(0, nnz + 1, _NNZ_PER_ROW)),
            shape=(_COPY_ROWS, _COPY_COLUMNS))
        self.wide_x = rng.standard_normal(_COPY_COLUMNS)
        self.table = rng.standard_normal((_TABLE_ROWS, 3))
        self.rows = rng.integers(0, _TABLE_ROWS, _GATHER)
        self.coo = (rng.standard_normal(_COO),
                    (rng.integers(0, n // 2, _COO),
                     rng.integers(0, n // 2, _COO)))
        self.small = rng.standard_normal((3, 3))
        self.probes = {
            # CSR products (the solve)
            "spmv": lambda: self.matrix @ (self.matrix @ self.x),
            # scatter-add of gathered products (assembly)
            "scatter": lambda: np.bincount(
                self.indices, weights=self.data * self.x[self.indices],
                minlength=_ROWS),
            # elementwise point math (geometry)
            "points": self._points,
            # COO to CSR with duplicates (assembly)
            "coo": lambda: self._sp.coo_matrix(
                self.coo, shape=(_ROWS // 2,) * 2).tocsr(),
            # a CSR copy into fresh memory and a product with it
            "copy": lambda: self.wide.copy() @ self.wide_x,
            # random row gathers from a table larger than L2 (element data)
            "gather": self._gather,
            # a short Python loop over tiny numpy calls (the harness)
            "loop": self._loop,
        }

    def _points(self):
        r = np.sqrt(np.einsum("nd,nd->n", self.points, self.points))
        return self.points / r[:, None]

    def _gather(self):
        picked = self.table[self.rows]
        return np.sqrt(np.einsum("nd,nd->n", picked, picked))

    def _loop(self):
        acc = 0.0
        for i in range(_LOOP):
            acc += float(np.linalg.det(self.small + i))
        return acc

    def slowdown(self) -> float:
        """Run every probe once; the median of time over reference time."""
        ratios = []
        for name, probe in self.probes.items():
            t = time.perf_counter()
            probe()
            ratios.append((time.perf_counter() - t) / REFERENCE_S[name])
        return median(ratios)


def bracket_speed(kernel: Kernel, samples: int = WARMUP_SAMPLES) -> float:
    """Median slowdown over a few back-to-back passes."""
    return median(kernel.slowdown() for _ in range(samples))


class Sampler:
    """Reads the slowdown every INTERVAL_S seconds while active.

    ``events`` holds (start, end, slowdown) of each reading;
    ``normalised`` rescales a stretch [t0, t1] minus the readings inside
    it.
    """

    def __init__(self, kernel: Kernel):
        self.kernel = kernel
        self.events = []
        self._busy = False

    def _handler(self, signum, frame):
        if self._busy:
            return
        self._busy = True
        try:
            t = time.perf_counter()
            slowdown = self.kernel.slowdown()
            self.events.append((t, time.perf_counter(), slowdown))
        finally:
            self._busy = False

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._old)
        return False

    def inside(self, t0: float, t1: float) -> list:
        return [ev for ev in self.events if t0 <= ev[0] < t1]

    def spent(self, t0: float, t1: float) -> float:
        return sum(e - s for s, e, _ in self.inside(t0, t1))

    def normalised(self, t0: float, t1: float, before: float,
                   after: float) -> float:
        """Seconds of [t0, t1] outside the readings, each stretch between
        two readings rescaled by their mean speed.  ``before`` and
        ``after`` are slowdowns read just outside the stretch."""
        marks = [(t0, t0, before)]
        marks += self.inside(t0, t1)
        marks.append((t1, t1, after))
        return sum(rescale(start - prev_end, s0, s1)
                   for (_, prev_end, s0), (start, _, s1)
                   in zip(marks, marks[1:]))


def rescale(seconds: float, before: float, after: float) -> float:
    """``seconds`` at the reference speed, given the slowdowns read just
    before and just after them."""
    return seconds * 0.5 * (1.0 / before + 1.0 / after)
