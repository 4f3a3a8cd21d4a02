"""A reference kernel that measures how fast the machine runs at the moment.

The benchmark's host is shared: one repeated cell solve swings by up to 1.6x
over seconds to minutes with no change in the work, and a slow period can
cover whole runs, which no statistic over one run's passes can remove. The
benchmark therefore times this kernel between its passes and divides its
timings by the kernel's slowdown against a fixed reference time.

The kernel does not call the package, so no change to the program moves it.
It does the kind of work a fine cell iteration does: a bincount of a cell's
band assembly and a LAPACK banded Cholesky solve of a cell's size, plus an
interpreted loop for the Python-level overhead. Its inputs are fixed, not
taken from the seed.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import multiprocessing  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402
import scipy.linalg as sla  # noqa: E402

# Median seconds of each half of one kernel run at the reference speed,
# measured on the 2-core Xeon virtual machine described in README.md. A
# slowdown of 1.0 means the machine ran at that speed.
BAND_REF_S = 0.043
LOOP_REF_S = 0.025

_DOFS, _BAND = 2175, 69  # kept dofs and half-bandwidth of an n = 32 cell
_BAND_REPS = 10
_LOOP_LEN = 400_000

_rng = np.random.default_rng(0)
_AB = _rng.random((_BAND + 1, _DOFS))
_AB[-1] = 4.0 * _BAND  # diagonal row of the upper band storage: SPD
_RHS = _rng.random(_DOFS)
_SLOTS = _rng.integers(0, (_BAND + 1) * _DOFS, size=300_000)
_WEIGHTS = _rng.random(_SLOTS.size)


def _band():
    for _ in range(_BAND_REPS):
        np.bincount(_SLOTS, weights=_WEIGHTS, minlength=(_BAND + 1) * _DOFS)
        sla.solveh_banded(_AB, _RHS, check_finite=False)


def _loop():
    total = 0
    for i in range(_LOOP_LEN):
        total += i & 7
    return total


def slowdown():
    """One kernel run: its time over the reference time, 1.0 at reference speed."""
    t0 = time.perf_counter()
    _band()
    t1 = time.perf_counter()
    _loop()
    t2 = time.perf_counter()
    return 0.5 * ((t1 - t0) / BAND_REF_S + (t2 - t1) / LOOP_REF_S)


def _slowdowns(reps):
    return [slowdown() for _ in range(reps)]


def samples(reps, processes=1):
    """`reps` kernel runs in each of `processes` processes at once, so that
    as many cores are busy as in the timed work they stand next to.

    Returns (all their slowdowns, the wall seconds they took).
    """
    t0 = time.perf_counter()
    if processes == 1:
        values = _slowdowns(reps)
    else:
        with multiprocessing.get_context("fork").Pool(processes) as pool:
            values = [v for part in pool.map(_slowdowns, [reps] * processes) for v in part]
    return values, time.perf_counter() - t0


if __name__ == "__main__":
    # Print the median time of each half over 40 runs, to set the references.
    band, loop = [], []
    for _ in range(40):
        t0 = time.perf_counter()
        _band()
        t1 = time.perf_counter()
        _loop()
        band.append(t1 - t0)
        loop.append(time.perf_counter() - t1)
    print(f"band {statistics.median(band):.4f} s, loop {statistics.median(loop):.4f} s")
