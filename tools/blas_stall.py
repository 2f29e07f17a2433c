"""Probe whether small complex matrix products stall on idle BLAS threads.

    python tools/blas_stall.py

Times 15 complex (150, 25) @ (25, 25) products, one after another, in the
fresh process that runs this script, and prints one JSON line: the median
time in ms, `stalled` (the median is above 1 ms; a calm period reads a few
hundredths of a ms), the numpy version, and the thread setting (the BLAS
thread variables of the environment, unset as null, and the CPUs the process
may run on, which OpenBLAS uses when none is set). Run once per tree before
each benchmark run, it tells a slow run in a stalled period from a slow tree.
"""

from __future__ import annotations

import json
import os
import statistics
import time

import numpy as np

ROWS, COLS, CALLS = 150, 25, 15
STALL_MS = 1.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def main() -> None:
    rng = np.random.default_rng(0)
    a = rng.standard_normal((ROWS, COLS)) + 1j * rng.standard_normal((ROWS, COLS))
    b = rng.standard_normal((COLS, COLS)) + 1j * rng.standard_normal((COLS, COLS))
    times = []
    for _ in range(CALLS):
        start = time.perf_counter()
        a @ b
        times.append((time.perf_counter() - start) * 1e3)
    median = statistics.median(times)
    print(json.dumps({
        "median_ms": round(median, 4),
        "stalled": median > STALL_MS,
        "numpy": np.__version__,
        "threads": {**{name: os.environ.get(name) for name in THREAD_VARS},
                    "cpus": len(os.sched_getaffinity(0))},
    }))


if __name__ == "__main__":
    main()
