"""Reference-kernel worker: both kernels, in a process of their own.

Usage: python3 kernel_worker.py   (reads one request per line: a count K)

For each request, times K calls of the plain-Python kernel, then K calls of
a numpy kernel (QR least-squares solves on a tall 5,000 x 8 design and on
small 46 x 4 ones, the shapes the workloads fit), waits until its own BLAS
threads are idle again, and prints one line of 4K numbers: the wall times
of the 2K calls, then their process CPU times, in seconds.
Being a separate process, nothing the program does -- its imports, its BLAS
settings, its heap -- can change these timings; the benchmark asks for them
only while the program is idle. The benchmark starts it with one BLAS
thread: multi-threaded OpenBLAS slows down 5-15x whenever another process
wants the second core, far more than the program's mix does.
"""

import sys
import time

import numpy as np

import reference

_rng = np.random.default_rng(0)
_TALL = _rng.standard_normal((5000, 8))
_TALL_Y = _rng.standard_normal(5000)
_SMALL = _rng.standard_normal((46, 4))
_SMALL_Y = _rng.standard_normal(46)


def numpy_kernel() -> None:
    for _ in range(5):
        q, r = np.linalg.qr(_TALL)
        np.linalg.solve(r, q.T @ _TALL_Y)
    for _ in range(70):
        q, r = np.linalg.qr(_SMALL)
        np.linalg.solve(r, q.T @ _SMALL_Y)


def timed(function, count: int) -> tuple:
    walls, cpus = [], []
    for _ in range(count):
        wall, cpu = time.perf_counter(), time.process_time()
        function()
        walls.append(time.perf_counter() - wall)
        cpus.append(time.process_time() - cpu)
    return walls, cpus


def main() -> None:
    numpy_kernel()
    reference.await_idle()
    for line in sys.stdin:
        count = int(line)
        python_walls, python_cpus = timed(reference.kernel, count)
        numpy_walls, numpy_cpus = timed(numpy_kernel, count)
        reference.await_idle()
        times = python_walls + numpy_walls + python_cpus + numpy_cpus
        print(" ".join(repr(t) for t in times), flush=True)


if __name__ == "__main__":
    main()
