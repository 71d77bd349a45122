"""Fixed reference kernels for normalising timings against host drift.

The host's own speed wanders by up to a factor of two over seconds while
CPU/wall and steal stay flat, so raw wall times do not repeat between sets
of runs. The benchmark therefore times reference kernels while the program
is idle and reports each timing scaled by nominal / measured kernel time:
the time the work would take on a host that runs the kernel in exactly its
nominal time.

`kernel` is plain Python -- it imports neither revcheck nor numpy. The
closed loop pairs it with a numpy kernel in a separate process
(kernel_worker.py), because the program's numpy-bound work gains less from
a fast host than interpreter-bound work does. No change to the program can
move either kernel.
"""

from __future__ import annotations

import time

# Nominal durations, about what the kernels take on the 2-vCPU host the
# benchmark was defined on when nothing else runs, so reported figures read
# close to raw: one plain-Python call (set-up and import timings), and one
# plain-Python plus one single-threaded numpy call (the closed loop), in
# wall time and in CPU time.
PYTHON_REFERENCE_MS = 10.0
PAIR_REFERENCE_MS = 18.0
PAIR_REFERENCE_CPU_MS = 18.0

# Idle detection: a process is idle once its threads use less than
# IDLE_CPU_SHARE of a core over an IDLE_POLL_S sleep.
IDLE_POLL_S = 0.02
IDLE_CPU_SHARE = 0.25
IDLE_MAX_S = 2.0


def kernel(reps: int = 3) -> int:
    """Interpreter-bound work: float and integer arithmetic, dict updates,
    list sorting and string building."""
    acc = 0
    for _ in range(reps):
        counts = {}
        xs = []
        x = 0.5
        for i in range(6000):
            x = (x * 3.9) * (1.0 - x)
            k = (i * 2654435761) & 0xFFFF
            counts[k] = counts.get(k, 0) + 1
            xs.append(x)
        xs.sort()
        text = "".join(str(v % 10) for v in range(2000))
        acc += len(counts) + len(text) + int(xs[len(xs) // 2] * 1000)
    return acc


def timed_kernel() -> float:
    """Seconds one kernel call takes."""
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


def await_idle() -> bool:
    """Sleep until this process's other threads (BLAS workers spin for
    100-200 ms after a call) stop using CPU; False if still busy after
    IDLE_MAX_S."""
    deadline = time.perf_counter() + IDLE_MAX_S
    while time.perf_counter() < deadline:
        cpu, wall = time.process_time(), time.perf_counter()
        time.sleep(IDLE_POLL_S)
        if time.process_time() - cpu < IDLE_CPU_SHARE * (time.perf_counter() - wall):
            return True
    return False

