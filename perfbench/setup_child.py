"""Fresh-interpreter set-up probe.

Usage: python3 setup_child.py '<json list of argv lists>'

Times the reference kernel, imports revcheck, runs the given CLI
invocations in-process (the workload's first operation), and prints one
JSON line: CLOCK_MONOTONIC readings around the kernel block and at the end
of the operation, the kernel times, and where revcheck came from. The
parent took the same clock just before starting this interpreter, so
set-up time excludes the kernel block, and the kernel, timed in this same
process before any program thread exists, scales it.
"""

import time

started = time.monotonic()
import reference  # noqa: E402  (plain Python; loads nothing revcheck needs)

kernel_s = [reference.timed_kernel() for _ in range(5)]
resumed = time.monotonic()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402

from revcheck import cli  # noqa: E402

for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        sys.exit(code)
ended = time.monotonic()
print(
    json.dumps(
        {
            "started": started,
            "resumed": resumed,
            "ended": ended,
            "kernel_s": kernel_s,
            "origin": sys.modules["revcheck"].__file__,
        }
    )
)
