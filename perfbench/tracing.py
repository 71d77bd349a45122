"""In-memory span tracing of revcheck's public functions.

`Tracer.install` replaces every public revcheck function, wherever a
revcheck module binds it (including private aliases such as simulate's
`_coefficient_test`), with a wrapper that records one span per call: id,
name, parent span (per thread), operation id, thread, start and end. Spans
stay in memory until `write` saves them at the end of the run.

Self time is a span's duration minus the durations of its direct children.
Children nest inside their parent on the same thread, so they never
overlap and self time is never negative. Worker threads start their own
stacks; the submitting span's self time then includes the wait for them.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import itertools
import sys
import threading
from collections import defaultdict
from time import perf_counter

PACKAGE = "revcheck"


class Tracer:
    def __init__(self):
        self.spans = []
        self.op = None
        self._ids = itertools.count()
        self._local = threading.local()
        self._patched = []

    def _wrap(self, name, func):
        local, ids, spans = self._local, self._ids, self.spans

        @functools.wraps(func)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(span)
            start = perf_counter()
            try:
                return func(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans.append((span, name, parent, self.op, threading.get_ident(), start, end))

        return traced

    def install(self) -> None:
        wrappers = {}
        prefix = PACKAGE + "."
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == PACKAGE or module_name.startswith(prefix)):
                continue
            for attr, obj in list(vars(module).items()):
                if not inspect.isfunction(obj) or obj.__name__.startswith("_"):
                    continue
                home = obj.__module__ or ""
                if not home.startswith(prefix):
                    continue
                if obj not in wrappers:
                    wrappers[obj] = self._wrap(f"{home[len(prefix):]}.{obj.__name__}", obj)
                setattr(module, attr, wrappers[obj])
                self._patched.append((module, attr, obj))

    def uninstall(self) -> None:
        for module, attr, obj in reversed(self._patched):
            setattr(module, attr, obj)
        self._patched.clear()

    def write(self, path: str) -> None:
        """Save every span, one CSV line each, gzip-compressed."""
        with gzip.open(path, "wt", compresslevel=1) as handle:
            handle.write("id,name,parent,op,thread,start,end\n")
            for span in self.spans:
                handle.write(",".join(map(str, span)) + "\n")


def summarize(spans, scales: dict, main_thread: int) -> dict:
    """Per-function calls and scaled self seconds, plus per-op accounting.

    `scales` maps an operation id to its reference scale factor. Spans
    outside a timed operation (op None) are ignored.
    """
    child_time = defaultdict(float)
    parents = {}
    for span, name, parent, op, thread, start, end in spans:
        parents[span] = (parent, name)
        if parent >= 0:
            child_time[parent] += end - start
    calls = defaultdict(int)
    self_s = defaultdict(float)
    root_s = defaultdict(float)
    negative = 0
    battery_ls = 0
    for span, name, parent, op, thread, start, end in spans:
        if op is None:
            continue
        own = (end - start) - child_time[span]
        if own < -1e-9:
            negative += 1
        calls[name] += 1
        self_s[name] += own * scales[op]
        if thread == main_thread and parent < 0:
            root_s[op] += end - start
        if name == "core_stats.least_squares":
            up = parent
            while up >= 0:
                up, up_name = parents[up]
                if up_name == "misspec.run_battery":
                    battery_ls += 1
                    break
    return {
        "calls": dict(calls),
        "self_s": dict(self_s),
        "root_s": dict(root_s),
        "negative_self": negative,
        "battery_least_squares": battery_ls,
    }
