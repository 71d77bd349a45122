#!/usr/bin/env python3
"""Benchmark of revcheck: one closed-loop caller, in-process CLI calls.

Usage:
    python3 perfbench/run.py --workload small_screen|large_screen|mc_size_study
                             --seed N --seconds S --trace 0|1

Run from the root of a source checkout; revcheck is imported from its
`src/`. The benchmark builds its inputs from --seed, measures for --seconds,
checks every distinct output, and prints as its last line one JSON object
with `correct`, `attempted`, `failed` and `metrics`. With --trace 0 the
metrics are the end-to-end ones; with --trace 1 a separate traced run gives
the per-layer ones. Timings are normalised against reference kernels (see
reference.py); the raw figures are printed on the lines before and saved
under .perfbench/out/. See README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench", "out")

import inputs  # noqa: E402  (HERE is sys.path[0])
import reference  # noqa: E402
import tracing  # noqa: E402

# Fresh interpreters per set-up measurement; the size study's first
# operation alone takes seconds, so it gets fewer.
SETUP_RUNS = {"small_screen": 5, "large_screen": 5, "mc_size_study": 3}
# Kernel calls before each -X importtime probe of the traced run.
IMPORT_REF_CALLS = 3
# The closed loop hands the host to the reference kernels after each
# SLICE_S of program work: it waits until no thread of the process burns CPU
# (the program's BLAS workers spin for a while after each call, and a
# spinning sibling slows a kernel by up to 2x), then has the kernel worker
# time KERNEL_CALLS calls of each kernel. An operation is scaled by the
# SCALE_GROUPS sample groups before its slice and as many after it: about
# six seconds, short against the drift.
SLICE_S = 1.5
KERNEL_CALLS = 4
SCALE_GROUPS = 2

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "cpu_ms_per_op": "ms",
    "peak_rss_mb": "MB",
}

# Functions whose calls per operation the traced run reports.
TRACED_CALLS = (
    "cli.build_parser",
    "cli.main",
    "core_stats.least_squares",
    "core_stats.tail_prob",
    "core_stats.sample_moments",
    "regression.fit",
    "regression.design_matrix",
    "regression.subset_fit",
    "regression.coefficient_test",
    "misspec.run_battery",
    "misspec.normality_check",
    "misspec.linearity_check",
    "misspec.homoskedasticity_check",
    "misspec.auxiliary_trend_lag_test",
    "misspec.ordering_shift_test",
    "misspec.detrend",
    "misspec.dememorize",
    "misspec.corrected_correlation",
    "bernoulli.stratified_tables_from_json",
    "bernoulli.aggregate_verdict",
    "bernoulli.homogeneity_test",
    "bernoulli.two_proportion_test",
    "verdict.classify",
    "verdict.render",
    "parameterization.joint_moments_from_correlations",
    "parameterization.derive_full_params",
    "simulate.mc_error_rate",
    "simulate.rng_for",
    "simulate.naive_correlation_test",
)
# Functions whose self time per operation it reports: those every workload
# calls, so no reported time is a constant zero.
TRACED_SELF = (
    "cli.build_parser",
    "cli.main",
    "core_stats.least_squares",
    "core_stats.tail_prob",
    "core_stats.sample_moments",
    "regression.fit",
    "regression.design_matrix",
    "misspec.detrend",
    "misspec.dememorize",
    "misspec.corrected_correlation",
)


def per_layer_units() -> dict:
    units = {f"{name}.calls": "count" for name in TRACED_CALLS}
    units.update({f"{name}.self_ms": "ms" for name in TRACED_SELF})
    units["misspec.run_battery.least_squares_per_call"] = "count"
    units["process.cores_busy"] = "cores"
    units["import.revcheck_ms"] = "ms"
    units["import.scipy_modules"] = "count"
    return units


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def measure_setup(first_op, runs: int) -> tuple:
    """Fresh interpreter to the end of the first operation, `runs` times.

    Returns (raw seconds, scaled seconds) per interpreter. Each interpreter
    times the reference kernel itself, so the scale reflects the core it
    ran on. A discarded import-only interpreter first compiles bytecode and
    warms the page cache, costs a CLI user pays once per install.
    """
    env = child_env()
    subprocess.run([sys.executable, "-c", "import revcheck"], env=env, check=True, timeout=170)
    argvs = first_op.argv if first_op.kind == "size_study" else [first_op.argv]
    child = [sys.executable, os.path.join(HERE, "setup_child.py"), json.dumps(argvs)]
    raws, scaled = [], []
    for _ in range(runs):
        start = time.monotonic()
        proc = subprocess.run(child, env=env, capture_output=True, text=True, timeout=170)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up interpreter exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
        probe = json.loads(proc.stdout.splitlines()[-1])
        if not probe["origin"].startswith(SRC + os.sep):
            raise RuntimeError(f"set-up interpreter imported revcheck from {probe['origin']}")
        raw = (probe["started"] - start) + (probe["ended"] - probe["resumed"])
        raws.append(raw)
        scaled.append(raw * scale_of(probe["kernel_s"], reference.PYTHON_REFERENCE_MS))
    return raws, scaled


def scale_of(kernel_seconds, nominal_ms: float) -> float:
    """Nominal kernel time over the median of some kernel samples."""
    return nominal_ms / 1000.0 / statistics.median(kernel_seconds)


class KernelWorker:
    """The kernel_worker.py process, asked for samples while the program idles."""

    def __init__(self):
        # One BLAS thread for the kernels' process only; the program's own
        # environment is left alone.
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "kernel_worker.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            env=env,
        )
        self.busy_waits = 0

    def sample(self) -> tuple:
        """KERNEL_CALLS plain-Python plus numpy kernel times, in seconds:
        (wall times, process CPU times)."""
        self.busy_waits += not reference.await_idle()
        self.proc.stdin.write(f"{KERNEL_CALLS}\n")
        self.proc.stdin.flush()
        times = [float(t) for t in self.proc.stdout.readline().split()]
        if len(times) != 4 * KERNEL_CALLS:
            raise RuntimeError(f"kernel worker stopped (exit {self.proc.poll()})")
        k = KERNEL_CALLS
        walls = [a + b for a, b in zip(times[:k], times[k : 2 * k])]
        cpus = [a + b for a, b in zip(times[2 * k : 3 * k], times[3 * k :])]
        return walls, cpus

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.stdout.close()
        self.proc.wait(timeout=60)


def measure_import() -> tuple:
    """`import revcheck` cumulative time (-X importtime, scaled) and how
    many scipy modules it loads, median of three fresh interpreters."""
    env = child_env()
    code = "import sys, revcheck; print(sum(1 for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    times, counts = [], []
    for _ in range(3):
        ref = [reference.timed_kernel() for _ in range(IMPORT_REF_CALLS)]
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", code], env=env, capture_output=True, text=True, timeout=170
        )
        if proc.returncode != 0:
            raise RuntimeError(f"import probe exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
        counts.append(int(proc.stdout.split()[-1]))
        cumulative_us = [
            float(fields[1])
            for fields in (line.split("|") for line in proc.stderr.splitlines())
            if len(fields) == 3 and fields[2].strip() == "revcheck"
        ]
        if not cumulative_us:
            raise RuntimeError("no `revcheck` line in the -X importtime report")
        times.append(cumulative_us[-1] / 1000.0 * scale_of(ref, reference.PYTHON_REFERENCE_MS))
    return statistics.median(times), statistics.median(counts)


class Runner:
    """Runs operations through revcheck.cli.main in this process."""

    def __init__(self, cli):
        self.cli = cli

    def call(self, argv) -> tuple:
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = self.cli.main(argv)
        return code, buffer.getvalue()

    def run(self, op) -> tuple:
        """(ok, output); a size study's output is the list of its texts."""
        if op.kind != "size_study":
            code, text = self.call(op.argv)
            return code == 0, text
        texts = []
        for argv in op.argv:
            code, text = self.call(argv)
            if code != 0:
                return False, texts
            texts.append(text)
        return True, texts


def timed_loop(runner, ops, seconds, tracer=None) -> dict:
    """Closed loop over whole rounds of `ops` until `seconds` have passed.

    After every SLICE_S of program work the program idles while the kernel
    worker runs; each operation is scaled by the kernel samples taken around
    its slice.
    """
    worker = KernelWorker()
    try:
        return _timed_loop(runner, ops, seconds, tracer, worker)
    finally:
        worker.close()


def _timed_loop(runner, ops, seconds, tracer, worker) -> dict:
    groups = []

    def sample_kernel():
        groups.append(worker.sample())

    walls, cpus, slices, inputs_of = [], [], [], []
    outputs = {}
    problems = []
    failed = 0
    work = 0.0
    sample_kernel()
    started = time.perf_counter()
    rounds = 0
    while True:
        for index, op in enumerate(ops):
            if tracer is not None:
                tracer.op = len(walls)
            c0 = time.process_time()
            t0 = time.perf_counter()
            try:
                ok, output = runner.run(op)
            except Exception as exc:  # a crash is a failed operation, not the end of the run
                ok, output = False, None
                problems.append(f"op {index} raised {type(exc).__name__}: {exc}")
            t1 = time.perf_counter()
            c1 = time.process_time()
            if tracer is not None:
                tracer.op = None
            walls.append(t1 - t0)
            cpus.append(c1 - c0)
            slices.append(len(groups) - 1)
            inputs_of.append(index)
            if not ok:
                failed += 1
            elif index not in outputs:
                outputs[index] = output
            elif outputs[index] != output:
                problems.append(f"op {index}: output differs between rounds")
            work += t1 - t0
            if work >= SLICE_S:
                sample_kernel()
                work = 0.0
        rounds += 1
        if time.perf_counter() - started >= seconds:
            break
    if work > 0.0:
        sample_kernel()
    # Wall times scale by the kernels' wall times, CPU times by their CPU
    # times: time the host steals from the VM inflates only the former.
    scales, cpu_scales = [], []
    for g in slices:
        around = groups[max(0, g - SCALE_GROUPS + 1) : g + SCALE_GROUPS + 1]
        scales.append(scale_of([k for walls, _ in around for k in walls], reference.PAIR_REFERENCE_MS))
        cpu_scales.append(scale_of([k for _, cpus in around for k in cpus], reference.PAIR_REFERENCE_CPU_MS))
    return {
        "walls": walls,
        "cpus": cpus,
        "inputs": inputs_of,
        "scales": scales,
        "cpu_scales": cpu_scales,
        "refs": [k for walls, _ in groups for k in walls],
        "group_medians_ms": [statistics.median(walls) * 1000.0 for walls, _ in groups],
        "busy_waits": worker.busy_waits,
        "rounds": rounds,
        "failed": failed,
        "outputs": outputs,
        "problems": problems,
        "elapsed": time.perf_counter() - started,
    }


def quantile(values, q):
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    position = q * (len(ordered) - 1)
    lo = int(position)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (position - lo)


def timing_metrics(loop, scales, cpu_scales) -> dict:
    """End-to-end timings from per-op wall/CPU seconds and scale factors.

    Latency quantiles are taken per input of the round, over the run's
    rounds, and averaged over the inputs. Host speed changes shift the
    relative speed of operation kinds (pure-Python table analyses gain more
    than numpy-bound fits), which would move a quantile pooled over the mix
    from one kind to another.
    """
    lat = [w * s * 1000.0 for w, s in zip(loop["walls"], scales)]
    cpu = [c * s * 1000.0 for c, s in zip(loop["cpus"], cpu_scales)]
    by_input = {}
    for index, value in zip(loop["inputs"], lat):
        by_input.setdefault(index, []).append(value)
    return {
        "ops_per_s": len(lat) * 1000.0 / sum(lat),
        "latency_p50_ms": statistics.fmean(quantile(v, 0.5) for v in by_input.values()),
        "latency_p90_ms": statistics.fmean(quantile(v, 0.9) for v in by_input.values()),
        "cpu_ms_per_op": sum(cpu) / len(cpu),
    }


def run_checks(ops, loop, runner, threads) -> list:
    import checks  # loads scipy.stats; only after the timed region

    problems = list(loop["problems"])
    for index, output in sorted(loop["outputs"].items()):
        for problem in checks.check(ops[index], output):
            problems.append(f"op {index} ({ops[index].kind}): {problem}")
    for index, op in enumerate(ops):
        if op.kind != "size_study" or index not in loop["outputs"]:
            continue
        # Thread invariance: the same study on one thread rejects exactly as often.
        serial = [argv[:-1] + ["1"] for argv in op.argv]
        ok, texts = runner.run(inputs.Op(kind=op.kind, argv=serial, data=op.data))
        if not ok:
            problems.append("size study with --threads 1 failed")
        elif checks.rejections(texts) != checks.rejections(loop["outputs"][index]):
            problems.append(
                f"rejections with --threads 1 {checks.rejections(texts)} != "
                f"--threads {threads} {checks.rejections(loop['outputs'][index])}"
            )
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(SRC, "revcheck", "__init__.py")):
        print(f"error: no revcheck sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2

    threads = len(os.sched_getaffinity(0))
    workdir = os.path.join(ROOT, ".perfbench", f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    os.makedirs(OUT_DIR, exist_ok=True)
    try:
        ops = inputs.build_round(args.workload, args.seed, workdir, threads)
        return measure(args, ops, threads)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, ops, threads) -> int:
    traced = bool(args.trace)
    if not traced:
        setup_raw, setup_scaled = measure_setup(ops[0], SETUP_RUNS[args.workload])
    else:
        import_ms, scipy_modules = measure_import()

    sys.path.insert(0, SRC)
    from revcheck import cli

    if not cli.__file__.startswith(SRC + os.sep):
        print(f"error: revcheck imported from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    runner = Runner(cli)
    # Warm-up: first-call costs inside this process are paid before timing.
    for op in ops:
        runner.call(op.argv[0] if op.kind == "size_study" else op.argv)

    tracer = None
    if traced:
        tracer = tracing.Tracer()
        tracer.install()
    loop = timed_loop(runner, ops, args.seconds, tracer)
    cores_busy = sum(loop["cpus"]) / sum(loop["walls"])
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.uninstall()

    problems = run_checks(ops, loop, runner, threads)
    attempted = len(loop["walls"])
    reported = timing_metrics(loop, loop["scales"], loop["cpu_scales"])
    raw = timing_metrics(loop, [1.0] * attempted, [1.0] * attempted)
    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "ops_per_round": len(ops),
        "rounds": loop["rounds"],
        "attempted": attempted,
        "measured_s": loop["elapsed"],
        "kernel_ms_median": statistics.median(loop["refs"]) * 1000.0,
        "kernel_samples": len(loop["refs"]),
        "kernel_busy_waits": loop["busy_waits"],
        "kernel_group_medians_ms": loop["group_medians_ms"],
    }

    if not traced:
        reported["setup_s"] = statistics.median(setup_scaled)
        raw["setup_s"] = statistics.median(setup_raw)
        reported["peak_rss_mb"] = raw["peak_rss_mb"] = peak_rss_mb
        summary["setup_raw_s"] = setup_raw
        metrics = {name: {"value": reported[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}
    else:
        metrics, accounting = layer_metrics(tracer, loop, cores_busy, import_ms, scipy_modules)
        problems.extend(accounting.pop("problems"))
        summary["accounting"] = accounting
        trace_path = os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.csv.gz")
        tracer.write(trace_path)
        summary["trace_file"] = os.path.relpath(trace_path, ROOT)
    summary["raw"] = raw
    summary["reported"] = reported
    summary["problems"] = problems[:50]

    result_path = os.path.join(OUT_DIR, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(result_path, "w") as handle:
        json.dump({"summary": summary, "metrics": metrics}, handle, indent=1, sort_keys=True)
    for problem in problems[:20]:
        print(f"check failed: {problem}")
    print("raw: " + json.dumps({k: round(v, 6) for k, v in sorted(raw.items())}))
    print("reported: " + json.dumps({k: round(v, 6) for k, v in sorted(reported.items())}))
    print(
        json.dumps(
            {"correct": not problems, "attempted": attempted, "failed": loop["failed"], "metrics": metrics}
        )
    )
    return 0


def layer_metrics(tracer, loop, cores_busy, import_ms, scipy_modules) -> tuple:
    ops = len(loop["walls"])
    scales = dict(enumerate(loop["scales"]))
    summary = tracing.summarize(tracer.spans, scales, threading.get_ident())
    units = per_layer_units()
    values = {}
    for name in TRACED_CALLS:
        values[f"{name}.calls"] = summary["calls"].get(name, 0) / ops
    for name in TRACED_SELF:
        values[f"{name}.self_ms"] = summary["self_s"].get(name, 0.0) * 1000.0 / ops
    batteries = summary["calls"].get("misspec.run_battery", 0)
    values["misspec.run_battery.least_squares_per_call"] = (
        summary["battery_least_squares"] / batteries if batteries else 0.0
    )
    values["process.cores_busy"] = cores_busy
    values["import.revcheck_ms"] = import_ms
    values["import.scipy_modules"] = scipy_modules

    # Accounting: main-thread self times sum to the root spans' durations;
    # the rest of each operation's wall time is untraced benchmark overhead.
    problems = []
    if summary["negative_self"]:
        problems.append(f"{summary['negative_self']} spans with negative self time")
    untraced = [wall - summary["root_s"].get(op, 0.0) for op, wall in enumerate(loop["walls"])]
    if min(untraced) < -1e-6:
        problems.append(f"traced time exceeds an operation's wall time by {-min(untraced):.2e} s")
    wall_total = sum(loop["walls"])
    accounting = {
        "ops": ops,
        "spans": len(tracer.spans),
        "wall_ms_per_op": wall_total * 1000.0 / ops,
        "traced_ms_per_op": (wall_total - sum(untraced)) * 1000.0 / ops,
        "untraced_ms_per_op": sum(untraced) * 1000.0 / ops,
        "self_ms_per_op_all": {
            name: value * 1000.0 / ops for name, value in sorted(summary["self_s"].items())
        },
        "calls_per_op_all": {name: count / ops for name, count in sorted(summary["calls"].items())},
        "problems": problems,
    }
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    return metrics, accounting


if __name__ == "__main__":
    sys.exit(main())
