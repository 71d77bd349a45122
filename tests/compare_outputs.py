"""Compare revcheck's command-line output across source trees, byte for byte.

Usage:

    python tests/compare_outputs.py PARENT_TREE CHANGE_TREE --seeds 1 2 3 7
    python tests/compare_outputs.py TREE --seeds 1 2 3 7

For each seed it builds every operation of the three benchmark workloads
once with perfbench/inputs.build_round (read from the checkout holding this
script, in a temporary directory), runs each both as the benchmark does
(`--output json`) and in the text format, and adds the four `simulate`
generator commands. Once for all seeds it adds `reverse-conditions` in both
formats and a few error exits. Each tree runs all of them through
`revcheck.cli.main`, in one fresh interpreter that imports revcheck from
the tree's src/. Every call whose exit code, stdout or stderr differs is
listed, and the script exits 1 if there is any. Given one tree, it runs
that tree twice, which checks that the same flags and seed give the same
output.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

CHECKOUT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(CHECKOUT / "perfbench"))

from inputs import WORKLOADS, build_round  # noqa: E402

GENERATORS = (
    ["simulate", "bernoulli", "--theta", "0.5", "--n", "100"],
    ["simulate", "example3", "--n-per-group", "50"],
    ["simulate", "niid", "--rho12", "0.5", "--rho13", "0.7", "--rho23", "0.8", "--n", "200"],
    ["simulate", "trending", "--n", "46"],
)

# Calls that read no seed: a derivation in both formats, and error exits.
EXTRAS = (
    ["reverse-conditions", ".5", ".7", ".8"],
    ["--output", "json", "reverse-conditions", ".5", ".7", ".8"],
    ["reverse-conditions", "2", "0", "0"],
    ["--seed", "1", "simulate", "mc-size", "--dgp", "trending", "--reps", "999"],
)

# A table family without its "strata" key.
MISSING_KEY_TABLE = {
    "aggregate": {"labels": {"rows": ["yes", "no"], "cols": ["a", "b"]}, "counts": [[5, 3], [5, 7]]},
    "complete": True,
}

# Runs each argv read from stdin through cli.main and writes, as JSON, the
# module's path and one [exit code, stdout, stderr] per call.
WORKER = """
import contextlib, io, json, sys
from revcheck import cli
results = []
for argv in json.load(sys.stdin):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    results.append([code, out.getvalue(), err.getvalue()])
json.dump({"module": cli.__file__, "results": results}, sys.stdout)
"""


def calls(seeds: list, workdir: Path) -> list:
    """(label, argv) of every call, benchmark operations first."""
    found = []
    for seed in seeds:
        for workload in WORKLOADS:
            folder = workdir / f"{workload}-{seed}"
            folder.mkdir()
            for i, op in enumerate(build_round(workload, seed, str(folder), threads=1)):
                # A size-study operation is a list of argvs, one per cell.
                argvs = op.argv if isinstance(op.argv[0], list) else [op.argv]
                for j, argv in enumerate(argvs):
                    found.append((f"{workload} seed {seed} op {i}.{j} ({op.kind})", argv))
                    found.append((f"{workload} seed {seed} op {i}.{j} ({op.kind}, text)", _as_text(argv)))
        for argv in GENERATORS:
            found.append((f"generator seed {seed} ({argv[1]})", ["--seed", str(seed), *argv]))
    missing_key = workdir / "missing-key.json"
    missing_key.write_text(json.dumps(MISSING_KEY_TABLE))
    extras = [
        *EXTRAS,
        ["analyze-regression", str(workdir / "missing.csv"), "--response", "y", "--regressors", "x"],
        ["analyze-table", str(missing_key)],
    ]
    found.extend((f"extra {' '.join(argv)}", argv) for argv in extras)
    return found


def _as_text(argv: list) -> list:
    """A benchmark argv with its `--output json` dropped, so it renders text."""
    i = argv.index("--output")
    return argv[:i] + argv[i + 2 :]


def run_tree(tree: Path, argvs: list, workdir: Path) -> list:
    """[exit code, stdout, stderr] of each argv, run by the tree's revcheck."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", WORKER],
        input=json.dumps(argvs),
        capture_output=True,
        text=True,
        cwd=workdir,
        env=env,
        check=True,
    )
    report = json.loads(proc.stdout)
    if not Path(report["module"]).resolve().is_relative_to(tree / "src"):
        raise SystemExit(f"{tree}: imported revcheck from {report['module']}, not from its src/")
    return report["results"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("trees", nargs="+", type=Path, help="one or two source trees")
    parser.add_argument("--seeds", nargs="+", type=int, default=[7])
    args = parser.parse_args(argv)
    if len(args.trees) > 2:
        parser.error("give one or two trees")
    trees = [tree.resolve() for tree in args.trees]
    if len(trees) == 1:
        trees = trees * 2
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        labelled = calls(args.seeds, workdir)
        argvs = [argv for _, argv in labelled]
        before, after = (run_tree(tree, argvs, workdir) for tree in trees)
    fields = ("exit code", "stdout", "stderr")
    differing = 0
    for (label, argv), old, new in zip(labelled, before, after):
        changed = [name for name, a, b in zip(fields, old, new) if a != b]
        if changed:
            differing += 1
            print(f"{label}: {', '.join(changed)} differ\n  revcheck {' '.join(argv)}")
    print(f"{differing} of {len(labelled)} calls differ ({trees[0]} vs {trees[1]})")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
