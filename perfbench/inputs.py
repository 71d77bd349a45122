"""Seeded benchmark inputs, built with numpy alone.

Nothing here imports revcheck: a change to the program cannot change what
the benchmark feeds it. Every workload's operations are a fixed list (one
"round") whose structure -- kinds, row counts, strata counts -- is the same
for every seed; the seed only draws the values. That keeps per-operation
call counts identical from run to run.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

WORKLOADS = ("small_screen", "large_screen", "mc_size_study")

# Counts of the two tables the paper analyses. Outcome rows (success first)
# by two groups; strata follow the aggregate.
BERKELEY = {
    "aggregate": {
        "labels": {"rows": ["admit", "deny"], "cols": ["male", "female"]},
        "counts": [[3738, 1494], [4704, 2827]],
    },
    "strata": [
        {"name": "A", "counts": [[512, 89], [313, 19]]},
        {"name": "B", "counts": [[353, 17], [207, 8]]},
        {"name": "C", "counts": [[120, 202], [205, 391]]},
        {"name": "D", "counts": [[139, 131], [278, 244]]},
        {"name": "E", "counts": [[53, 94], [138, 199]]},
        {"name": "F", "counts": [[22, 23], [351, 318]]},
    ],
    "complete": False,
}
LINDLEY_NOVICK = {
    "aggregate": {
        "labels": {"rows": ["high", "low"], "cols": ["white", "black"]},
        "counts": [[20, 16], [20, 24]],
    },
    "strata": [
        {"name": "short", "counts": [[2, 9], [8, 21]]},
        {"name": "tall", "counts": [[18, 7], [12, 3]]},
    ],
    "complete": True,
}

# Trend shapes of the classic trending pair (marriage ratio, mortality):
# polynomial coefficients in s = t/n, constant first.
_TREND_X = (76.0, -10.0, 0.0, -6.0)
_TREND_Y = (23.4, -5.0, 0.0, -4.0)
_AR = 0.8
_INNOVATION_SD = (0.6, 0.35)

# NIID correlations (rho_y,x1, rho_y,x2, rho_x1,x2) at which the x1 slope
# flips once x2 is added.
_NIID_RHO = (0.5, 0.7, 0.8)

# Two-group income example: (group 1, group 0) lines and regressor means.
_GROUP_INTERCEPTS = (45.2, 35.1)
_GROUP_SLOPES = (0.41, 0.68)
_GROUP_NOISE_SDS = (2.4, 2.1)
_GROUP_X_MEANS = (13.0, 17.0)
_GROUP_X_SD = 2.0

ALPHA = 0.05
TREND_DEGREE = 3
LAGS = 2

# The size study: replications per run and the three (dgp, test, n) cells
# of the paper's size table.
MC_REPS = 1000
MC_CELLS = (
    ("trending", "naive-correlation", 46),
    ("trending", "corrected-correlation", 46),
    ("niid", "coefficient", 100),
)


@dataclass
class Op:
    """One CLI invocation plus what its output check needs."""

    kind: str
    argv: list
    data: dict = field(default_factory=dict)


def _rng(seed: int, workload: str) -> np.random.Generator:
    tag = WORKLOADS.index(workload)
    return np.random.default_rng(np.random.SeedSequence([int(seed), tag]))


def _ar1(rng, n, sd):
    marginal = sd / np.sqrt(1.0 - _AR * _AR)
    state = marginal * rng.standard_normal()
    out = np.empty(n)
    for t, e in enumerate(sd * rng.standard_normal(n)):
        state = _AR * state + e
        out[t] = state
    return out


def trending_pair(rng, n):
    s = np.arange(1, n + 1) / n
    x = np.polynomial.polynomial.polyval(s, _TREND_X) + _ar1(rng, n, _INNOVATION_SD[0])
    y = np.polynomial.polynomial.polyval(s, _TREND_Y) + _ar1(rng, n, _INNOVATION_SD[1])
    return {"t": np.arange(1, n + 1, dtype=float), "x": x, "y": y}


def two_group(rng, n_per_group):
    xs, ys, gs = [], [], []
    for i, g in enumerate((1.0, 0.0)):
        x = _GROUP_X_MEANS[i] + _GROUP_X_SD * rng.standard_normal(n_per_group)
        y = _GROUP_INTERCEPTS[i] + _GROUP_SLOPES[i] * x + _GROUP_NOISE_SDS[i] * rng.standard_normal(n_per_group)
        xs.append(x)
        ys.append(y)
        gs.append(np.full(n_per_group, g))
    return {"group": np.concatenate(gs), "x": np.concatenate(xs), "y": np.concatenate(ys)}


def niid(rng, n):
    r12, r13, r23 = _NIID_RHO
    corr = np.array([[1.0, r12, r13], [r12, 1.0, r23], [r13, r23, 1.0]])
    draws = rng.standard_normal((n, 3)) @ np.linalg.cholesky(corr).T
    return {"t": np.arange(1, n + 1, dtype=float), "y": draws[:, 0], "x1": draws[:, 1], "x2": draws[:, 2]}


def stratified_table(rng, strata):
    """A complete family; every stratum column has 1 .. total-1 successes."""
    rows = []
    for _ in range(strata):
        totals = rng.integers(20, 400, size=2)
        rates = rng.uniform(0.1, 0.9, size=2)
        successes = 1 + rng.binomial(totals - 2, rates)
        rows.append([successes.tolist(), (totals - successes).tolist()])
    counts = np.array(rows).sum(axis=0).tolist()
    return {
        "aggregate": {"labels": {"rows": ["yes", "no"], "cols": ["a", "b"]}, "counts": counts},
        "strata": [{"name": f"s{i}", "counts": c} for i, c in enumerate(rows)],
        "complete": True,
    }


def _write_csv(path, columns: dict) -> None:
    names = list(columns)
    block = np.column_stack([columns[name] for name in names])
    with open(path, "w") as handle:
        handle.write(",".join(names) + "\n")
        for row in block:
            handle.write(",".join(repr(float(v)) for v in row) + "\n")


def _regression_op(workdir, name, kind, columns) -> Op:
    path = os.path.join(workdir, name + ".csv")
    _write_csv(path, columns)
    argv = ["--output", "json", "analyze-regression", path, "--response", "y"]
    if kind == "corrected":
        argv += ["--regressors", "x", "--ordering", "t:time"]
    elif kind == "by_group":
        argv += ["--regressors", "x", "--ordering", "group", "--by-group", "group"]
    else:
        argv += ["--regressors", "x1", "x2", "--ordering", "t:time"]
    return Op(kind=kind, argv=argv, data=columns)


def _table_op(workdir, name, obj) -> Op:
    path = os.path.join(workdir, name + ".json")
    with open(path, "w") as handle:
        json.dump(obj, handle)
    return Op(kind="table", argv=["--output", "json", "analyze-table", path], data={"name": name, "tables": obj})


def _screen_round(rng, workdir, per_kind, n_trend, n_per_group, n_niid, strata_counts, bundled):
    ops = []
    for i in range(per_kind):
        ops.append(_regression_op(workdir, f"trend{i}", "corrected", trending_pair(rng, n_trend)))
        ops.append(_regression_op(workdir, f"group{i}", "by_group", two_group(rng, n_per_group)))
        ops.append(_regression_op(workdir, f"niid{i}", "two_regressors", niid(rng, n_niid)))
    if bundled:
        ops.append(_table_op(workdir, "berkeley", BERKELEY))
        ops.append(_table_op(workdir, "lindley_novick", LINDLEY_NOVICK))
    for k in strata_counts:
        ops.append(_table_op(workdir, f"strata{k}", stratified_table(rng, k)))
    order = rng.permutation(len(ops))
    ops = [ops[i] for i in order]
    # A trending-pair analysis leads every round, so the set-up measurement
    # (fresh interpreter through the first operation) is the same kind of
    # work whatever the seed.
    first = next(i for i, op in enumerate(ops) if op.kind == "corrected")
    ops.insert(0, ops.pop(first))
    return ops


def mc_study_seed(seed: int) -> int:
    return int(np.random.SeedSequence([int(seed), WORKLOADS.index("mc_size_study")]).generate_state(1)[0])


def mc_argv(seed: int, dgp: str, test: str, n: int, threads: int) -> list:
    return [
        "--seed", str(seed), "--output", "json", "simulate", "mc-size",
        "--dgp", dgp, "--test", test, "--n", str(n),
        "--reps", str(MC_REPS), "--threads", str(threads),
    ]


def build_round(workload: str, seed: int, workdir: str, threads: int) -> list:
    """The list of operations one round of a workload runs, in order."""
    if workload == "small_screen":
        return _screen_round(_rng(seed, workload), workdir, 6, 46, 50, 200, range(2, 13), bundled=True)
    if workload == "large_screen":
        return _screen_round(_rng(seed, workload), workdir, 2, 5000, 2500, 5000, (200, 300, 400), bundled=False)
    if workload == "mc_size_study":
        # One operation is the whole size table; its only input is the seed
        # handed to revcheck's own generators, which are what it measures.
        study = mc_study_seed(seed)
        argvs = [mc_argv(study, dgp, test, n, threads) for dgp, test, n in MC_CELLS]
        return [Op(kind="size_study", argv=argvs, data={"seed": study})]
    raise ValueError(f"unknown workload {workload!r}")
