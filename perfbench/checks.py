"""Output checks made apart from the program.

Directions and p-values are recomputed from the generated inputs with
numpy.linalg.lstsq and scipy.stats; verdicts are re-derived from the
report's own statuses by the classification rule; size-study rates are held
to properties the method must have. Nothing is compared with a stored copy
of earlier output. Each check returns a list of problems (empty when the
output is right).

This module imports scipy.stats, so the benchmark loads it only after the
timed region: the program's own import cost must not be paid in advance.
"""

from __future__ import annotations

import json
import math

import numpy as np
from scipy import stats

from inputs import ALPHA, LAGS, MC_CELLS, MC_REPS, TREND_DEGREE

SCHEMA = "reversal-report/1"
RTOL = 1e-6
ATOL = 1e-9


def _close(a, b) -> bool:
    return abs(a - b) <= ATOL + RTOL * abs(b)


def _ols_slope(y, regressors):
    """Slope of the first regressor and its two-sided t-test p-value."""
    X = np.column_stack([np.ones(len(y))] + list(regressors))
    beta, _, _, _ = np.linalg.lstsq(X, y, rcond=None)
    resid = y - X @ beta
    df = len(y) - X.shape[1]
    s2 = float(resid @ resid) / df
    se = math.sqrt(s2 * np.linalg.inv(X.T @ X)[1, 1])
    t = beta[1] / se
    return float(beta[1]), float(2.0 * stats.t.sf(abs(t), df))


def _residuals(design, y):
    beta, _, _, _ = np.linalg.lstsq(design, y, rcond=None)
    return y - design @ beta


def _corrected(x, y):
    """Detrend (degree TREND_DEGREE in t/n), dememorize (LAGS own lags), correlate."""
    n = len(x)
    s = np.arange(1, n + 1) / n
    trend = np.column_stack([s**k for k in range(TREND_DEGREE + 1)])
    cleaned = []
    for v in (x, y):
        r = _residuals(trend, v)
        rows = np.arange(LAGS, n)
        lagged = np.column_stack([np.ones(len(rows))] + [r[rows - k] for k in range(1, LAGS + 1)])
        cleaned.append(_residuals(lagged, r[rows]))
    rho = float(np.corrcoef(cleaned[0], cleaned[1])[0, 1])
    df = len(cleaned[0]) - 2
    t = rho * math.sqrt(df / (1.0 - rho * rho))
    return rho, float(2.0 * stats.t.sf(abs(t), df))


def expected_verdict(payload: dict) -> str:
    """The classification rule applied to a report's own directions and statuses."""
    m, c = payload["marginal"], payload["conditional"]
    if m["direction"] == c["direction"]:
        return "NoReversal"
    statuses = [
        entry["status"] for side in ("marginal", "conditional") for entry in payload["assumptions"][side].values()
    ]
    if "fail" in statuses:
        return "Case2Untrustworthy"
    if "untested" in statuses:
        return "Indeterminate"
    if m["p_value"] >= payload["alpha"] or c["p_value"] >= payload["alpha"]:
        return "NoReversal"
    return "Case1Trustworthy"


def _side(problems, name, reported, direction, p):
    if reported["direction"] != direction:
        problems.append(f"{name} direction {reported['direction']} != {direction}")
    if not _close(reported["p_value"], p):
        problems.append(f"{name} p {reported['p_value']!r} != {p!r}")


def _report_problems(payload) -> list:
    problems = []
    if payload.get("schema") != SCHEMA:
        problems.append(f"schema {payload.get('schema')!r}")
    if payload["alpha"] != ALPHA:
        problems.append(f"alpha {payload['alpha']!r}")
    for side in ("marginal", "conditional"):
        for label, entry in payload["assumptions"][side].items():
            status, p = entry["status"], entry["p_value"]
            consistent = (
                (status == "untested" and p is None)
                or (status == "pass" and p is not None and p >= ALPHA)
                or (status == "fail" and p is not None and p < ALPHA)
            )
            if not consistent:
                problems.append(f"{side} {label}: status {status} with p {p!r}")
    want = expected_verdict(payload)
    if payload["verdict"] != want:
        problems.append(f"verdict {payload['verdict']} but the rule gives {want}")
    return problems


def _sign(value) -> int:
    return int(np.sign(value))


def check_regression(kind: str, data: dict, text: str) -> list:
    payload = json.loads(text)
    problems = _report_problems(payload)
    x = data["x1"] if kind == "two_regressors" else data["x"]
    slope, p = _ols_slope(data["y"], [x])
    _side(problems, "marginal", payload["marginal"], _sign(slope), p)
    if kind == "two_regressors":
        slope, p = _ols_slope(data["y"], [data["x1"], data["x2"]])
        _side(problems, "conditional", payload["conditional"], _sign(slope), p)
    elif kind == "by_group":
        signs, ps = [], []
        for level in (0.0, 1.0):
            rows = data["group"] == level
            slope, p = _ols_slope(data["y"][rows], [data["x"][rows]])
            signs.append(_sign(slope))
            ps.append(p)
        shared = signs[0] if all(s == signs[0] for s in signs) else 0
        _side(problems, "conditional", payload["conditional"], shared, max(ps))
    else:
        rho, p = _corrected(data["x"], data["y"])
        _side(problems, "conditional", payload["conditional"], _sign(rho), p)
    return problems


def _two_proportion_p(s0, n0, s1, n1):
    pooled = (s0 + s1) / (n0 + n1)
    if pooled in (0.0, 1.0):
        return None
    z = (s0 / n0 - s1 / n1) / math.sqrt(pooled * (1.0 - pooled) * (1.0 / n0 + 1.0 / n1))
    return float(2.0 * stats.norm.sf(abs(z)))


def check_table(data: dict, text: str) -> list:
    payload = json.loads(text)
    problems = _report_problems(payload)
    obj = data["tables"]
    agg = np.array(obj["aggregate"]["counts"])
    strata = [np.array(entry["counts"]) for entry in obj["strata"]]

    s0, s1 = agg[0]
    n0, n1 = agg.sum(axis=0)
    _side(problems, "marginal", payload["marginal"], _sign(s0 / n0 - s1 / n1), _two_proportion_p(s0, n0, s1, n1))

    signs = [_sign(c[0, 0] / c[:, 0].sum() - c[0, 1] / c[:, 1].sum()) for c in strata]
    positives, negatives = signs.count(1), signs.count(-1)
    majority = 1 if positives > negatives else -1 if negatives > positives else 0
    ps = []
    for c in strata:
        p = _two_proportion_p(c[0, 0], c[:, 0].sum(), c[0, 1], c[:, 1].sum())
        ps.append(1.0 if p is None else p)
    _side(problems, "conditional", payload["conditional"], majority, min(ps))

    if len(strata) >= 2:
        homogeneity = []
        for col in (0, 1):
            observed = np.array([[c[0, col], c[1, col]] for c in strata])
            homogeneity.append(stats.chi2_contingency(observed, correction=False).pvalue)
        for label in ("[2] constant mean", "[3] constant variance"):
            reported = payload["assumptions"]["marginal"][label]["p_value"]
            if reported is None or not _close(reported, min(homogeneity)):
                problems.append(f"homogeneity {label} p {reported!r} != {min(homogeneity)!r}")
    if data["name"] == "berkeley" and payload["verdict"] != "Case2Untrustworthy":
        problems.append(f"Berkeley verdict {payload['verdict']}, the paper finds Case2Untrustworthy")
    return problems


def check_size_study(seed: int, texts: list) -> list:
    """Size-table properties: naive oversized, coefficient test near alpha,
    corrected far below naive."""
    problems = []
    rates = {}
    for (dgp, test, _n), text in zip(MC_CELLS, texts):
        payload = json.loads(text)
        if payload["seed"] != seed or payload["dgp"] != dgp or payload["replications"] != MC_REPS:
            problems.append(f"{test}: header {payload['seed']}, {payload['dgp']}, {payload['replications']}")
        if not _close(payload["rejection_rate"], payload["rejections"] / MC_REPS):
            problems.append(f"{test}: rate {payload['rejection_rate']} != {payload['rejections']}/{MC_REPS}")
        rates[test] = payload["rejections"] / MC_REPS
    se = math.sqrt(ALPHA * (1.0 - ALPHA) / MC_REPS)
    if not rates["naive-correlation"] > 0.5:
        problems.append(f"naive rate {rates['naive-correlation']} is not above 0.5")
    if not abs(rates["coefficient"] - ALPHA) <= 4 * se:
        problems.append(f"coefficient rate {rates['coefficient']} is more than 4 MC se from {ALPHA}")
    if not rates["corrected-correlation"] < rates["naive-correlation"] / 4:
        problems.append(
            f"corrected rate {rates['corrected-correlation']} is not far below naive {rates['naive-correlation']}"
        )
    return problems


def rejections(texts: list) -> list:
    return [json.loads(text)["rejections"] for text in texts]


def check(op, output) -> list:
    """Problems with one operation's output (a list of texts for a size study)."""
    if op.kind == "table":
        return check_table(op.data, output)
    if op.kind == "size_study":
        return check_size_study(op.data["seed"], output)
    return check_regression(op.kind, op.data, output)
