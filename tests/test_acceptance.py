"""End-to-end acceptance checks for the reversal analyzer.

Each test exercises one guaranteed behavior, prints a single summary line
(visible with pytest -s), and then asserts it. Expected numbers were
computed independently before being frozen here; the timed bounds are
generous multiples of measured wall-clock times on this machine.
"""

import io
import json
import time
from contextlib import redirect_stdout

import numpy as np

from revcheck import cli
from revcheck.analysis import analyze_regression
from revcheck.bernoulli import check_event_reversal, stratified_tables_from_json, triple_from_tables
from revcheck.core_stats import Series
from revcheck.fixtures import fixture_path, optional_fixture
from revcheck.misspec import (
    BatteryConfig,
    auxiliary_trend_lag_test,
    corrected_correlation,
    homoskedasticity_check,
    linearity_check,
    normality_check,
    ordering_shift_test,
)
from revcheck.parameterization import (
    JointMoments,
    check_reversal_conditions,
    corr_from_slope,
    derive_full_params,
    derive_simple_params,
    joint_moments_from_correlations,
)
from revcheck.regression import Dataset, ModelSpec, OrderingVariable, fit
from revcheck.simulate import (
    TestDescriptor,
    TrendingPair,
    example3_generator,
    generate,
    mc_error_rate,
    naive_correlation_test,
    rng_for,
)


def report(number, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {number:02d}: {status} ({detail})")
    assert ok, f"criterion {number:02d}: {detail}"


def run_cli(argv):
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = cli.main(argv)
    return code, buffer.getvalue()


def test_criterion_01_unit_variance_derivations():
    flip = joint_moments_from_correlations(0.5, 0.7, 0.8)
    mirror = joint_moments_from_correlations(0.5, -0.7, -0.8)
    derive_full_params(flip)  # warm so the timed pass measures steady-state cost
    started = time.perf_counter()
    p_flip = derive_full_params(flip)
    p_mirror = derive_full_params(mirror)
    elapsed = time.perf_counter() - started

    worst = max(
        abs(p_flip.beta1 - (-0.167)),
        abs(p_flip.beta2 - 0.833),
        abs(p_flip.sigma_u2 - 0.5),
        abs(p_mirror.beta1 - (-0.167)),
        abs(p_mirror.beta2 - (-0.833)),
        abs(p_mirror.sigma_u2 - 0.5),
    )
    ok = worst <= 5e-4 and elapsed < 1e-3
    report(1, ok, f"max deviation {worst:.2e} <= 5e-4, both derivations in {elapsed * 1e6:.0f} us")


def test_criterion_02_prediction_matches_derived_sign_on_grid():
    # Correlations k/50 for odd k keep every pairwise value away from the
    # decision boundaries, so predicted and derived flips must agree exactly.
    # Positive definiteness of the unit-diagonal matrix is equivalent to the
    # integer inequality 25*(a^2+b^2+c^2) - a*b*c < 62500.
    ks = range(-49, 50, 2)
    sigma = np.eye(3)
    mu = np.zeros(3)
    feasible = 0
    disagreements = 0
    started = time.perf_counter()
    for a in ks:
        for b in ks:
            ab = a * b
            for c in ks:
                if 25 * (a * a + b * b + c * c) - ab * c >= 62500:
                    continue
                feasible += 1
                r12, r13, r23 = a / 50.0, b / 50.0, c / 50.0
                sigma[0, 1] = sigma[1, 0] = r12
                sigma[0, 2] = sigma[2, 0] = r13
                sigma[1, 2] = sigma[2, 1] = r23
                params = derive_full_params(JointMoments(mu=mu, sigma=sigma))
                derived_flip = (params.beta1 > 0) != (r12 > 0)
                predicted = check_reversal_conditions(r12, r13, r23).reversal_predicted
                if predicted != derived_flip:
                    disagreements += 1
    elapsed = time.perf_counter() - started
    ok = feasible == 77188 and disagreements == 0 and elapsed < 1.0
    report(2, ok, f"{feasible} feasible points, {disagreements} disagreements, {elapsed:.2f}s")


def test_criterion_03_stratified_admissions_analysis():
    argv = ["analyze-table", str(fixture_path("berkeley.json"))]
    code, out = run_cli(argv)  # warm run pays one-time costs
    started = time.perf_counter()
    code, out = run_cli(argv)
    elapsed = time.perf_counter() - started

    fragments = [
        "Verdict: Case2Untrustworthy",
        "Aggregate: male .44 vs female .35, favoring male.",
        "Strata ordering the groups the other way: A (.62 vs .82), B (.63 vs .68), "
        "D (.33 vs .35), E (.28 vs .32), F (.06 vs .07).",
        "Strata agreeing with the aggregate: C (.37 vs .34).",
        "Aggregate two-proportion z = 10.547 (p < .001).",
        "not trustworthy",
    ]
    missing = [f for f in fragments if f not in out]
    ok = code == 0 and not missing and elapsed < 0.010
    report(3, ok, f"exit {code}, {len(fragments) - len(missing)}/{len(fragments)} fragments, {elapsed * 1e3:.1f} ms")


def test_criterion_04_mirrored_event_pattern_analysis():
    path = fixture_path("lindley_novick.json")
    argv = ["analyze-table", str(path)]
    code, out = run_cli(argv)  # warm
    started = time.perf_counter()
    code, out = run_cli(argv)
    elapsed = time.perf_counter() - started

    fragments = [
        "Aggregate: white .50 vs black .40, favoring white.",
        "Strata ordering the groups the other way: short (.20 vs .30), tall (.60 vs .70).",
        "Strict event-probability reversal pattern holds (mirrored orientation).",
    ]
    missing = [f for f in fragments if f not in out]
    with open(path) as handle:
        triple = triple_from_tables(stratified_tables_from_json(json.load(handle)))
    pattern = check_event_reversal(triple)
    ok = code == 0 and not missing and pattern.pattern_holds and elapsed < 0.010
    report(
        4,
        ok,
        f"exit {code}, {len(fragments) - len(missing)}/{len(fragments)} fragments, "
        f"pattern holds {pattern.pattern_holds}, {elapsed * 1e3:.1f} ms",
    )


def test_criterion_05_serial_correlation_correction():
    path = optional_fixture("yule1926.csv")
    started = time.perf_counter()
    if path is not None:
        rows = np.genfromtxt(path, delimiter=",", names=True)
        marriage = np.asarray(rows["marriage_ratio"], dtype=float)
        mortality = np.asarray(rows["mortality"], dtype=float)
        data = Dataset(columns={"marriage_ratio": marriage, "mortality": mortality})
        result = fit(data, ModelSpec(response="mortality", regressors=("marriage_ratio",)))
        i_slope = result.index_of("marriage_ratio")
        i_const = result.index_of("intercept")
        targets = [
            (result.coefficients[i_const], -10.847),
            (result.std_errors[i_const], 1.416),
            (result.coefficients[i_slope], 0.419),
            (result.std_errors[i_slope], 0.020),
            (result.r2, 0.905),
            (result.s, 0.664),
        ]
        worst_rel = max(abs(got - want) / abs(want) for got, want in targets)
        corr = corr_from_slope(
            result.coefficients[i_slope], float(np.var(mortality, ddof=1)), float(np.var(marriage, ddof=1))
        )
        corrected = corrected_correlation(
            Series(marriage, "marriage_ratio"), Series(mortality, "mortality")
        )
        elapsed = time.perf_counter() - started
        ok = (
            result.n_used == 46
            and worst_rel <= 0.005
            and abs(corr - 0.952) < 5e-4
            and abs(corrected.rho) <= 0.05
            and corrected.p_value >= 0.5
            and elapsed < 1.0
        )
        report(
            5,
            ok,
            f"local series: worst fit deviation {worst_rel:.2%}, corr {corr:.3f}, "
            f"corrected rho {corrected.rho:+.3f} (p {corrected.p_value:.2f}), {elapsed:.2f}s",
        )
        return

    # No local historical series; cover the same property on synthetic
    # trending pairs: the naive correlation is spuriously huge, and the
    # detrended/dememorized one is within sampling noise of zero.
    naive_hits = 0
    corrected_hits = 0
    for seed in range(100):
        data = generate(TrendingPair(), seed)
        x, y = data.column("x"), data.column("y")
        rho, p = naive_correlation_test(x, y)
        if abs(rho) > 0.8 and p < 0.001:
            naive_hits += 1
        corrected = corrected_correlation(Series(x, "x"), Series(y, "y"))
        if abs(corrected.rho) <= 3.0 / np.sqrt(corrected.n_effective):
            corrected_hits += 1
    elapsed = time.perf_counter() - started
    ok = naive_hits >= 90 and corrected_hits >= 90 and elapsed < 1.0
    report(
        5,
        ok,
        f"synthetic substitute: naive spurious {naive_hits}/100, "
        f"corrected within noise {corrected_hits}/100, {elapsed:.2f}s",
    )


def test_criterion_06_check_sizes_near_nominal():
    # Null rejection rate of each adequacy check across 10,000 seeded
    # replications; with alpha = .05 the two-sided 99.9% binomial band is
    # .05 +/- .0065.
    seed = 2026
    reps = 10_000
    spec = ModelSpec(response="y", regressors=("x",))
    lo, hi = 0.0435, 0.0565

    def xy(rng, n):
        x = rng.standard_normal(n)
        y = 1.0 + 0.5 * x + rng.standard_normal(n)
        return Dataset(columns={"x": x, "y": y})

    def grouped(rng, per_group):
        n = 2 * per_group
        x = rng.standard_normal(n)
        y = 1.0 + 0.5 * x + rng.standard_normal(n)
        flags = np.concatenate([np.ones(per_group), np.zeros(per_group)])
        return Dataset(
            columns={"x": x, "y": y},
            orderings={"g": OrderingVariable("g", "binary_group", flags)},
        )

    designs = [
        ("normality n=500", lambda rng: normality_check(fit(xy(rng, 500), spec).residuals).p),
        ("linearity n=50", lambda rng: (lambda ds: linearity_check(ds, fit(ds, spec)).p)(xy(rng, 50))),
        (
            "variance ratio 25+25",
            lambda rng: (lambda ds: homoskedasticity_check(ds, fit(ds, spec), ordering="g").p)(grouped(rng, 25)),
        ),
        ("squared residuals n=250", lambda rng: (lambda ds: homoskedasticity_check(ds, fit(ds, spec)).p)(xy(rng, 250))),
        (
            "trend and lags n=600",
            lambda rng: (lambda ds: auxiliary_trend_lag_test(ds, fit(ds, spec)).p)(xy(rng, 600)),
        ),
        (
            "ordering shift 30+30",
            lambda rng: (lambda ds: ordering_shift_test(ds, fit(ds, spec), "g").p)(grouped(rng, 30)),
        ),
    ]
    started = time.perf_counter()
    rates = {}
    for label, one_p in designs:
        rejections = sum(one_p(rng_for(seed, r)) < 0.05 for r in range(reps))
        rates[label] = rejections / reps
    elapsed = time.perf_counter() - started
    ok = all(lo <= rate <= hi for rate in rates.values()) and elapsed < 120.0
    summary = ", ".join(f"{label} {rate:.4f}" for label, rate in rates.items())
    report(6, ok, f"{summary}; band [{lo}, {hi}], {elapsed:.0f}s")


def test_criterion_07_naive_test_oversize_under_trend():
    started = time.perf_counter()
    result = mc_error_rate(TrendingPair(), 2026, TestDescriptor(kind="naive_correlation"), replications=10_000)
    elapsed = time.perf_counter() - started
    ok = result.rejection_rate > 0.5 and elapsed < 60.0
    report(
        7,
        ok,
        f"rejection rate {result.rejection_rate:.3f} at nominal .05 over "
        f"{result.replications} replications, {elapsed:.1f}s",
    )


def test_criterion_08_two_group_reversal_pipeline():
    spec = ModelSpec(response="y", regressors=("x",))
    cfg = BatteryConfig()
    pattern = 0
    shift_hits = 0
    case2 = 0
    started = time.perf_counter()
    for seed in range(100):
        data = example3_generator(50, seed=seed)
        verdict, _ = analyze_regression(data, "y", ("x",), "group", cfg)
        # The per-group side points up only when every group's slope is positive.
        if (verdict.pair.marginal.direction, verdict.pair.conditional.direction) == (-1, 1):
            pattern += 1
        if ordering_shift_test(data, fit(data, spec), "group").p < 0.05:
            shift_hits += 1
        if verdict.kind == "Case2Untrustworthy":
            case2 += 1

    big = example3_generator(10_000, seed=2026)
    recovered = True
    for level, target in ((1.0, 0.409), (0.0, 0.675)):
        sub = big.take(np.flatnonzero(big.ordering("group").values == level))
        result = fit(sub, spec)
        i = result.index_of("x")
        if abs(result.coefficients[i] - target) > 3.0 * result.std_errors[i]:
            recovered = False
    elapsed = time.perf_counter() - started
    ok = pattern >= 95 and shift_hits >= 95 and case2 >= 95 and recovered and elapsed < 30.0
    report(
        8,
        ok,
        f"sign pattern {pattern}/100, shift detected {shift_hits}/100, classified Case2 "
        f"{case2}/100, large-sample slopes recovered {recovered}, {elapsed:.1f}s",
    )


def test_criterion_09_parameter_derivations_cross_check():
    rng = np.random.default_rng(909)
    worst = 0.0
    ordered = True
    started = time.perf_counter()
    for _ in range(1000):
        a = rng.standard_normal((3, 3))
        sigma = a @ a.T + 0.05 * np.eye(3)
        mu = rng.standard_normal(3)
        moments = JointMoments(mu=mu, sigma=sigma)
        params = derive_full_params(moments)
        slopes = np.linalg.solve(sigma[1:, 1:], sigma[1:, 0])
        beta0 = float(mu[0] - slopes @ mu[1:])
        sigma_u2 = float(sigma[0, 0] - sigma[1:, 0] @ slopes)
        for mine, ref in (
            (params.beta1, slopes[0]),
            (params.beta2, slopes[1]),
            (params.beta0, beta0),
            (params.sigma_u2, sigma_u2),
        ):
            worst = max(worst, abs(mine - ref) / abs(ref))
        if not params.sigma_u2 <= derive_simple_params(moments).sigma_eps2:
            ordered = False
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-12 and ordered and elapsed < 1.0
    report(
        9,
        ok,
        f"worst relative error {worst:.2e} <= 1e-12 over 1000 draws, "
        f"residual variance never exceeds the simple fit's {ordered}, {elapsed:.2f}s",
    )


def test_criterion_10_deterministic_json_output(tmp_path):
    results = {}

    argv = ["--output", "json", "analyze-table", str(fixture_path("berkeley.json"))]
    first, second = run_cli(argv), run_cli(argv)
    payload = json.loads(first[1])
    results["analyze-table"] = (
        first == second and first[0] == 0 and payload["schema"] == "reversal-report/1"
    )

    csv_path = tmp_path / "niid.csv"
    code, _ = run_cli(
        ["--seed", "2", "simulate", "niid", "--rho12", "0.5", "--rho13", "0.7",
         "--rho23", "0.8", "--n", "1000", "--out", str(csv_path)]
    )
    assert code == 0
    argv = ["--output", "json", "analyze-regression", str(csv_path), "--response", "y",
            "--regressors", "x1", "x2", "--ordering", "t:time"]
    first, second = run_cli(argv), run_cli(argv)
    payload = json.loads(first[1])
    results["analyze-regression"] = (
        first == second and first[0] == 0 and payload["schema"] == "reversal-report/1"
    )

    argv = ["--output", "json", "reverse-conditions", "0.5", "0.7", "0.8"]
    first, second = run_cli(argv), run_cli(argv)
    payload = json.loads(first[1])
    results["reverse-conditions"] = (
        first == second and first[0] == 0 and payload["reversal_predicted"] is True
    )

    argv = ["--seed", "7", "--output", "json", "simulate", "mc-size", "--dgp", "trending",
            "--reps", "1000"]
    first, second = run_cli(argv), run_cli(argv)
    threaded = run_cli(argv + ["--threads", "4"])
    payload = json.loads(first[1])
    results["mc-size"] = (
        first == second
        and threaded == first
        and first[0] == 0
        and payload["replications"] == 1000
        and payload["rejection_rate"] > 0.5
    )

    ok = all(results.values())
    detail = ", ".join(f"{name} {'ok' if good else 'MISMATCH'}" for name, good in results.items())
    report(10, ok, detail)
