import json
import math
import os
import subprocess
import sys
import textwrap
import warnings

import numpy as np
import pytest
from scipy import stats

import revcheck
from revcheck import misspec, regression
from revcheck.core_stats import Series, StudentT, tail_prob
from revcheck.errors import (
    DegenerateData,
    GroupTooSmall,
    MismatchedInputs,
    NonFiniteInput,
    TooFewResiduals,
    Underdetermined,
)
from revcheck.misspec import (
    BatteryConfig,
    auxiliary_trend_lag_test,
    corrected_correlation,
    dememorize,
    detrend,
    homoskedasticity_check,
    linearity_check,
    merge_reports,
    normality_check,
    ordering_shift_test,
    run_battery,
)
from revcheck.regression import Dataset, ModelSpec, OrderingVariable, fit
from revcheck.verdict import FAIL, PASS, UNTESTED, MisspecReport, assess_assumptions


def classical_added_variable_f(y, base_cols, added_cols):
    """Textbook F for added regressors, from the original response.

    The implementation under test regresses residuals instead; the two
    routes are algebraically identical, which this oracle verifies.
    """
    n = len(y)
    X = np.column_stack([np.ones(n)] + list(base_cols))
    XZ = np.column_stack([X] + list(added_cols))

    def rss(A):
        coef, *_ = np.linalg.lstsq(A, y, rcond=None)
        r = y - A @ coef
        return float(r @ r)

    rss_r, rss_f = rss(X), rss(XZ)
    q = XZ.shape[1] - X.shape[1]
    return ((rss_r - rss_f) / q) / (rss_f / (n - XZ.shape[1]))


def iid_dataset(seed, n=120, orderings="both"):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n)
    y = 1.0 + 0.5 * x + rng.standard_normal(n)
    ords = {}
    if orderings in ("both", "time"):
        ords["t"] = OrderingVariable("t", "time", np.arange(1.0, n + 1.0))
    if orderings in ("both", "group"):
        ords["g"] = OrderingVariable("g", "binary_group", np.repeat([1.0, 0.0], n // 2))
    return Dataset(columns={"y": y, "x": x}, orderings=ords)


SPEC = ModelSpec(response="y", regressors=("x",))


def test_detrend_kills_polynomial_trend():
    n = 50
    s = np.arange(1.0, n + 1.0) / n
    series = Series(4.0 - 3.0 * s + 2.0 * s**2 - s**3, "trend")
    resid = detrend(series, degree=3)
    assert np.max(np.abs(resid.values)) < 1e-9


def test_detrend_residuals_orthogonal_to_trend_columns():
    rng = np.random.default_rng(8)
    n = 80
    series = Series(rng.standard_normal(n))
    resid = detrend(series, degree=2)
    s = np.arange(1.0, n + 1.0) / n
    for col in (np.ones(n), s, s**2):
        assert abs(col @ resid.values) < 1e-8


def test_dememorize_shape_and_orthogonality():
    rng = np.random.default_rng(9)
    n = 100
    series = Series(rng.standard_normal(n))
    out = dememorize(series, lags=2)
    assert len(out.values) == n - 2
    original = series.values
    for k in (1, 2):
        lagged = original[2 - k : n - k]
        assert abs(lagged @ out.values) < 1e-8


def test_dememorize_too_short():
    with pytest.raises(Underdetermined):
        dememorize(Series([1.0, 2.0, 3.0]), lags=2)


def test_corrected_correlation_deflates_spurious_pair():
    rng = np.random.default_rng(3)
    n = 60
    s = np.arange(1.0, n + 1.0) / n
    x = 10.0 + 5.0 * s + 0.3 * rng.standard_normal(n)
    y = -2.0 + 4.0 * s + 0.3 * rng.standard_normal(n)
    naive = np.corrcoef(x, y)[0, 1]
    assert naive > 0.9
    out = corrected_correlation(Series(x), Series(y), BatteryConfig())
    assert abs(out.rho) < 0.3
    assert out.n_effective == n - 2
    # p recomputed from the t transform it reports through
    df = out.n_effective - 2
    t = out.rho * math.sqrt(df / (1 - out.rho**2))
    assert math.isclose(out.p_value, tail_prob(StudentT(df), t, "two"), rel_tol=1e-12)


def test_corrected_correlation_keeps_genuine_link():
    rng = np.random.default_rng(4)
    n = 200
    x = rng.standard_normal(n)
    y = x + 0.1 * rng.standard_normal(n)
    out = corrected_correlation(Series(x), Series(y), BatteryConfig())
    assert out.rho > 0.9
    assert out.p_value < 1e-6


@pytest.mark.parametrize("flat, label, named", [("x", "cubic", "cubic"), ("y", "", "y"), ("x", "", "x")])
def test_corrected_correlation_names_a_series_detrended_to_constant(flat, label, named):
    # An exact cubic in time has nothing left after degree-3 detrending.
    rng = np.random.default_rng(5)
    t = np.arange(1.0, 47.0)
    series = {"x": Series(rng.standard_normal(46), "x"), "y": Series(rng.standard_normal(46))}
    series[flat] = Series(1900.0 + t - 0.05 * t**2 + 0.001 * t**3, label)
    with pytest.raises(Underdetermined) as caught:
        corrected_correlation(series["x"], series["y"], BatteryConfig())
    assert str(caught.value) == (
        f"detrending of degree 3 (--trend-degree) leaves {named!r} constant, "
        "so the corrected correlation cannot be computed"
    )


def test_normality_check_behavior():
    rng = np.random.default_rng(12)
    assert normality_check(rng.standard_normal(500)).p >= 0.05
    assert normality_check(rng.exponential(size=500)).p < 0.05
    with pytest.raises(MismatchedInputs, match="residuals must be one-dimensional"):
        normality_check(np.ones((4, 4)))
    with pytest.raises(TooFewResiduals, match="normality check needs n >= 8, got 7"):
        normality_check(np.arange(7.0))
    with pytest.raises(DegenerateData, match="residuals contain non-finite values"):
        normality_check(np.r_[np.arange(9.0), np.nan])
    with pytest.raises(DegenerateData, match="residuals are numerically constant"):
        normality_check(np.ones(50))


NORMALITY_SHAPES = {
    "normal": lambda rng, n: rng.standard_normal(n),
    "exponential": lambda rng, n: rng.exponential(size=n),
    "t3": lambda rng, n: rng.standard_t(3, size=n),
    "uniform": lambda rng, n: rng.uniform(size=n),
}

NORMALITY_EDGE_SAMPLES = [
    np.arange(9.0),  # zero skewness: the skew transform's y == 0 branch
    np.tile([-1.0, 1.0], 100),  # kurtosis 1: the kurtosis transform's denominator is negative
    np.r_[np.zeros(40), 1.0, 1.0, 1.0, 5.0, -3.0, 2.0],  # heavy tails, p far into the upper tail
]


def assert_matches_normaltest(u):
    # rtol 1e-12 rather than equality: scipy's moment code has changed in
    # the last bit across the releases pyproject.toml allows.
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # below n = 20 too, no warning may leak
        check = normality_check(u)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # scipy warns that kurtosistest is rough below n = 20
        stat, p = stats.normaltest(u)
    assert check.stat == pytest.approx(float(stat), rel=1e-12)
    assert check.p == pytest.approx(float(p), rel=1e-12)
    assert (check.p >= 0.05) == (p >= 0.05)


@pytest.mark.parametrize("shape", sorted(NORMALITY_SHAPES))
@pytest.mark.parametrize("n", [8, 9, 19, 20, 46, 200, 5000])
def test_normality_check_matches_scipy_normaltest(shape, n):
    rng = np.random.default_rng(n)
    assert_matches_normaltest(3.0 * NORMALITY_SHAPES[shape](rng, n) + 10.0)


@pytest.mark.parametrize("u", NORMALITY_EDGE_SAMPLES, ids=["zero-skew", "negative-denom", "heavy-tails"])
def test_normality_check_matches_scipy_on_edge_samples(u):
    assert_matches_normaltest(u)


def test_linearity_check_behavior():
    rng = np.random.default_rng(21)
    n = 150
    x = rng.standard_normal(n)
    curved = Dataset(columns={"y": x**2 + 0.2 * rng.standard_normal(n), "x": x}, orderings={})
    base = fit(curved, SPEC)
    assert linearity_check(curved, base).p < 1e-6

    straight = iid_dataset(24, orderings="none")
    assert linearity_check(straight, fit(straight, SPEC)).p > 0.05


def test_homoskedasticity_grouped_behavior():
    rng = np.random.default_rng(31)
    n = 40
    x = rng.standard_normal(2 * n)
    scale = np.repeat([1.0, 4.0], n)
    y = 1.0 + 0.5 * x + scale * rng.standard_normal(2 * n)
    data = Dataset(
        columns={"y": y, "x": x},
        orderings={"g": OrderingVariable("g", "binary_group", np.repeat([1.0, 0.0], n))},
    )
    check = homoskedasticity_check(data, fit(data, SPEC), ordering="g")
    assert check.p < 0.05

    calm = iid_dataset(32, orderings="group")
    assert homoskedasticity_check(calm, fit(calm, SPEC), ordering="g").p >= 0.05


def test_homoskedasticity_regression_fallback():
    rng = np.random.default_rng(33)
    n = 300
    x = rng.standard_normal(n)
    y = 1.0 + 0.5 * x + np.sqrt(0.2 + x**2) * rng.standard_normal(n)
    data = Dataset(columns={"y": y, "x": x}, orderings={})
    assert homoskedasticity_check(data, fit(data, SPEC)).p < 0.05

    calm = iid_dataset(34, orderings="none")
    assert homoskedasticity_check(calm, fit(calm, SPEC)).p >= 0.05


def _reference_variance_ratio(data, regressors, ordering):
    """Two independent group fits by lstsq and the two-sided F p of the
    ratio of their residual variances, the first sorted level's on top."""
    values = data.ordering(ordering).values
    variances, dfs = [], []
    for level in sorted(set(values.tolist())):
        rows = values == level
        X = np.column_stack([np.ones(rows.sum())] + [data.column(name)[rows] for name in regressors])
        y = data.column("y")[rows]
        coef, *_ = np.linalg.lstsq(X, y, rcond=None)
        r = y - X @ coef
        dfs.append(len(y) - X.shape[1])
        variances.append(float(r @ r) / dfs[-1])
    f = variances[0] / variances[1]
    p = 2 * min(stats.f.sf(f, *dfs), stats.f.cdf(f, *dfs))
    return f, p


@pytest.mark.parametrize("kind", ["binary_group", "categorical"])
@pytest.mark.parametrize("regressors", [("x",), ("x", "z")])
def test_variance_ratio_matches_two_lstsq_group_fits(kind, regressors):
    # Unequal, interleaved groups of 17 and 31 rows, the larger noisier.
    rng = np.random.default_rng(35)
    member = rng.permutation(np.repeat([0.0, 1.0], [17, 31]))
    x, z = rng.standard_normal(48), rng.standard_normal(48)
    y = 1.0 + 0.5 * x - 0.3 * z + (1.0 + member) * rng.standard_normal(48)
    values = member if kind == "binary_group" else np.where(member == 1.0, "lo", "hi").astype(object)
    data = Dataset(columns={"y": y, "x": x, "z": z}, orderings={"g": OrderingVariable("g", kind, values)})
    check = homoskedasticity_check(data, fit(data, ModelSpec(response="y", regressors=regressors)), ordering="g")
    f, p = _reference_variance_ratio(data, regressors, "g")
    assert math.isclose(check.stat, f, rel_tol=1e-9)
    assert math.isclose(check.p, p, rel_tol=1e-9)


def test_group_with_a_constant_regressor_falls_back_to_the_variance_regression():
    # x is constant in group 0, so that group cannot identify its own slope.
    rng = np.random.default_rng(36)
    g = np.repeat([0.0, 1.0], 30)
    x = np.where(g == 0.0, 2.0, rng.standard_normal(60))
    data = Dataset(
        columns={"y": 1.0 + 0.5 * x + rng.standard_normal(60), "x": x},
        orderings={"g": OrderingVariable("g", "binary_group", g)},
    )
    report = run_battery(data, fit(data, SPEC), BatteryConfig())
    names = [name for name, _ in report.evidence]
    assert "variance-ratio(g)" not in names
    assert "variance-regression" in names
    assert report.per_assumption["[3] homoskedasticity"] in (PASS, FAIL)
    assert report.p_values["[3] homoskedasticity"] is not None


def test_trend_lag_flags_serial_dependence():
    rng = np.random.default_rng(41)
    n = 200
    u = np.empty(n)
    u[0] = rng.standard_normal() / math.sqrt(1 - 0.8**2)
    for t in range(1, n):
        u[t] = 0.8 * u[t - 1] + rng.standard_normal()
    x = rng.standard_normal(n)
    data = Dataset(
        columns={"y": 1.0 + 0.5 * x + u, "x": x},
        orderings={"t": OrderingVariable("t", "time", np.arange(1.0, n + 1.0))},
    )
    aux = auxiliary_trend_lag_test(data, fit(data, SPEC), BatteryConfig())
    assert aux.p < 1e-6

    calm = iid_dataset(42, orderings="time")
    calm_aux = auxiliary_trend_lag_test(calm, fit(calm, SPEC), BatteryConfig())
    assert calm_aux.p > 0.05
    # trend powers 1..2 plus 2 lags of response and regressor
    assert len(calm_aux.terms) == 6


def test_auxiliary_checks_add_terms_in_design_order():
    # Each check names its added columns in the order they enter the
    # design, after the intercept and the base regressors. d is a dummy,
    # so it gets no square.
    rng = np.random.default_rng(44)
    n = 60
    x, z = rng.standard_normal(n), rng.standard_normal(n)
    d = (rng.random(n) < 0.5).astype(float)
    data = Dataset(
        columns={"y": 1.0 + x + d + z + rng.standard_normal(n), "x": x, "d": d, "z": z},
        orderings={
            "t": OrderingVariable("t", "time", np.arange(1.0, n + 1.0)),
            "g": OrderingVariable("g", "categorical", np.repeat(np.array(["a", "b", "c"], dtype=object), n // 3)),
            "h": OrderingVariable("h", "binary_group", np.repeat([0.0, 1.0], n // 2)),
        },
    )
    base = fit(data, ModelSpec(response="y", regressors=("x", "d", "z")))
    assert linearity_check(data, base).terms == ("x^2", "z^2")
    assert auxiliary_trend_lag_test(data, base, BatteryConfig()).terms == (
        "t^1", "t^2", "y[-1]", "y[-2]", "x[-1]", "x[-2]", "d[-1]", "d[-2]", "z[-1]", "z[-2]",
    )
    assert ordering_shift_test(data, base, "g").terms == ("shift(g=b)", "shift(g=c)")
    assert ordering_shift_test(data, base, "h").terms == ("shift(h=1.0)",)

    # The variance regression returns its auxiliary regression's result.
    check = homoskedasticity_check(data, base)
    assert check.terms == ("x", "x^2", "d", "z", "z^2")
    assert normality_check(base.residuals).terms == ()


def test_probe_columns_over_a_window():
    y = np.arange(1.0, 7.0)
    # Trend powers are (t/m)^k over the m rows of the window.
    t1, t2 = misspec._trend_columns(5, 2)
    assert np.allclose(t1, np.arange(1, 6) / 5.0)
    assert np.allclose(t2, (np.arange(1, 6) / 5.0) ** 2)
    # y[-1] over the rows after the first.
    [lag] = misspec._lag_columns(y, 1)
    assert np.allclose(lag, [1.0, 2.0, 3.0, 4.0, 5.0])
    g = OrderingVariable("g", "binary_group", np.array([0.0, 0.0, 1.0, 1.0, 0.0, 1.0]))
    [(name, dummy)] = misspec._shift_columns(g)
    assert name == "shift(g=1.0)"
    assert dummy.tolist() == [0.0, 0.0, 1.0, 1.0, 0.0, 1.0]


def test_shift_columns_name_a_binary_shift_by_its_level():
    # One dummy for every level but the first, so a binary ordering's marks
    # its 1s and is named like a categorical level.
    g = OrderingVariable("g", "binary_group", np.repeat([1.0, 0.0], 4))
    [(name, dummy)] = misspec._shift_columns(g)
    assert name == "shift(g=1.0)"
    assert dummy.tolist() == (g.values == 1.0).astype(float).tolist()


def test_shift_columns_on_one_level_ordering_raise_group_too_small():
    one_level = OrderingVariable("g", "binary_group", np.ones(6))
    with pytest.raises(GroupTooSmall):
        misspec._shift_columns(one_level)


def test_trend_lag_probe_design_is_the_model_design(monkeypatch):
    # The probe solves the model's design, an intercept and x, extended by
    # trend powers and lags over rows lags..n-1, bit for bit.
    rng = np.random.default_rng(46)
    n = 50
    x = rng.standard_normal(n)
    data = Dataset(
        columns={"y": 1.0 + x + rng.standard_normal(n), "x": x},
        orderings={"t": OrderingVariable("t", "time", np.arange(1.0, n + 1.0))},
    )
    base = fit(data, ModelSpec(response="y", regressors=("x",)))
    seen = []
    real = misspec._added_terms_f

    def spy(response, base_columns, added):
        seen.append((response, base_columns, added))
        return real(response, base_columns, added)

    monkeypatch.setattr(misspec, "_added_terms_f", spy)
    auxiliary_trend_lag_test(data, base, BatteryConfig())
    [(response, base_columns, added)] = seen
    probe = np.column_stack([np.ones(len(response)), *base_columns, *(column for _, column in added)])
    lags = BatteryConfig().lag_count
    rows = np.arange(lags, n)
    m = rows.size
    s = np.arange(1, m + 1) / m
    y = data.column("y")
    lagged = [v[rows - k] for v in (y, x) for k in range(1, lags + 1)]
    expected = np.column_stack([np.ones(m), x[rows], s, s**2, *lagged])
    assert [name for name, _ in added] == ["t^1", "t^2", "y[-1]", "y[-2]", "x[-1]", "x[-2]"]
    assert probe.tobytes() == expected.tobytes()
    assert response.tobytes() == base.residuals[lags:].tobytes()


def _overflowing_square_case():
    # The regressor is finite but its square is not. A fit with an intercept
    # cannot take such an x (its condition is at least about 1e154 / sqrt(n)),
    # so the fit is made on a well-scaled x and checked against x * 1e200.
    rng = np.random.default_rng(45)
    x = rng.standard_normal(40)
    y = rng.standard_normal(40)
    base = fit(Dataset(columns={"y": y, "x": x}, orderings={}), ModelSpec(response="y", regressors=("x",)))
    return Dataset(columns={"y": y, "x": x * 1e200}, orderings={}), base


def test_auxiliary_regression_rejects_overflowing_columns():
    data, base = _overflowing_square_case()
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the overflowing square warns no more
        with pytest.raises(NonFiniteInput, match="overflow"):
            linearity_check(data, base)


def test_run_battery_leaves_overflowing_checks_untested():
    data, base = _overflowing_square_case()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = run_battery(data, base, BatteryConfig())
    assert report.per_assumption["[1] normality"] == PASS
    # Linearity and the variance regression both need x^2.
    for label in ("[2] linearity", "[3] homoskedasticity"):
        assert report.per_assumption[label] == UNTESTED
        assert report.p_values[label] is None
    assert [name for name, _ in report.evidence] == ["normality"]


def test_ordering_shift_flags_intercept_jump():
    rng = np.random.default_rng(51)
    n = 50
    x = rng.standard_normal(2 * n)
    g = np.repeat([1.0, 0.0], n)
    y = 1.0 + 0.5 * x + 3.0 * (g == 0.0) + rng.standard_normal(2 * n)
    data = Dataset(
        columns={"y": y, "x": x},
        orderings={"g": OrderingVariable("g", "binary_group", g)},
    )
    aux = ordering_shift_test(data, fit(data, SPEC), "g")
    assert aux.p < 1e-6


def test_shift_f_matches_classical_added_variable_oracle():
    data = iid_dataset(52, orderings="group")
    base = fit(data, SPEC)
    aux = ordering_shift_test(data, base, "g")
    dummy = (data.ordering("g").values == 1.0).astype(float)
    oracle = classical_added_variable_f(
        data.column("y"), [data.column("x")], [dummy]
    )
    assert math.isclose(aux.stat, oracle, rel_tol=1e-9)


def test_linearity_f_matches_classical_added_variable_oracle():
    data = iid_dataset(53, orderings="none")
    base = fit(data, SPEC)
    aux = linearity_check(data, base)
    oracle = classical_added_variable_f(
        data.column("y"), [data.column("x")], [data.column("x") ** 2]
    )
    assert math.isclose(aux.stat, oracle, rel_tol=1e-9)


def _lstsq_rss(columns, y):
    design = np.column_stack([np.ones(len(y))] + list(columns))
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    resid = y - design @ coef
    return float(resid @ resid), design.shape[1]


def _aux_f_by_two_fits(u, base_cols, added_cols):
    """The added block's F from separate full and restricted lstsq fits."""
    rss_r, _ = _lstsq_rss(base_cols, u)
    rss_f, p = _lstsq_rss(list(base_cols) + list(added_cols), u)
    q = len(added_cols)
    df = len(u) - p
    f = ((rss_r - rss_f) / q) / (rss_f / df)
    return f, float(stats.f.sf(f, q, df))


def _nested_case(design: str):
    """(statistic, p) from revcheck, and from two separate fits, for one
    auxiliary regression."""
    rng = np.random.default_rng(54)
    n = 90
    x = rng.standard_normal(n)
    y = 1.0 + 0.5 * x + 0.3 * x**2 + np.sqrt(0.5 + x**2) * rng.standard_normal(n)
    g = np.repeat([1.0, 0.0], n // 2)
    data = Dataset(
        columns={"y": y, "x": x},
        orderings={
            "t": OrderingVariable("t", "time", np.arange(1.0, n + 1.0)),
            "g": OrderingVariable("g", "binary_group", g),
        },
    )
    base = fit(data, SPEC)
    u = base.residuals
    if design == "linearity":
        aux = linearity_check(data, base)
        return (aux.stat, aux.p), _aux_f_by_two_fits(u, [x], [x**2])
    if design == "shift":
        aux = ordering_shift_test(data, base, "g")
        return (aux.stat, aux.p), _aux_f_by_two_fits(u, [x], [g])
    if design == "trend-lag":
        aux = auxiliary_trend_lag_test(data, base, BatteryConfig())
        rows = np.arange(2, n)
        s = np.arange(1, n - 1) / (n - 2)
        added = [s, s**2, y[rows - 1], y[rows - 2], x[rows - 1], x[rows - 2]]
        return (aux.stat, aux.p), _aux_f_by_two_fits(u[rows], [x[rows]], added)
    check = homoskedasticity_check(data, base)
    return (check.stat, check.p), _aux_f_by_two_fits(u**2, [], [x, x**2])


@pytest.mark.parametrize("design", ["linearity", "shift", "trend-lag", "variance-regression"])
def test_nested_rss_matches_a_separate_restricted_fit(design):
    # The restricted RSS comes from the full fit's factor; refitting the
    # restricted design on its own must give the same F and p.
    (f, p), (f_oracle, p_oracle) = _nested_case(design)
    assert math.isclose(f, f_oracle, rel_tol=1e-9)
    assert math.isclose(p, p_oracle, rel_tol=1e-9)


def test_run_battery_leaves_ill_conditioned_checks_untested():
    # A time-like regressor (year = 1900 + t): its square, its lags and the
    # trend columns make the auxiliary designs too ill-conditioned to solve.
    t = np.arange(1.0, 47.0)
    rng = np.random.default_rng(3)
    data = Dataset(
        columns={"year": 1900.0 + t, "y": 0.3 * t + rng.standard_normal(46)},
        orderings={"t": OrderingVariable("t", "time", t)},
    )
    report = run_battery(data, fit(data, ModelSpec(response="y", regressors=("year",))), BatteryConfig())
    assert report.per_assumption["[1] normality"] == PASS
    for label in misspec.ASSUMPTIONS[1:]:
        assert report.per_assumption[label] == UNTESTED
        assert report.p_values[label] is None


def test_run_battery_clean_data_all_pass():
    data = iid_dataset(61)
    report = run_battery(data, fit(data, SPEC), BatteryConfig())
    assert set(report.per_assumption) == set(misspec.ASSUMPTIONS)
    assert all(status == PASS for status in report.per_assumption.values())
    assert report.overall_adequate
    assert not report.degenerate
    labels = [name for name, _ in report.evidence]
    assert "normality" in labels and "linearity" in labels
    assert "variance-ratio(g)" in labels
    assert "trend-lag" in labels and "ordering-shift(g)" in labels


@pytest.mark.parametrize(
    "categories, names",
    [
        (
            ["a", "b"],
            ["normality", "linearity", "variance-ratio(h)", "variance-ratio(g)", "trend-lag",
             "ordering-shift(h)", "ordering-shift(g)"],
        ),
        # A three-level ordering has no variance ratio.
        (
            ["a", "b", "c"],
            ["normality", "linearity", "variance-ratio(h)", "trend-lag", "ordering-shift(h)", "ordering-shift(g)"],
        ),
    ],
)
def test_run_battery_evidence_names_in_order(categories, names):
    rng = np.random.default_rng(65)
    n = 60
    x = rng.standard_normal(n)
    data = Dataset(
        columns={"y": 1.0 + 0.5 * x + rng.standard_normal(n), "x": x},
        orderings={
            "t": OrderingVariable("t", "time", np.arange(1.0, n + 1.0)),
            "h": OrderingVariable("h", "binary_group", np.tile([0.0, 1.0], n // 2)),
            "g": OrderingVariable("g", "categorical", np.repeat(np.array(categories, dtype=object), n // len(categories))),
        },
    )
    report = run_battery(data, fit(data, SPEC), BatteryConfig())
    assert [name for name, _ in report.evidence] == names


def test_battery_on_by_group_data_makes_no_model_fits(monkeypatch):
    # Every check goes straight to the design builder _ols: none fits a
    # model or summarizes its terms, the variance ratio's group fits included.
    originals = (regression.fit, regression._inference)
    watched = dict.fromkeys(originals, 0)

    def counting(func):
        def wrapper(*args, **kwargs):
            watched[func] += 1
            return func(*args, **kwargs)

        return wrapper

    for name, module in list(sys.modules.items()):
        if name == "revcheck" or name.startswith("revcheck."):
            for attr, value in list(vars(module).items()):
                if any(value is func for func in watched):
                    monkeypatch.setattr(module, attr, counting(value))

    data = iid_dataset(66)
    # The counters see calls made through any module's binding: fit reaches
    # _inference through regression's.
    base = regression.fit(data, SPEC)
    assert all(count >= 1 for count in watched.values()), watched
    watched.update(dict.fromkeys(originals, 0))
    report = run_battery(data, base, BatteryConfig())
    assert "variance-ratio(g)" in [name for name, _ in report.evidence]
    assert watched == dict.fromkeys(originals, 0)


def test_run_battery_marks_untested_without_orderings():
    data = iid_dataset(62, orderings="none")
    report = run_battery(data, fit(data, SPEC), BatteryConfig())
    statuses = report.per_assumption
    assert statuses["[4] independence"] == UNTESTED
    assert statuses["[5] parameter invariance"] == UNTESTED
    assert statuses["[1] normality"] == PASS
    assert report.p_values["[4] independence"] is None
    assert report.overall_adequate  # untested is not a failure


def test_run_battery_flags_shift_and_reports_min_p():
    rng = np.random.default_rng(63)
    n = 60
    x = rng.standard_normal(2 * n)
    g = np.repeat([1.0, 0.0], n)
    y = 1.0 + 0.5 * x + 4.0 * (g == 0.0) + rng.standard_normal(2 * n)
    data = Dataset(
        columns={"y": y, "x": x},
        orderings={"g": OrderingVariable("g", "binary_group", g)},
    )
    report = run_battery(data, fit(data, SPEC), BatteryConfig())
    assert report.per_assumption["[5] parameter invariance"] == FAIL
    assert report.p_values["[5] parameter invariance"] < 0.05
    assert not report.overall_adequate


def test_run_battery_degenerate_base():
    data = Dataset(
        columns={"y": np.arange(8.0), "x": np.arange(8.0)},
        orderings={},
    )
    report = run_battery(data, fit(data, SPEC), BatteryConfig())
    assert report.degenerate
    assert all(status == UNTESTED for status in report.per_assumption.values())


def test_run_battery_respects_alpha():
    data = iid_dataset(64)
    base = fit(data, SPEC)
    strict = run_battery(data, base, BatteryConfig(alpha=0.9999))
    assert not strict.overall_adequate  # nearly everything fails at alpha ~ 1
    lax = run_battery(data, base, BatteryConfig(alpha=1e-12))
    assert lax.overall_adequate


def group_report(status, p):
    return MisspecReport(per_assumption={"[2] linearity": status}, p_values={"[2] linearity": p}, evidence=())


@pytest.mark.parametrize(
    "merged, checks, status, p",
    [
        (False, [], UNTESTED, None),
        (False, [0.3], PASS, 0.3),
        (False, [0.05, 0.2, 0.7], PASS, 0.05),
        (False, [0.6, 0.01, 0.2], FAIL, 0.01),
        (False, [0.049], FAIL, 0.049),
        # Merged over groups: each group gives its p, or None where untested.
        (True, [(FAIL, 0.01), (UNTESTED, None)], FAIL, 0.01),
        (True, [(UNTESTED, None), (PASS, 0.376)], UNTESTED, None),
        (True, [(PASS, 0.4), (PASS, 0.2)], PASS, 0.2),
        (True, [(PASS, 0.4), (FAIL, 0.03)], FAIL, 0.03),
        (True, [(UNTESTED, None), (UNTESTED, None)], UNTESTED, None),
        # The homogeneity p of each group behind [2] and [3] of a table.
        (False, [0.051, 0.6], PASS, 0.051),
        (False, [0.6, 0.0499], FAIL, 0.0499),
        # A NaN p (normality where the kurtosis transform is undefined) is
        # evidence that could not be gathered, in either order.
        (False, [float("nan"), 0.001], FAIL, 0.001),
        (False, [0.001, float("nan")], FAIL, 0.001),
        (False, [float("nan"), 0.3], UNTESTED, None),
        (False, [0.3, float("nan")], UNTESTED, None),
        (False, [float("nan")], UNTESTED, None),
    ],
)
def test_one_rule_decides_status_and_p(merged, checks, status, p):
    label = "[2] linearity"
    if merged:
        reports = [group_report(*entry) for entry in checks]
        report = merge_reports(reports, 0.05, source="per-group fits")
        statuses, p_values = report.per_assumption, report.p_values
        assert report.source == "per-group fits"
        assert report.overall_adequate == (status != FAIL)
    else:
        statuses, p_values = assess_assumptions({label: checks}, 0.05)
    assert statuses == {label: status}
    assert p_values == {label: p}


def test_merge_keeps_every_group_label_evidence_and_degenerate_flag():
    data = iid_dataset(65, orderings="none")
    report = run_battery(data, fit(data, SPEC), BatteryConfig())
    degenerate = Dataset(columns={"y": np.arange(8.0), "x": np.arange(8.0)}, orderings={})
    flat = run_battery(degenerate, fit(degenerate, SPEC), BatteryConfig())
    merged = merge_reports([report, flat], 0.05)
    assert list(merged.per_assumption) == list(misspec.ASSUMPTIONS)
    assert merged.evidence == report.evidence
    assert merged.degenerate
    assert all(status == UNTESTED for status in merged.per_assumption.values())
    assert all(p is None for p in merged.p_values.values())


def test_importing_revcheck_leaves_scipy_stats_unloaded(tmp_path):
    # scipy.stats loads hundreds of modules; no run-time code needs it, so
    # neither importing revcheck nor running any command may load it.
    src = os.path.dirname(os.path.dirname(os.path.abspath(revcheck.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, revcheck; print('scipy.stats' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"

    code = textwrap.dedent(
        f"""
        import contextlib, io, json, sys
        from revcheck import cli
        from revcheck.fixtures import fixture_path

        tmp = {str(tmp_path)!r}
        runs = [
            ["--seed", "1", "simulate", "trending", "--out", tmp + "/tr.csv"],
            ["--seed", "1", "simulate", "example3", "--out", tmp + "/e3.csv"],
            ["--seed", "2", "simulate", "niid", "--rho12", "0.5", "--rho13", "0.7", "--rho23", "0.8",
             "--n", "200", "--out", tmp + "/niid.csv"],
            ["analyze-regression", tmp + "/tr.csv", "--response", "y", "--regressors", "x",
             "--ordering", "t:time"],
            ["analyze-regression", tmp + "/e3.csv", "--response", "y", "--regressors", "x",
             "--ordering", "group", "--by-group", "group"],
            ["analyze-regression", tmp + "/niid.csv", "--response", "y", "--regressors", "x1", "x2",
             "--ordering", "t:time"],
            ["analyze-table", str(fixture_path("berkeley.json"))],
            ["--seed", "3", "simulate", "mc-size", "--dgp", "trending", "--reps", "1000"],
            ["reverse-conditions", "0.5", "0.7", "0.8"],
        ]
        codes = []
        for argv in runs:
            with contextlib.redirect_stdout(io.StringIO()):
                codes.append(cli.main(argv))
        print(json.dumps({{"codes": codes, "loaded": "scipy.stats" in sys.modules}}))
        """
    )
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    outcome = json.loads(result.stdout)
    assert outcome == {"codes": [0] * 9, "loaded": False}


def test_no_scipy_module_is_loaded_at_run_time(tmp_path):
    # revcheck needs only numpy at run time; scipy is a test dependency.
    # Neither importing revcheck nor running each command (the runs of the
    # scipy.stats test above) may load scipy or any of its modules.
    src = os.path.dirname(os.path.dirname(os.path.abspath(revcheck.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    code = textwrap.dedent(
        f"""
        import contextlib, io, json, sys

        def scipy_modules():
            return sorted(name for name in sys.modules if name == "scipy" or name.startswith("scipy."))

        import revcheck
        after_import = scipy_modules()
        from revcheck import cli
        from revcheck.fixtures import fixture_path

        tmp = {str(tmp_path)!r}
        runs = [
            ["--seed", "1", "simulate", "trending", "--out", tmp + "/tr.csv"],
            ["--seed", "1", "simulate", "example3", "--out", tmp + "/e3.csv"],
            ["--seed", "2", "simulate", "niid", "--rho12", "0.5", "--rho13", "0.7", "--rho23", "0.8",
             "--n", "200", "--out", tmp + "/niid.csv"],
            ["analyze-regression", tmp + "/tr.csv", "--response", "y", "--regressors", "x",
             "--ordering", "t:time"],
            ["analyze-regression", tmp + "/e3.csv", "--response", "y", "--regressors", "x",
             "--ordering", "group", "--by-group", "group"],
            ["analyze-regression", tmp + "/niid.csv", "--response", "y", "--regressors", "x1", "x2",
             "--ordering", "t:time"],
            ["analyze-table", str(fixture_path("berkeley.json"))],
            ["--seed", "3", "simulate", "mc-size", "--dgp", "trending", "--reps", "1000"],
            ["reverse-conditions", "0.5", "0.7", "0.8"],
        ]
        codes = []
        for argv in runs:
            with contextlib.redirect_stdout(io.StringIO()):
                codes.append(cli.main(argv))
        print(json.dumps({{"codes": codes, "after_import": after_import, "after_runs": scipy_modules()}}))
        """
    )
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    outcome = json.loads(result.stdout)
    assert outcome == {"codes": [0] * 9, "after_import": [], "after_runs": []}
