"""Model-assumption diagnostics for linear regression fits.

The battery probes the five assumptions of the Normal linear regression
model behind a fit:

  [1] normality            D'Agostino-Pearson K^2 skewness/kurtosis omnibus
                           test (D'Agostino, Belanger & D'Agostino 1990,
                           Am. Stat. 44:316; Anscombe & Glynn 1983,
                           Biometrika 70:227)
  [2] linearity            squared-regressor auxiliary regression
  [3] homoskedasticity     variance-ratio F across groups, or a
                           squared-residual auxiliary regression
  [4] independence         lag terms in the trend/lag auxiliary regression
  [5] parameter invariance trend terms in the same auxiliary regression,
                           and level-shift dummies across group orderings

Auxiliary regressions regress the base fit's residuals on the original
regressors plus the probe terms and F-test the probe block jointly; this
is numerically identical to the classical added-variable F-test. They
stack an intercept, the regressors and the probe columns, in that order,
into one design. Three column helpers give the probes their columns:
`_trend_columns` (powers of normalized time), `_lag_columns` (lagged
copies of a series) and `_shift_columns` (level dummies of a group
ordering); detrend and dememorize build their designs from the same
trend and lag helpers. The variance ratio refits the base design on each
group's rows, split by the same level rule as the shift dummies. Every
check goes straight to `regression._ols`, without a Dataset, a ModelSpec,
a model fit or per-term inference: the joint F needs only the full fit's
RSS and its Q'y, and the ratio only each group's residuals. Every check
returns one CheckResult. `run_battery` runs one declared list of checks,
each feeding the assumptions it probes. Each assumption ends up marked
pass, fail, or untested; a check that cannot run is never reported as a
pass.

The module also provides the detrend / dememorize transforms and the
corrected correlation used to screen trending, temporally dependent pairs
for spurious association.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core_stats import _RAISE, ChiSquare, FisherF, Series, _correlation_test, _tail, tail_prob
from .errors import (
    DegenerateData,
    GroupTooSmall,
    InvalidSpec,
    MismatchedInputs,
    NonFiniteInput,
    RankDeficient,
    TooFewResiduals,
    Underdetermined,
)
from .regression import Dataset, FitResult, OrderingVariable, _degenerate, _ols
from .verdict import MisspecReport, assess_assumptions

ASSUMPTIONS = (
    "[1] normality",
    "[2] linearity",
    "[3] homoskedasticity",
    "[4] independence",
    "[5] parameter invariance",
)


@dataclass(frozen=True)
class BatteryConfig:
    """Settings shared by the battery's checks.

    trend_degree controls the detrending polynomial; the trend block of the
    auxiliary regression uses powers 1 .. trend_degree - 1. lag_count is
    the number of lags both for the auxiliary regression and dememorize.
    """

    alpha: float = 0.05
    trend_degree: int = 3
    lag_count: int = 2

    def __post_init__(self):
        if not 0 < self.alpha < 1:
            raise InvalidSpec(f"alpha must be in (0, 1), got {self.alpha!r}")
        if self.trend_degree < 1:
            raise InvalidSpec("trend_degree must be >= 1")
        if self.lag_count < 1:
            raise InvalidSpec("lag_count must be >= 1")


@dataclass(frozen=True)
class CheckResult:
    """A diagnostic's statistic and p-value; an auxiliary regression's
    F-test also names its added terms, in design order."""

    stat: float
    p: float
    terms: tuple = ()


@dataclass(frozen=True)
class CorrectedCorrelation:
    """Correlation after removing trends and own-lag memory from both series."""

    rho: float
    p_value: float
    n_effective: int


def _require_live_fit(base: FitResult) -> None:
    if base.degenerate:
        raise DegenerateData("residuals are numerically zero-variance")


def _trend_columns(m: int, degree: int) -> list:
    """Powers s, s^2, ..., s^degree of normalized time s = 1/m, 2/m, ..., 1."""
    s = np.arange(1, m + 1) / m
    return [s**k for k in range(1, degree + 1)]


def _lag_columns(values: np.ndarray, lags: int) -> list:
    """Lags 1..lags of each row of values, over its last n - lags entries."""
    n = values.shape[-1]
    return [values[..., lags - k : n - k] for k in range(1, lags + 1)]


def _shift_columns(ordering: OrderingVariable) -> list:
    """(name, dummy) pairs of a level shift: one dummy for every level but
    the first, in sorted order, so a binary ordering's marks its 1s.

    Raises:
        InvalidSpec: for a time ordering.
        GroupTooSmall: if the ordering holds fewer than two levels.
    """
    if ordering.kind == "time":
        raise InvalidSpec(f"shift terms need a group ordering, not time ordering {ordering.name!r}")
    levels = sorted(set(ordering.values.tolist()))
    if len(levels) < 2:
        raise GroupTooSmall(f"ordering {ordering.name!r} has fewer than two levels")
    return [(f"shift({ordering.name}={level})", (ordering.values == level).astype(float)) for level in levels[1:]]


def _added_terms_f(response: np.ndarray, base_columns: list, added: list) -> CheckResult:
    """F-test of the `added` (name, column) pairs in the regression of
    response on an intercept, base_columns and the added columns, in that
    order. The fit without the last q columns has this fit's RSS plus the
    squared norm of the last q entries of Q'y, and it cannot fail where this
    one ran: dropping columns cannot raise the condition number."""
    solves = _ols(response, [*base_columns, *(column for _, column in added)], _RAISE)
    if _degenerate(response, solves.residuals, _RAISE)[0]:
        raise DegenerateData("auxiliary regression is degenerate")
    q = len(added)
    df_den = len(response) - len(solves.coefficients)
    rss = float(solves.residuals @ solves.residuals)
    qty_added = solves.qty[-q:]
    f_stat = (float(qty_added @ qty_added) / q) / (rss / df_den)
    p = tail_prob(FisherF(q, df_den), f_stat, "one")
    return CheckResult(float(f_stat), float(p), tuple(name for name, _ in added))


def _regressor_terms(data: Dataset, regressors: tuple) -> list:
    """(name, column, is_square) of each named regressor, each followed by
    its square unless it takes at most two values (a dummy's square carries
    no new information)."""
    terms = []
    for name in regressors:
        values = data.column(name)
        terms.append((name, values, False))
        # A third distinct value lies strictly between the extremes.
        if np.any((values > values.min()) & (values < values.max())):
            # The square is the one probe column that can overflow.
            with np.errstate(over="ignore"):
                square = values**2
            if not np.all(np.isfinite(square)):
                raise NonFiniteInput("auxiliary regression values overflow the floating-point range")
            terms.append((f"{name}^2", square, True))
    return terms


def auxiliary_trend_lag_test(data: Dataset, base: FitResult, cfg: BatteryConfig = BatteryConfig()) -> CheckResult:
    """Probe the residuals for trend and memory left by the base fit.

    Regresses the residuals on the original regressors plus normalized time
    powers t, t^2, ..., t^(trend_degree - 1) and lags 1..lag_count of the
    response and of every regressor, then F-tests the added block jointly.
    A significant joint F indicts independence ([4]) and time invariance of
    the parameters ([5]) together.
    """
    _require_live_fit(base)
    regressors = base.spec.regressors
    lags = cfg.lag_count
    if data.n <= lags:
        raise Underdetermined("lag depth leaves no usable rows")

    trend = _trend_columns(data.n - lags, cfg.trend_degree - 1)
    added = [(f"t^{power}", column) for power, column in enumerate(trend, 1)]
    for source in (base.spec.response, *regressors):
        added += [(f"{source}[-{k}]", column) for k, column in enumerate(_lag_columns(data.column(source), lags), 1)]
    return _added_terms_f(base.residuals[lags:], [data.column(name)[lags:] for name in regressors], added)


def ordering_shift_test(data: Dataset, base: FitResult, ordering: str) -> CheckResult:
    """Probe for level shifts of the residual mean across ordering groups.

    Regresses the residuals on the original regressors plus the ordering's
    level dummies, one for every level but the first; the joint F of the
    dummy block tests whether the fit's parameters hold across groups
    (assumption [5] in the group direction).
    """
    _require_live_fit(base)
    added = _shift_columns(data.ordering(ordering))
    return _added_terms_f(base.residuals, [data.column(name) for name in base.spec.regressors], added)


def linearity_check(data: Dataset, base: FitResult) -> CheckResult:
    """Probe for curvature: residuals on regressors plus squared regressors.

    Squares of two-valued (dummy) regressors are skipped since they carry
    no new information. Raises InvalidSpec when no square adds anything.
    """
    _require_live_fit(base)
    terms = _regressor_terms(data, base.spec.regressors)
    squares = [(name, column) for name, column, is_square in terms if is_square]
    if not squares:
        raise InvalidSpec("no regressor admits a meaningful squared term")
    return _added_terms_f(base.residuals, [column for _, column, is_square in terms if not is_square], squares)


def _k2(u: np.ndarray) -> tuple:
    """K^2 = Z_skew^2 + Z_kurt^2 of u and its chi^2(2) upper-tail p-value.

    Each step is the one scipy.stats.normaltest takes, so the two agree to
    rounding; where the kurtosis transform divides by zero, both are NaN.
    """
    n = np.asarray(float(u.size))
    d = u - np.mean(u)
    d2 = d**2
    m2 = np.mean(d2)
    with np.errstate(divide="ignore", invalid="ignore"):
        y = np.mean(d2 * d) / m2**1.5 * np.sqrt((n + 1) * (n + 3) / (6 * (n - 2)))
        beta2 = 3 * (n**2 + 27 * n - 70) * (n + 1) * (n + 3) / ((n - 2) * (n + 5) * (n + 7) * (n + 9))
        w2 = -1 + np.sqrt(2 * (beta2 - 1))
        delta = 1 / np.sqrt(0.5 * np.log(w2))
        alpha = np.sqrt(2 / (w2 - 1))
        y = np.where(y == 0, 1.0, y)
        z_skew = delta * np.log(y / alpha + np.sqrt((y / alpha) ** 2 + 1))

        x = (np.mean(d2**2) / m2**2.0 - 3 * (n - 1) / (n + 1)) / (
            24 * n * (n - 2) * (n - 3) / ((n + 1) * (n + 1) * (n + 3) * (n + 5))
        ) ** 0.5
        root_beta1 = (
            6 * (n * n - 5 * n + 2) / ((n + 7) * (n + 9)) * (6 * (n + 3) * (n + 5) / (n * (n - 2) * (n - 3))) ** 0.5
        )
        a = 6 + 8 / root_beta1 * (2 / root_beta1 + (1 + 4 / root_beta1**2) ** 0.5)
        denom = 1 + x * (2 / (a - 4)) ** 0.5
        cube_root = np.sign(denom) * np.where(denom == 0, np.nan, ((1 - 2 / a) / np.abs(denom)) ** (1 / 3))
        z_kurt = (1 - 2 / (9 * a) - cube_root) / (2 / (9 * a)) ** 0.5
    stat = z_skew * z_skew + z_kurt * z_kurt
    return float(stat), float(_tail(ChiSquare(2), stat, "one"))


def normality_check(residuals) -> CheckResult:
    """D'Agostino-Pearson K^2 omnibus test of residual normality (chi^2, 2 df).

    Combines the skewness test of D'Agostino, Belanger & D'Agostino (1990,
    The American Statistician 44:316) with the kurtosis test of Anscombe &
    Glynn (1983, Biometrika 70:227). Where the kurtosis transform is
    undefined, stat and p are NaN.

    Raises:
        MismatchedInputs: if the residuals are not one-dimensional.
        TooFewResiduals: if fewer than 8 residuals are supplied.
        DegenerateData: if the residuals are non-finite or numerically constant.
    """
    u = np.asarray(residuals, dtype=float)
    if u.ndim != 1:
        raise MismatchedInputs("residuals must be one-dimensional")
    if u.size < 8:
        raise TooFewResiduals(f"normality check needs n >= 8, got {u.size}")
    if not np.all(np.isfinite(u)):
        raise DegenerateData("residuals contain non-finite values")
    if _flat(u):
        raise DegenerateData("residuals are numerically constant")
    stat, p = _k2(u)
    return CheckResult(stat=stat, p=p)


def _group_variance_ratio(data: Dataset, base: FitResult, ordering: str) -> CheckResult:
    """F of the two groups' residual variances, each group refit on its own
    rows of the base design; two-sided p."""
    dummies = _shift_columns(data.ordering(ordering))
    if len(dummies) != 1:
        raise InvalidSpec(f"grouped variance check needs exactly two groups, found {len(dummies) + 1}")
    regressors = [data.column(name) for name in base.spec.regressors]
    response = data.column(base.spec.response)
    p = 1 + len(regressors)
    # The first level's rows, then the second's.
    groups = [dummies[0][1] == 0, dummies[0][1] == 1]
    dfs = [int(rows.sum()) - p for rows in groups]
    if min(dfs) < 1:
        raise GroupTooSmall(f"a group of ordering {ordering!r} has too few rows for {p} parameters")
    variances = []
    for rows, df in zip(groups, dfs):
        # A group's RSS is at most the base fit's, whose sums are finite.
        residuals = _ols(response[rows], [column[rows] for column in regressors], _RAISE).residuals
        variances.append(float(residuals @ residuals) / df)
    if min(variances) <= 0:
        raise DegenerateData("a group has zero residual variance")
    f_stat = variances[0] / variances[1]
    return CheckResult(stat=float(f_stat), p=tail_prob(FisherF(*dfs), f_stat, "two"))


def _squared_residual_regression(data: Dataset, base: FitResult) -> CheckResult:
    added = [(name, column) for name, column, _ in _regressor_terms(data, base.spec.regressors)]
    if not added:
        raise InvalidSpec("no regressors available for the variance regression")
    return _added_terms_f(base.residuals**2, [], added)


def homoskedasticity_check(data: Dataset, base: FitResult, ordering: str = None) -> CheckResult:
    """Probe for unequal residual variance.

    With a two-level group ordering: the model is refit inside each group
    and the ratio of residual variances is referred to an F distribution
    (two-sided), which is exactly sized under the Normal null. Without an
    ordering: squared residuals are regressed on the regressors and their
    squares and the block is F-tested.
    """
    _require_live_fit(base)
    if ordering is not None:
        return _group_variance_ratio(data, base, ordering)
    return _squared_residual_regression(data, base)


def _flat(values: np.ndarray):
    """Whether each row of values is numerically constant."""
    return np.var(values, axis=-1) <= 1e-15 * np.maximum(1.0, np.mean(values**2, axis=-1))


def _detrend_rows(values: np.ndarray, degree: int, errors) -> np.ndarray:
    """detrend of each row of values: one QR of the trend design they share."""
    if degree < 1:
        errors.stop(InvalidSpec, "degree must be >= 1")
    n = values.shape[-1]
    if n <= degree + 1:
        errors.stop(Underdetermined, f"detrend of degree {degree} needs more than {degree + 1} points")
    return _ols(values, _trend_columns(n, degree), errors).residuals


def detrend(series: Series, degree: int = 3) -> Series:
    """Residuals of a series on a normalized polynomial trend.

    The trend columns are (t/n)^1 .. (t/n)^degree with t = 1..n, plus an
    intercept. Applying detrend twice is the same as applying it once.
    """
    return Series(values=_detrend_rows(series.values, degree, _RAISE), label=series.label)


def _dememorize_rows(values: np.ndarray, lags: int, errors) -> np.ndarray:
    """dememorize of each row of values, each against its own-lag design."""
    if lags < 1:
        errors.stop(InvalidSpec, "lags must be >= 1")
    n = values.shape[-1]
    if n <= lags + 2:
        errors.stop(Underdetermined, f"dememorize with {lags} lags needs more than {lags + 2} points")
    errors.flag(_flat(values), Underdetermined, "series has zero variance")
    return _ols(values[..., lags:], _lag_columns(values, lags), errors).residuals


def dememorize(series: Series, lags: int = 2) -> Series:
    """Residuals of a series on its own first `lags` lags (plus intercept).

    The first `lags` observations are consumed as initial conditions, so
    the output is shorter than the input by `lags`.

    Raises:
        Underdetermined: if the series is too short or has zero variance.
    """
    return Series(values=_dememorize_rows(series.values, lags, _RAISE), label=series.label)


class _StepErrors:
    """An error sink that names the cleaning step and series a failed check belongs to."""

    def __init__(self, errors, step: str, name: str):
        self.errors, self.step, self.name = errors, step, name

    def _message(self, message: str) -> str:
        return (
            f"{self.step} cannot be fitted to {self.name!r} ({message}), "
            "so the corrected correlation cannot be computed"
        )

    def flag(self, bad, error: type, message: str) -> None:
        self.errors.flag(bad, error, self._message(message))

    def stop(self, error: type, message: str) -> None:
        self.errors.stop(error, self._message(message))


def _corrected_rows(x: np.ndarray, y: np.ndarray, cfg: BatteryConfig, errors, names: tuple) -> tuple:
    """corrected_correlation for each row: (x_clean, y_clean, rho, p); names label x and y in errors."""
    if x.shape[-1] <= cfg.trend_degree + cfg.lag_count + 3:
        errors.stop(Underdetermined, "too few observations for the configured trend degree and lags")
    detrending = f"detrending of degree {cfg.trend_degree} (--trend-degree)"
    dememorizing = f"dememorizing with {cfg.lag_count} lags (--lags)"
    cleaned = []
    for values, name in zip((x, y), names):
        detrended = _detrend_rows(values, cfg.trend_degree, _StepErrors(errors, detrending, name))
        message = f"{detrending} leaves {name!r} constant, so the corrected correlation cannot be computed"
        errors.flag(_flat(detrended), Underdetermined, message)
        cleaned.append(_dememorize_rows(detrended, cfg.lag_count, _StepErrors(errors, dememorizing, name)))
    x_clean, y_clean = cleaned
    df = x_clean.shape[-1] - 2
    if df < 1:
        errors.stop(Underdetermined, "not enough effective observations for a correlation test")
    zero_variance = (Underdetermined, "a corrected series has zero variance")
    return (x_clean, y_clean) + _correlation_test(x_clean, y_clean, df, errors, zero_variance)


def _corrected(x: np.ndarray, y: np.ndarray, cfg: BatteryConfig, names: tuple) -> tuple:
    """corrected_correlation of two equal-length columns, plus the cleaned
    columns it correlates; names label x and y in errors ("x", "y" if empty)."""
    x_clean, y_clean, rho, p = _corrected_rows(x, y, cfg, _RAISE, (names[0] or "x", names[1] or "y"))
    corrected = CorrectedCorrelation(rho=float(rho), p_value=float(p), n_effective=len(x_clean))
    return corrected, x_clean, y_clean


def corrected_correlation(x: Series, y: Series, cfg: BatteryConfig = BatteryConfig()) -> CorrectedCorrelation:
    """Correlation between two series after detrending and dememorizing both.

    Both series are detrended with a degree-`trend_degree` polynomial, then
    each is replaced by the residuals of its own-lag regression with
    `lag_count` lags. The correlation of what remains is tested against
    zero with a Student-t statistic on n_effective - 2 degrees of freedom.

    Raises:
        Underdetermined: if the series are too short, or detrending leaves
            one constant (named by its label, else "x" or "y").
    """
    if len(x) != len(y):
        raise MismatchedInputs(f"series lengths differ: {len(x)} vs {len(y)}")
    return _corrected(x.values, y.values, cfg, (x.label, y.label))[0]


# What a check raises when it cannot run on the data at hand: run_battery
# then leaves its assumption untested. Any other error propagates.
_CANNOT_RUN = (
    InvalidSpec,
    NonFiniteInput,
    GroupTooSmall,
    TooFewResiduals,
    Underdetermined,
    RankDeficient,
    DegenerateData,
)


def run_battery(data: Dataset, base: FitResult, cfg: BatteryConfig = BatteryConfig(), source: str = "") -> MisspecReport:
    """Run every applicable check against a fit and collect the verdict.

    Checks that cannot run on the given data (too few rows, missing
    orderings, degenerate groups, auxiliary designs too ill-conditioned to
    solve or whose values overflow) leave their assumption marked untested.
    A degenerate base fit short-circuits: every assumption is untested and
    the report carries the degenerate flag.
    """
    norm_label, lin_label, hom_label, indep_label, invar_label = ASSUMPTIONS
    checks = {label: [] for label in ASSUMPTIONS}
    if base.degenerate:
        statuses, p_values = assess_assumptions(checks, cfg.alpha)
        return MisspecReport(statuses, p_values, (), degenerate=True, source=source)

    kinds = {name: data.ordering(name).kind for name in data.orderings}
    groups = [name for name, kind in kinds.items() if kind != "time"]
    # (evidence name, the assumptions it feeds, the check, its arguments)
    probes = [
        ("normality", (norm_label,), normality_check, (base.residuals,)),
        ("linearity", (lin_label,), linearity_check, (data, base)),
    ]
    probes += [(f"variance-ratio({name})", (hom_label,), homoskedasticity_check, (data, base, name)) for name in groups]
    # The loop runs this one only when no variance ratio ran.
    probes.append(("variance-regression", (hom_label,), homoskedasticity_check, (data, base)))
    if "time" in kinds.values():
        probes.append(("trend-lag", (indep_label, invar_label), auxiliary_trend_lag_test, (data, base, cfg)))
    probes += [(f"ordering-shift({name})", (invar_label,), ordering_shift_test, (data, base, name)) for name in groups]
    evidence = []
    for name, labels, check, args in probes:
        if name == "variance-regression" and checks[hom_label]:
            continue
        try:
            result = check(*args)
        except _CANNOT_RUN:
            continue
        evidence.append((name, result))
        for label in labels:
            checks[label].append(result.p)

    statuses, p_values = assess_assumptions(checks, cfg.alpha)
    return MisspecReport(statuses, p_values, tuple(evidence), source=source)


def merge_reports(reports: list, alpha: float, source: str = "") -> MisspecReport:
    """One report for fits made group by group, from each group's report.

    Each group contributes its p for an assumption, or None where its
    battery left the assumption untested, so a failure in any group fails
    the assumption and an assumption untested in any group is otherwise
    untested. The evidence is every group's, in order.
    """
    checks = {label: [report.p_values[label] for report in reports] for label in reports[0].per_assumption}
    statuses, p_values = assess_assumptions(checks, alpha)
    return MisspecReport(
        statuses,
        p_values,
        tuple(item for report in reports for item in report.evidence),
        degenerate=any(report.degenerate for report in reports),
        source=source,
    )
