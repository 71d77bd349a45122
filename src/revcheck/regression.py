"""Datasets, model specifications, and ordinary least-squares fits.

A Dataset carries named columns plus declared ordering variables (time
indexes, group labels) that diagnostics later exploit. A ModelSpec names a
response and its regressors; the model is the response on an intercept and
those regressors, over every row. `_ols` fits it through core_stats' QR
solver, one fit per leading index: `fit` is its one-row call, returning
a FitResult, and simulate's coefficient test runs it on a block of
replications.

The misspec battery's probe terms are declared here too: polynomial trends
in normalized time (TrendPoly), lags of existing columns (Lags), and
level-shift dummies built from a group ordering (Shift). One builder,
_generated_columns, makes their columns over given rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core_stats import _RAISE, _solve, _t_test_p
from .errors import (
    EmptyData,
    GroupTooSmall,
    IndexOutOfRange,
    InvalidSpec,
    MismatchedInputs,
    NonFiniteInput,
    UnknownColumn,
    UnknownOrdering,
)

ORDERING_KINDS = ("time", "binary_group", "categorical")

# Relative floor below which a residual vector is treated as exactly zero.
_DEGENERATE_RTOL = 1e-12


@dataclass(frozen=True)
class OrderingVariable:
    """A declared ordering of the rows: time index or group membership."""

    name: str
    kind: str
    values: np.ndarray

    def __post_init__(self):
        if self.kind not in ORDERING_KINDS:
            raise InvalidSpec(f"ordering kind must be one of {ORDERING_KINDS}, got {self.kind!r}")
        values = np.asarray(self.values)
        if values.ndim != 1 or values.size == 0:
            raise EmptyData("ordering values must be a non-empty vector")
        if self.kind == "time":
            values = values.astype(float)
            if not np.all(np.isfinite(values)):
                raise NonFiniteInput(f"time ordering {self.name!r} has non-finite values")
            if not np.all(np.diff(values) > 0):
                raise InvalidSpec(f"time ordering {self.name!r} must be strictly increasing")
        elif self.kind == "binary_group":
            values = values.astype(float)
            if not np.all((values == 0) | (values == 1)):
                raise InvalidSpec(f"binary ordering {self.name!r} must contain only 0 and 1")
        object.__setattr__(self, "values", values)

    def __len__(self) -> int:
        return len(self.values)

    def take(self, rows: np.ndarray) -> "OrderingVariable":
        return OrderingVariable(self.name, self.kind, self.values[rows])


@dataclass(frozen=True)
class Dataset:
    """Named columns of equal length plus declared orderings."""

    columns: dict
    orderings: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.columns:
            raise EmptyData("dataset has no columns")
        cols = {}
        n = None
        for name, values in self.columns.items():
            arr = np.asarray(values, dtype=float)
            if arr.ndim != 1:
                raise MismatchedInputs(f"column {name!r} must be one-dimensional")
            if not np.all(np.isfinite(arr)):
                raise NonFiniteInput(f"column {name!r} contains non-finite values")
            if n is None:
                n = len(arr)
                if n == 0:
                    raise EmptyData("dataset has zero rows")
            elif len(arr) != n:
                raise MismatchedInputs(f"column {name!r} has length {len(arr)}, expected {n}")
            cols[name] = arr
        for name, ordering in self.orderings.items():
            if not isinstance(ordering, OrderingVariable):
                raise InvalidSpec(f"ordering {name!r} must be an OrderingVariable")
            if len(ordering) != n:
                raise MismatchedInputs(f"ordering {name!r} has length {len(ordering)}, expected {n}")
            if name in cols:
                raise InvalidSpec(f"name {name!r} is both a column and an ordering")
        object.__setattr__(self, "columns", cols)
        object.__setattr__(self, "orderings", dict(self.orderings))

    @property
    def n(self) -> int:
        return len(next(iter(self.columns.values())))

    def column(self, name: str) -> np.ndarray:
        try:
            return self.columns[name]
        except KeyError:
            raise UnknownColumn(f"no column named {name!r}") from None

    def ordering(self, name: str) -> OrderingVariable:
        try:
            return self.orderings[name]
        except KeyError:
            raise UnknownOrdering(f"no ordering named {name!r}") from None

    def take(self, rows: np.ndarray) -> "Dataset":
        return Dataset(
            columns={k: v[rows] for k, v in self.columns.items()},
            orderings={k: o.take(rows) for k, o in self.orderings.items()},
        )


@dataclass(frozen=True)
class TrendPoly:
    """Polynomial trend terms t/n, (t/n)^2, ..., (t/n)^degree.

    The time index is 1-based within the rows the term is built over and
    scaled by their count, so every trend column lives in (0, 1] regardless
    of n.
    """

    degree: int

    def __post_init__(self):
        if self.degree < 1:
            raise InvalidSpec("trend degree must be >= 1")


@dataclass(frozen=True)
class Lags:
    """Lagged copies col[t-1], ..., col[t-count] of an existing column."""

    count: int
    of: str

    def __post_init__(self):
        if self.count < 1:
            raise InvalidSpec("lag count must be >= 1")


@dataclass(frozen=True)
class Shift:
    """Level-shift dummies built from a group ordering."""

    ordering: str


@dataclass(frozen=True)
class ModelSpec:
    """A linear fit of the response on an intercept and the regressors."""

    response: str
    regressors: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "regressors", tuple(self.regressors))
        if self.response in self.regressors:
            raise InvalidSpec("response cannot also be a regressor")
        if len(set(self.regressors)) != len(self.regressors):
            raise InvalidSpec("duplicate regressor names")
        if "intercept" in self.regressors:
            raise InvalidSpec("regressor name 'intercept' clashes with the fit's constant term; rename the column")


def _shift_columns(ordering: OrderingVariable, rows: np.ndarray) -> list:
    """(name, dummy) pairs of a level shift over rows: one dummy for every
    level but the first, in sorted order, so a binary ordering's marks its 1s.

    Raises:
        InvalidSpec: for a time ordering.
        GroupTooSmall: if the rows hold fewer than two levels.
    """
    if ordering.kind == "time":
        raise InvalidSpec(f"shift terms need a group ordering, not time ordering {ordering.name!r}")
    values = ordering.values[rows]
    levels = sorted(set(values.tolist()))
    if len(levels) < 2:
        raise GroupTooSmall(f"ordering {ordering.name!r} has fewer than two levels in the given rows")
    return [(f"shift({ordering.name}={level})", (values == level).astype(float)) for level in levels[1:]]


def _generated_columns(data: Dataset, terms, rows: np.ndarray) -> list:
    """(name, column) pairs of probe terms over rows, in term order.

    A TrendPoly gives powers of s = 1/m, 2/m, ..., 1 over the m rows, a
    Lags term the lagged copies of its column, a Shift its level dummies.
    """
    columns = []
    for term in terms:
        if isinstance(term, TrendPoly):
            s = np.arange(1, rows.size + 1) / rows.size
            columns += [(f"t^{power}", s**power) for power in range(1, term.degree + 1)]
        elif isinstance(term, Lags):
            base = data.column(term.of)
            columns += [(f"{term.of}[-{k}]", base[rows - k]) for k in range(1, term.count + 1)]
        elif isinstance(term, Shift):
            columns += _shift_columns(data.ordering(term.ordering), rows)
        else:
            raise InvalidSpec(f"unknown generic term {term!r}")
    return columns


@dataclass(frozen=True)
class FitResult:
    """An ordinary least-squares fit with inference summaries.

    p_values are two-sided Student-t tail probabilities with n_used - p
    degrees of freedom. r2 uses the centered total variation. degenerate
    marks fits whose residual vector is numerically zero-variance; such
    fits report s = 0 and carry no usable inference.
    """

    spec: ModelSpec
    term_names: tuple
    coefficients: np.ndarray
    std_errors: np.ndarray
    t_ratios: np.ndarray
    p_values: np.ndarray
    r2: float
    s: float
    n_used: int
    residuals: np.ndarray
    condition_estimate: float
    degenerate: bool

    def index_of(self, term_name: str) -> int:
        try:
            return self.term_names.index(term_name)
        except ValueError:
            raise UnknownColumn(f"no fitted term named {term_name!r}") from None


def _coefficient_p(diff, se, df: int, errors) -> tuple:
    """Stacked t-statistics diff / se and their two-sided p-values; a zero
    se gives (0, p = 1) where diff is zero and (+-inf, p = 0) elsewhere."""
    zero = se == 0
    with np.errstate(divide="ignore", invalid="ignore"):
        stat = np.where(zero, np.where(diff == 0, 0.0, np.inf * np.sign(diff)), diff / se)
    p = np.where(zero, np.where(diff == 0, 1.0, 0.0), _t_test_p(stat, df, ~zero, errors))
    return stat, p


def _degenerate(y, residuals, errors) -> tuple:
    """(degenerate, rss, tss) of stacked fits of y leaving these residuals.

    A fit is degenerate when its residuals are numerically zero-variance
    relative to y. That comparison means nothing once a sum of squares has
    overflowed, so such rows are flagged as NonFiniteInput instead.
    """
    n = residuals.shape[-1]
    with np.errstate(over="ignore", invalid="ignore"):
        rss = np.einsum("...i,...i->...", residuals, residuals)
        yy = np.einsum("...i,...i->...", y, y)
        tss = np.sum((y - y.mean(axis=-1, keepdims=True)) ** 2, axis=-1)
        scale = np.maximum(np.maximum(tss, yy), 1.0)
        spread = residuals.var(axis=-1)
    errors.flag(
        ~(np.isfinite(rss) & np.isfinite(scale)),
        NonFiniteInput,
        "sums of squares overflow the floating-point range; rescale the data",
    )
    degenerate = (rss <= _DEGENERATE_RTOL * scale) | (spread <= _DEGENERATE_RTOL * scale / max(n, 1))
    return degenerate, rss, tss


def _inference(y, solution, errors) -> tuple:
    """(degenerate, s, std_errors, t_ratios, p_values, r2) of stacked fits
    of y, one per leading index. A degenerate fit, whose residuals are
    numerically zero-variance, reports s = 0 and zero standard errors."""
    coefficients, residuals = solution.coefficients, solution.residuals
    n, p = residuals.shape[-1], coefficients.shape[-1]
    degenerate, rss, tss = _degenerate(y, residuals, errors)
    s2 = np.where(degenerate, 0.0, rss / (n - p))
    std_errors = np.sqrt(s2[..., None] * np.diagonal(solution.xtx_inverse, axis1=-2, axis2=-1))
    t_ratios, p_values = _coefficient_p(coefficients, std_errors, n - p, errors)
    with np.errstate(divide="ignore", invalid="ignore"):
        r2 = np.where(degenerate | (tss <= 0), 1.0, 1.0 - rss / tss)
    return degenerate, np.sqrt(s2), std_errors, t_ratios, p_values, r2


def _ols(y, regressors: list, errors) -> tuple:
    """Stacked fits of y on [1, regressors...], one per leading index: the
    solves and their _inference."""
    solves = _solve(np.stack([np.ones_like(y), *regressors], axis=-1), y, errors)
    return solves, _inference(y, solves, errors)


def fit(data: Dataset, spec: ModelSpec) -> FitResult:
    """Fit the response on an intercept and the regressors by least squares
    and summarize the estimates: the batch-of-one case of `_ols`."""
    regressors = [data.column(name) for name in spec.regressors]
    y = data.column(spec.response)
    solves, (degenerate, s, std_errors, t_ratios, p_values, r2) = _ols(y, regressors, _RAISE)
    return FitResult(
        spec=spec,
        term_names=("intercept", *spec.regressors),
        coefficients=solves.coefficients,
        std_errors=std_errors,
        t_ratios=t_ratios,
        p_values=p_values,
        r2=float(r2),
        s=float(s),
        n_used=len(y),
        residuals=solves.residuals,
        condition_estimate=float(solves.condition),
        degenerate=bool(degenerate),
    )


@dataclass(frozen=True)
class CoefficientTest:
    """A two-sided t-test of one coefficient against a null value."""

    stat: float
    p_value: float
    df: int
    reject: bool


def coefficient_test(
    result: FitResult, index: int, null_value: float = 0.0, alpha: float = 0.05
) -> CoefficientTest:
    """Two-sided t-test that coefficient `index` equals `null_value`."""
    if not 0 < alpha < 1:
        raise InvalidSpec(f"alpha must be in (0, 1), got {alpha!r}")
    if not 0 <= index < len(result.coefficients):
        raise IndexOutOfRange(f"coefficient index {index} out of range")
    df = result.n_used - len(result.coefficients)
    diff = result.coefficients[index] - null_value
    stat, p = _coefficient_p(diff, result.std_errors[index], df, _RAISE)
    return CoefficientTest(stat=float(stat), p_value=float(p), df=df, reject=bool(p < alpha))
