"""Bernoulli rates, two-proportion comparisons, and stratified tables.

Count data arrive as 2 x 2 tables: rows are the outcome (success on top,
failure below), columns are the two groups being compared. A stratified
family couples an aggregate table with named stratum tables over the same
groups; `complete` records whether the strata exhaust the aggregate or are
only a partial stratification. The family also holds its strata as one
stacked (k, 2, 2) count array, which every test over strata reads.

The aggregate comparison of two group rates is trustworthy only if the
success rate is constant across strata inside each group; the chi-square
homogeneity test here checks exactly that, and `aggregate_verdict` folds
the result together with the per-stratum rate orderings into a narrative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core_stats import ChiSquare, Normal, _tail, tail_prob
from .errors import (
    DegeneratePool,
    InvalidCounts,
    InvalidSpec,
    MismatchedInputs,
    TooFewStrata,
)
from .verdict import _fmt, format_p


def _check_count(value, name: str) -> int:
    if type(value) is int and 0 <= value < 2**53:
        return value
    try:
        as_float = float(value)
    except (TypeError, ValueError):
        as_float = None
    except OverflowError:  # an integer beyond the float range
        problem = "less than 2**53" if value > 0 else "a non-negative integer"
        raise InvalidCounts(f"{name} must be {problem}, got {value!r}") from None
    # float() reads True as 1, but a boolean is not a count.
    if as_float is None or isinstance(value, (bool, np.bool_)):
        raise InvalidCounts(f"{name} must be a number, got {value!r}")
    if not math.isfinite(as_float) or as_float < 0 or as_float != int(as_float):
        raise InvalidCounts(f"{name} must be a non-negative integer, got {value!r}")
    # Past 2**53 a float no longer holds every integer, so the count read
    # could differ from the count written.
    if as_float >= 2**53:
        raise InvalidCounts(f"{name} must be less than 2**53, got {value!r}")
    return int(as_float)


def _is_pair(row) -> bool:
    """Whether numpy would read row as a row of two cells."""
    if isinstance(row, (str, bytes, dict, set, frozenset)):
        return False
    return len(row) == 2 and not (isinstance(row, np.ndarray) and row.ndim != 1)


def _checked_cells(counts) -> list:
    """The four counts of a 2 x 2 table, each checked, as two rows.

    Cells are read as written: np.asarray would turn a True among numbers
    into 1. numpy only words an error: a table that numpy does not read as
    2 x 2 gets the shape error, which comes before any cell's error, and
    numpy's ValueError for ragged nested lists passes through.
    """
    error = None
    try:
        if len(counts) == 2:
            first, second = counts
            if _is_pair(first) and _is_pair(second):
                (a, b), (c, d) = first, second
                return [
                    [_check_count(a, "counts[0][0]"), _check_count(b, "counts[0][1]")],
                    [_check_count(c, "counts[1][0]"), _check_count(d, "counts[1][1]")],
                ]
    except (TypeError, InvalidCounts) as exc:
        error = exc
    shape = np.shape(counts)
    if shape != (2, 2) or not isinstance(error, InvalidCounts):
        raise InvalidCounts(f"counts must be 2 x 2, got shape {shape}")
    raise error


@dataclass(frozen=True)
class ContingencyTable:
    """A 2 x 2 count table: outcome rows (success, failure) by two groups."""

    row_labels: tuple
    col_labels: tuple
    counts: np.ndarray

    def __post_init__(self):
        (a, b), (c, d) = checked = _checked_cells(self.counts)
        if a + c < 1 or b + d < 1:
            raise InvalidCounts("each group column needs at least one observation")
        object.__setattr__(self, "counts", np.array(checked))
        object.__setattr__(self, "row_labels", tuple(self.row_labels))
        object.__setattr__(self, "col_labels", tuple(self.col_labels))
        if len(self.row_labels) != 2 or len(self.col_labels) != 2:
            raise MismatchedInputs("need exactly two row labels and two column labels")
        if self.col_labels[0] == self.col_labels[1]:
            raise InvalidSpec(f"the two group labels must differ, got {self.col_labels[0]!r} twice")

    def successes(self, col: int) -> int:
        return int(self.counts[0, col])

    def total(self, col: int) -> int:
        return int(self.counts[:, col].sum())

    def rate(self, col: int) -> float:
        return self.successes(col) / self.total(col)


@dataclass(frozen=True)
class StratifiedTables:
    """An aggregate table plus named stratum tables over the same groups.

    `counts` is the strata's counts stacked into one (k, 2, 2) integer
    array, in stratum order, built once here; the tests over strata read it
    rather than the stratum tables.
    """

    aggregate: ContingencyTable
    strata: tuple
    complete: bool
    counts: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        strata = tuple(self.strata)
        if not strata:
            raise TooFewStrata("at least one stratum table is required")
        names = [name for name, _ in strata]
        if len(set(names)) != len(names):
            raise InvalidSpec("stratum names must be unique")
        rows, cols = self.aggregate.row_labels, self.aggregate.col_labels
        for name, table in strata:
            if table.col_labels != cols:
                raise MismatchedInputs(f"stratum {name!r} has different group labels than the aggregate")
            if table.row_labels != rows:
                raise MismatchedInputs(f"stratum {name!r} has different outcome labels than the aggregate")
        counts = np.array([table.counts for _, table in strata])
        total = counts.sum(axis=0)
        if self.complete:
            if not np.array_equal(total, self.aggregate.counts):
                raise InvalidCounts("complete stratification must sum exactly to the aggregate")
        elif np.any(total > self.aggregate.counts):
            raise InvalidCounts("stratum counts exceed the aggregate")
        object.__setattr__(self, "strata", strata)
        object.__setattr__(self, "counts", counts)


@dataclass(frozen=True)
class ProportionComparison:
    """A pooled two-proportion z-test."""

    diff: float
    z: float
    p_value: float


def _two_proportion_rows(counts: np.ndarray) -> tuple:
    """Pooled two-proportion z-tests of stacked (..., 2, 2) count tables.

    Returns (rates, z, p, pooled): each table's two group rates, shape
    (..., 2), and its z, two-sided Normal p and pooled rate. Where the pooled
    rate is 0 or 1, z and p are NaN.
    """
    successes = counts[..., 0, :]
    totals = counts.sum(axis=-2)
    rates = successes / totals
    pooled = successes.sum(axis=-1) / totals.sum(axis=-1)
    se = np.sqrt(pooled * (1.0 - pooled) * (1.0 / totals[..., 0] + 1.0 / totals[..., 1]))
    with np.errstate(invalid="ignore"):
        z = (rates[..., 0] - rates[..., 1]) / se
    return rates, z, _tail(Normal(), z, "two"), pooled


@dataclass(frozen=True)
class HomogeneityResult:
    """Chi-square test that one group's rate is constant across strata."""

    chi2: float
    df: int
    p_value: float
    id_holds: bool
    small_sample_warning: bool


def homogeneity_test(tables: StratifiedTables, column, alpha: float = 0.05) -> HomogeneityResult:
    """Pearson chi-square test of a constant success rate across strata.

    Tests, for group column 0 or 1 of the tables, whether every stratum
    shares one success rate; df = (number of strata) - 1. id_holds is true
    when the test does not reject at alpha. Expected cell counts below 5 set
    small_sample_warning but the statistic is still computed.

    Raises:
        TooFewStrata: with fewer than two strata.
        DegeneratePool: if the pooled rate over strata is 0 or 1.
    """
    if not 0 < alpha < 1:
        raise InvalidSpec(f"alpha must be in (0, 1), got {alpha!r}")
    if column not in (0, 1):
        raise InvalidSpec("column index must be 0 or 1")
    k = len(tables.strata)
    if k < 2:
        raise TooFewStrata("homogeneity needs at least two strata")
    group = tables.counts[:, :, int(column)]
    successes = group[:, 0].astype(float)
    totals = group.sum(axis=1).astype(float)
    pooled = successes.sum() / totals.sum()
    if pooled in (0.0, 1.0):
        raise DegeneratePool("pooled rate over strata is 0 or 1")
    expected_success = totals * pooled
    expected_failure = totals * (1.0 - pooled)
    failures = totals - successes
    chi2 = float(
        np.sum((successes - expected_success) ** 2 / expected_success)
        + np.sum((failures - expected_failure) ** 2 / expected_failure)
    )
    df = k - 1
    p = tail_prob(ChiSquare(df), chi2, "one")
    warning = bool(np.any(expected_success < 5) or np.any(expected_failure < 5))
    return HomogeneityResult(
        chi2=chi2, df=df, p_value=float(p), id_holds=bool(p >= alpha), small_sample_warning=warning
    )


@dataclass(frozen=True)
class AggregateVerdict:
    """Trustworthiness of an aggregate two-group comparison.

    strata_direction is the sign of the sum of the strata's directions (the
    majority of the strata that order the groups at all, 0 on a tie), and
    strata_p_value the smallest stratum z-test p, where a stratum whose
    pooled rate is 0 or 1 counts as p = 1.
    """

    aggregate_rates: tuple
    aggregate_direction: int
    aggregate_test: ProportionComparison
    per_stratum: tuple
    strata_direction: int
    strata_p_value: float
    homogeneity: dict
    narrative: str
    alpha: float


def aggregate_verdict(tables: StratifiedTables, alpha: float = 0.05) -> AggregateVerdict:
    """Judge whether the aggregate rate comparison can be taken at face value.

    The aggregate ordering of the two group rates is compared with each
    stratum's ordering; a reversal is present when the strata's direction is
    nonzero and opposes the aggregate's. The aggregate comparison itself is
    trustworthy only when the homogeneity test holds for both groups, i.e.
    the pooled rates are not mixtures of unequal stratum rates. One stacked
    z-test covers the aggregate (row 0) and the strata; a pooled rate of 0
    or 1 over a group's strata or in the aggregate raises DegeneratePool.
    """
    if not 0 < alpha < 1:
        raise InvalidSpec(f"alpha must be in (0, 1), got {alpha!r}")
    labels = tables.aggregate.col_labels
    counts = np.concatenate([tables.aggregate.counts[None], tables.counts])
    rates, z, p, pooled = _two_proportion_rows(counts)
    rate0, rate1 = rates[0].tolist()
    agg_dir = int(np.sign(rate0 - rate1))

    directions = np.sign(rates[1:, 0] - rates[1:, 1]).astype(int).tolist()
    strata_dir = int(np.sign(sum(directions)))
    strata_p = float(np.where((pooled[1:] == 0.0) | (pooled[1:] == 1.0), 1.0, p[1:]).min())
    per_stratum = [(name, r0, r1) for (name, _), (r0, r1) in zip(tables.strata, rates[1:].tolist())]
    flipped = [name for (name, _, _), direction in zip(per_stratum, directions) if direction * agg_dir < 0]

    homogeneity = {}
    trustworthy = True
    if len(tables.strata) >= 2:
        for col, label in enumerate(labels):
            result = homogeneity_test(tables, col, alpha=alpha)
            homogeneity[label] = result
            trustworthy = trustworthy and result.id_holds
    if pooled[0] in (0.0, 1.0):
        raise DegeneratePool("pooled rate is 0 or 1; the z statistic is undefined")
    aggregate_test = ProportionComparison(diff=rate0 - rate1, z=float(z[0]), p_value=float(p[0]))

    lines = []
    winner = labels[0] if agg_dir > 0 else labels[1] if agg_dir < 0 else "neither group"
    lines.append(
        f"Aggregate: {labels[0]} {_fmt(rate0, 2)} vs {labels[1]} {_fmt(rate1, 2)}, favoring {winner}."
    )
    if flipped:
        parts = []
        for (name, r0, r1), direction in zip(per_stratum, directions):
            if direction * agg_dir < 0:
                note = "; margin below display precision" if abs(r0 - r1) < 0.005 or round(r0, 2) == round(r1, 2) else ""
                parts.append(f"{name} ({_fmt(r0, 2)} vs {_fmt(r1, 2)}{note})")
        lines.append("Strata ordering the groups the other way: " + ", ".join(parts) + ".")
    agreeing = [
        f"{name} ({_fmt(r0, 2)} vs {_fmt(r1, 2)})"
        for (name, r0, r1), direction in zip(per_stratum, directions)
        if direction == agg_dir
    ]
    if agreeing and flipped:
        lines.append("Strata agreeing with the aggregate: " + ", ".join(agreeing) + ".")
    if not tables.complete:
        lines.append("Stratification is partial: the strata do not account for the whole aggregate.")
    if homogeneity:
        verdicts = []
        for label, result in homogeneity.items():
            word = "holds" if result.id_holds else "fails"
            verdicts.append(f"{label} {word} (p {format_p(result.p_value)})")
        lines.append("Constant-rate check across strata: " + ", ".join(verdicts) + ".")
        if trustworthy:
            lines.append("The aggregate comparison pools homogeneous rates and may be taken at face value.")
        else:
            lines.append(
                "The aggregate comparison pools heterogeneous stratum rates and is not trustworthy; "
                "only the per-stratum comparisons are interpretable."
            )
    else:
        lines.append("A single stratum gives the constancy check nothing to compare.")

    return AggregateVerdict(
        aggregate_rates=(rate0, rate1),
        aggregate_direction=agg_dir,
        aggregate_test=aggregate_test,
        per_stratum=tuple(per_stratum),
        strata_direction=strata_dir,
        strata_p_value=strata_p,
        homogeneity=homogeneity,
        narrative="\n".join(lines),
        alpha=alpha,
    )


@dataclass(frozen=True)
class EventProbabilityTriple:
    """Conditional success probabilities marginally and inside two strata.

    Records P(A | B) and P(A | not B) along with the same pair inside
    stratum C and inside its complement.
    """

    p_a_given_b: float
    p_a_given_notb: float
    p_a_given_b_c: float
    p_a_given_notb_c: float
    p_a_given_b_notc: float
    p_a_given_notb_notc: float

    def __post_init__(self):
        for name, value in self.__dict__.items():
            if not (np.isfinite(value) and 0.0 <= value <= 1.0):
                raise InvalidSpec(f"{name}={value!r} is not a probability")


@dataclass(frozen=True)
class EventReversalResult:
    """Whether the marginal ordering flips inside both strata."""

    pattern_holds: bool
    mirrored: bool


def check_event_reversal(triple: EventProbabilityTriple) -> EventReversalResult:
    """Check the strict event-probability reversal pattern.

    The canonical pattern: P(A|B) < P(A|notB) while inside both strata the
    inequality runs the other way. The mirrored pattern flips every
    inequality. Any equality breaks the pattern.
    """
    canonical = (
        triple.p_a_given_b < triple.p_a_given_notb
        and triple.p_a_given_b_c > triple.p_a_given_notb_c
        and triple.p_a_given_b_notc > triple.p_a_given_notb_notc
    )
    mirrored = (
        triple.p_a_given_b > triple.p_a_given_notb
        and triple.p_a_given_b_c < triple.p_a_given_notb_c
        and triple.p_a_given_b_notc < triple.p_a_given_notb_notc
    )
    return EventReversalResult(pattern_holds=bool(canonical or mirrored), mirrored=bool(mirrored))


def triple_from_tables(tables: StratifiedTables) -> EventProbabilityTriple:
    """Build an event-probability triple from a two-stratum family.

    Group column 0 plays the role of B, column 1 of not-B; the first
    stratum is C, the second its complement.
    """
    if len(tables.strata) != 2:
        raise InvalidSpec("an event triple needs exactly two strata")
    (_, first), (_, second) = tables.strata
    agg = tables.aggregate
    return EventProbabilityTriple(
        p_a_given_b=agg.rate(0),
        p_a_given_notb=agg.rate(1),
        p_a_given_b_c=first.rate(0),
        p_a_given_notb_c=first.rate(1),
        p_a_given_b_notc=second.rate(0),
        p_a_given_notb_notc=second.rate(1),
    )


def _member(obj, key: str, where: str):
    """obj[key] of a JSON object, or InvalidSpec saying where it is missing."""
    if not isinstance(obj, dict):
        raise InvalidSpec(f"malformed stratified-tables JSON: {where} is not an object (got {type(obj).__name__})")
    if key not in obj:
        raise InvalidSpec(f"malformed stratified-tables JSON: {where} is missing key {key!r}")
    return obj[key]


def _label(value, where: str):
    """A JSON name or label, which must be a string or a number."""
    if isinstance(value, bool) or not isinstance(value, (str, int, float)):
        raise InvalidSpec(f"malformed stratified-tables JSON: {where} must be a string or a number, got {value!r}")
    return value


def _labels(labels, key: str) -> tuple:
    values = _member(labels, key, "aggregate labels")
    if not isinstance(values, list):
        raise InvalidSpec(f"malformed stratified-tables JSON: aggregate labels {key} must be a list, got {values!r}")
    return tuple(_label(value, f"aggregate labels {key}[{i}]") for i, value in enumerate(values))


def _table(rows: tuple, cols: tuple, counts, where: str) -> ContingencyTable:
    try:
        return ContingencyTable(row_labels=rows, col_labels=cols, counts=counts)
    except InvalidCounts as exc:
        raise InvalidCounts(f"{where}: {exc}") from None
    except ValueError:  # numpy's error for ragged nested lists
        raise InvalidCounts(f"{where}: counts must be 2 x 2, got rows of unequal length") from None


def stratified_tables_from_json(obj: dict) -> StratifiedTables:
    """Parse the on-disk JSON layout into StratifiedTables.

    Expected shape:
        {"aggregate": {"labels": {"rows": [...], "cols": [...]},
                       "counts": [[..., ...], [..., ...]]},
         "strata": [{"name": ..., "counts": [[..., ...], [..., ...]]}],
         "complete": true | false}

    Names and labels are JSON strings or numbers, and counts integers below
    2**53; a count error names its table.
    """
    try:
        aggregate_obj = _member(obj, "aggregate", "the top level")
        labels = _member(aggregate_obj, "labels", "aggregate")
        rows, cols = _labels(labels, "rows"), _labels(labels, "cols")
        aggregate = _table(rows, cols, _member(aggregate_obj, "counts", "aggregate"), "aggregate")
        strata = tuple(
            (
                _label(_member(entry, "name", f"strata[{i}]"), f"strata[{i}] name"),
                _table(rows, cols, _member(entry, "counts", f"strata[{i}]"), f"strata[{i}]"),
            )
            for i, entry in enumerate(_member(obj, "strata", "the top level"))
        )
        complete = _member(obj, "complete", "the top level")
        if not isinstance(complete, bool):
            raise InvalidSpec(f"malformed stratified-tables JSON: complete must be true or false, got {complete!r}")
    except TypeError as exc:
        raise InvalidSpec(f"malformed stratified-tables JSON: {exc}") from None
    return StratifiedTables(aggregate=aggregate, strata=strata, complete=complete)
