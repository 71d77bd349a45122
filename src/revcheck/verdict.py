"""Classifying an association reversal and rendering the report.

An observed reversal (marginal association one way, conditional association
the other) is classified into one of four kinds:

  * NoReversal          - directions agree, or the flip is not
                          statistically established at the chosen level
  * Case1Trustworthy    - directions flip, both associations significant,
                          and every model assumption behind both of them
                          passed its diagnostic: the reversal is real and
                          the conditional association is the one to read
  * Case2Untrustworthy  - directions flip but at least one diagnostic
                          failed: the flip is an artifact of a misspecified
                          model, and that model's output should not be read
  * Indeterminate       - directions flip, nothing failed, but some
                          assumption could not be tested

A failed diagnostic is decisive, so a report mixing failures with untested
assumptions classifies as Case2, not Indeterminate. Statistical adequacy is
all this module judges; whether the conditioning variable is the right one
substantively (confounding, causal direction) is explicitly not assessed.

The adequacy report both batteries produce, MisspecReport, and the rule
behind its statuses, assess_assumptions, are defined here, so a table is
classified without loading any regression code.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .errors import InvalidSpec, MismatchedInputs

SCHEMA = "reversal-report/1"

# The status of each assumption in an adequacy report.
PASS = "pass"
FAIL = "fail"
UNTESTED = "untested"

NO_REVERSAL = "NoReversal"
CASE1 = "Case1Trustworthy"
CASE2 = "Case2Untrustworthy"
INDETERMINATE = "Indeterminate"

BERNOULLI_ASSUMPTIONS = (
    "[1] Bernoulli outcome",
    "[2] constant mean",
    "[3] constant variance",
    "[4] independence",
)

_NOT_ASSESSED = "substantive adequacy (confounding, causal structure): not assessed"


@dataclass(frozen=True)
class MisspecReport:
    """Battery outcome: one status per assumption plus the raw evidence.

    assess_assumptions sets each status and p from the checks behind the
    assumption: p_values holds the smallest p over those checks, or None
    where untested. A report merged over groups fails an assumption that
    fails in any group and leaves untested, with no p, one that any group
    left untested. overall_adequate is true exactly when no assumption is
    marked fail; untested assumptions do not count as passes and are
    surfaced to the verdict layer separately.
    """

    per_assumption: dict
    p_values: dict
    evidence: tuple
    degenerate: bool = False
    source: str = ""

    @property
    def overall_adequate(self) -> bool:
        return FAIL not in self.per_assumption.values()


def assess_assumptions(checks: dict, alpha: float) -> tuple:
    """Each assumption's status and p from the p-values of its checks.

    checks maps each assumption label to the p-values of the checks behind
    it; a None or NaN entry stands for evidence that could not be gathered,
    such as a group whose battery left the assumption untested or a
    normality check whose kurtosis transform is undefined. An assumption fails
    when its smallest p is below alpha, passes when at least one check ran
    and no evidence is missing, and is otherwise untested, with p None.
    The p of a pass or a fail is the smallest p. Returns the statuses and
    the p-values, each a dict keyed like checks.
    """
    statuses, p_values = {}, {}
    for label, ps in checks.items():
        ran = [float(p) for p in ps if p is not None and not math.isnan(p)]
        smallest = min(ran, default=None)
        if smallest is not None and smallest < alpha:
            statuses[label], p_values[label] = FAIL, smallest
        elif ran and len(ran) == len(ps):
            statuses[label], p_values[label] = PASS, smallest
        else:
            statuses[label], p_values[label] = UNTESTED, None
    return statuses, p_values


@dataclass(frozen=True)
class AssociationSide:
    """One side of the comparison: where it came from, sign, significance."""

    source: str
    direction: int
    p_value: float

    def __post_init__(self):
        if self.direction not in (-1, 0, 1):
            raise InvalidSpec(f"direction must be -1, 0, or 1, got {self.direction!r}")
        if not 0.0 <= self.p_value <= 1.0:
            raise InvalidSpec(f"p_value must lie in [0, 1], got {self.p_value!r}")


@dataclass(frozen=True)
class AssociationPair:
    """The marginal and conditional associations being compared."""

    marginal: AssociationSide
    conditional: AssociationSide
    conditioning: str


@dataclass(frozen=True)
class ReversalVerdict:
    """The classification plus everything needed to justify it."""

    kind: str
    pair: AssociationPair
    marginal_report: MisspecReport
    conditional_report: MisspecReport
    alpha: float
    rationale: str


def _failed(report: MisspecReport) -> list:
    return [a for a, status in report.per_assumption.items() if status == FAIL]


def _untested(report: MisspecReport) -> list:
    return [a for a, status in report.per_assumption.items() if status == UNTESTED]


def classify(
    pair: AssociationPair,
    marginal_report: MisspecReport,
    conditional_report: MisspecReport,
    alpha: float = 0.05,
) -> ReversalVerdict:
    """Classify an observed reversal given the two adequacy reports.

    Raises:
        MismatchedInputs: if a report declares a source that does not match
            the association side it is paired with.
    """
    if not 0 < alpha < 1:
        raise InvalidSpec(f"alpha must be in (0, 1), got {alpha!r}")
    for side, report in ((pair.marginal, marginal_report), (pair.conditional, conditional_report)):
        if report.source and report.source != side.source:
            raise MismatchedInputs(
                f"adequacy report for {report.source!r} paired with association from {side.source!r}"
            )

    m_dir, c_dir = pair.marginal.direction, pair.conditional.direction
    if m_dir == c_dir:
        kind = NO_REVERSAL
        rationale = (
            "The marginal and conditional associations point the same way; there is no reversal to explain."
        )
        return ReversalVerdict(kind, pair, marginal_report, conditional_report, alpha, rationale)

    failures = [("marginal", a) for a in _failed(marginal_report)]
    failures += [("conditional", a) for a in _failed(conditional_report)]
    if failures:
        by_side = {}
        for side_name, assumption in failures:
            by_side.setdefault(side_name, []).append(assumption)
        parts = [f"the {side} model fails {', '.join(assumptions)}" for side, assumptions in by_side.items()]
        rationale = (
            "The associations point in opposite directions, but "
            + " and ".join(parts)
            + "; estimates from a misspecified model carry no evidential weight, so the reversal "
            + "is an artifact of misspecification rather than a trustworthy finding."
        )
        return ReversalVerdict(CASE2, pair, marginal_report, conditional_report, alpha, rationale)

    untested = [("marginal", a) for a in _untested(marginal_report)]
    untested += [("conditional", a) for a in _untested(conditional_report)]
    if untested:
        listing = "; ".join(f"{side}: {assumption}" for side, assumption in untested)
        rationale = (
            "The associations point in opposite directions and no diagnostic failed, but some "
            f"assumptions could not be tested ({listing}); the reversal cannot be certified."
        )
        return ReversalVerdict(INDETERMINATE, pair, marginal_report, conditional_report, alpha, rationale)

    insignificant = [
        name
        for name, side in (("marginal", pair.marginal), ("conditional", pair.conditional))
        if side.p_value >= alpha
    ]
    if insignificant:
        rationale = (
            "The associations point in opposite directions and both models pass their diagnostics, "
            f"but the {' and '.join(insignificant)} association is not statistically significant at "
            f"alpha = {alpha:g}; no reversal is established."
        )
        return ReversalVerdict(NO_REVERSAL, pair, marginal_report, conditional_report, alpha, rationale)

    rationale = (
        "Both associations are statistically significant, they point in opposite directions, and "
        "every testable assumption of both models passed: the reversal is statistically trustworthy, "
        "and the conditional association is the relevant one given the conditioning."
    )
    return ReversalVerdict(CASE1, pair, marginal_report, conditional_report, alpha, rationale)


def adequacy_from_homogeneity(aggregate, source: str = "") -> MisspecReport:
    """Adequacy report for an aggregate Bernoulli comparison.

    aggregate is the bernoulli.AggregateVerdict of the tables. The
    aggregate model treats each group as one Bernoulli sequence; a failed
    constant-rate check across strata invalidates its constant mean and,
    with it, the constant variance ([2] and [3]), so both rest on every
    group's homogeneity p at the verdict's alpha. The Bernoulli shape
    itself and independence are not testable from the table counts.
    """
    homogeneity_ps = [result.p_value for result in aggregate.homogeneity.values()]
    checks = {label: [] for label in BERNOULLI_ASSUMPTIONS}
    checks["[2] constant mean"] = checks["[3] constant variance"] = homogeneity_ps
    statuses, p_values = assess_assumptions(checks, aggregate.alpha)
    evidence = tuple((f"homogeneity({label})", result) for label, result in aggregate.homogeneity.items())
    return MisspecReport(statuses, p_values, evidence, source=source)


def untested_adequacy(source: str = "") -> MisspecReport:
    """A report whose every Bernoulli assumption is untested (nothing ran)."""
    return MisspecReport(
        dict.fromkeys(BERNOULLI_ASSUMPTIONS, UNTESTED), dict.fromkeys(BERNOULLI_ASSUMPTIONS), (), source=source
    )


def _fmt(value: float, decimals: int = 3) -> str:
    text = f"{value:.{decimals}f}"
    if text.startswith("0."):
        return text[1:]
    if text.startswith("-0."):
        return "-" + text[2:]
    return text


def format_p(p: float) -> str:
    """Paper-style p display: '< .001' below half a thousandth."""
    if p < 0.0005:
        return "< .001"
    return "= " + _fmt(p)


def format_fit(result) -> str:
    """One-line summary of a regression.FitResult: coefficients with
    standard errors in parentheses."""
    pieces = []
    for name, coefficient, se in zip(result.term_names, result.coefficients, result.std_errors):
        value = f"{_fmt(coefficient)} ({_fmt(se)})"
        if name == "intercept":
            pieces.append(value)
        else:
            pieces.append(f"{value} {name}")
    equation = f"{result.spec.response} = " + " + ".join(pieces).replace("+ -", "- ")
    return f"{equation}; R^2 = {_fmt(result.r2)}, s = {_fmt(result.s)}, n = {result.n_used}"


def _direction_symbol(direction: int) -> str:
    return {1: "+", -1: "-", 0: "0"}[direction]


def _assumptions_payload(report: MisspecReport) -> dict:
    return {
        label: {
            "status": report.per_assumption[label],
            "p_value": report.p_values.get(label),
        }
        for label in report.per_assumption
    }


def render(verdict: ReversalVerdict, fmt: str = "text", narrative: str = "") -> str:
    """Render a verdict as human-readable text or canonical JSON.

    The JSON layout is schema reversal-report/1; keys are sorted so equal
    verdicts render to byte-identical documents. `narrative` appends
    caller-supplied context (data summaries, equations) to the rationale.
    """
    full_narrative = verdict.rationale if not narrative else narrative + "\n" + verdict.rationale
    if fmt == "json":
        payload = {
            "schema": SCHEMA,
            "verdict": verdict.kind,
            "alpha": verdict.alpha,
            "marginal": {
                "source": verdict.pair.marginal.source,
                "direction": verdict.pair.marginal.direction,
                "p_value": verdict.pair.marginal.p_value,
            },
            "conditional": {
                "source": verdict.pair.conditional.source,
                "direction": verdict.pair.conditional.direction,
                "p_value": verdict.pair.conditional.p_value,
            },
            "conditioning": verdict.pair.conditioning,
            "assumptions": {
                "marginal": _assumptions_payload(verdict.marginal_report),
                "conditional": _assumptions_payload(verdict.conditional_report),
            },
            "narrative": full_narrative,
            "substantive_adequacy": "not assessed",
        }
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if fmt != "text":
        raise InvalidSpec(f"format must be 'text' or 'json', got {fmt!r}")

    lines = [f"Verdict: {verdict.kind}", f"Alpha: {verdict.alpha:g}"]
    for name, side in (("Marginal", verdict.pair.marginal), ("Conditional", verdict.pair.conditional)):
        lines.append(
            f"{name} association ({side.source}): direction {_direction_symbol(side.direction)}, "
            f"p {format_p(side.p_value)}"
        )
    lines.append(f"Conditioning: {verdict.pair.conditioning}")
    for name, report in (
        ("marginal", verdict.marginal_report),
        ("conditional", verdict.conditional_report),
    ):
        lines.append(f"Assumptions ({name}):")
        for label in report.per_assumption:
            status = report.per_assumption[label]
            p = report.p_values.get(label)
            suffix = f" (p {format_p(p)})" if p is not None else ""
            lines.append(f"  {label}: {status}{suffix}")
    lines.append("Narrative:")
    for row in full_narrative.splitlines():
        lines.append(f"  {row}")
    lines.append("Note: " + _NOT_ASSESSED + ".")
    return "\n".join(lines) + "\n"

