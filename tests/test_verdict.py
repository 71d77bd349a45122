import json

import numpy as np
import pytest

from revcheck.bernoulli import aggregate_verdict, stratified_tables_from_json
from revcheck.errors import InvalidSpec, MismatchedInputs
from revcheck.fixtures import load_json
from revcheck.misspec import ASSUMPTIONS
from revcheck.regression import Dataset, ModelSpec, fit
from revcheck.verdict import (
    BERNOULLI_ASSUMPTIONS,
    CASE1,
    CASE2,
    FAIL,
    INDETERMINATE,
    NO_REVERSAL,
    PASS,
    UNTESTED,
    AssociationPair,
    AssociationSide,
    MisspecReport,
    ReversalVerdict,
    adequacy_from_homogeneity,
    classify,
    format_fit,
    format_p,
    render,
    untested_adequacy,
)


def make_report(overrides=None, source=""):
    statuses = {label: PASS for label in ASSUMPTIONS}
    statuses.update(overrides or {})
    p_values = {}
    for label, status in statuses.items():
        p_values[label] = None if status == UNTESTED else (0.004 if status == FAIL else 0.4)
    return MisspecReport(
        per_assumption=statuses,
        p_values=p_values,
        evidence=(),
        degenerate=False,
        source=source,
    )


def make_pair(m_dir=1, c_dir=-1, m_p=0.001, c_p=0.001):
    return AssociationPair(
        marginal=AssociationSide(source="", direction=m_dir, p_value=m_p),
        conditional=AssociationSide(source="", direction=c_dir, p_value=c_p),
        conditioning="within levels of g",
    )


def test_same_direction_is_no_reversal_even_with_failures():
    pair = make_pair(m_dir=1, c_dir=1)
    broken = make_report({"[2] linearity": FAIL})
    verdict = classify(pair, broken, broken)
    assert verdict.kind == NO_REVERSAL
    assert "same way" in verdict.rationale


def test_any_failure_gives_case2():
    pair = make_pair()
    verdict = classify(pair, make_report(), make_report({"[4] independence": FAIL}))
    assert verdict.kind == CASE2
    assert "conditional model fails [4] independence" in verdict.rationale
    assert "artifact" in verdict.rationale


def test_failure_outranks_untested():
    pair = make_pair()
    mixed = make_report({"[1] normality": UNTESTED, "[3] homoskedasticity": FAIL})
    verdict = classify(pair, mixed, make_report())
    assert verdict.kind == CASE2


def test_untested_without_failure_is_indeterminate():
    pair = make_pair()
    verdict = classify(pair, make_report({"[5] parameter invariance": UNTESTED}), make_report())
    assert verdict.kind == INDETERMINATE
    assert "could not be tested" in verdict.rationale
    assert "[5] parameter invariance" in verdict.rationale


def test_clean_significant_flip_is_case1():
    pair = make_pair()
    verdict = classify(pair, make_report(), make_report())
    assert verdict.kind == CASE1
    assert "trustworthy" in verdict.rationale


def test_insignificant_side_blocks_the_reversal():
    pair = make_pair(c_p=0.2)
    verdict = classify(pair, make_report(), make_report())
    assert verdict.kind == NO_REVERSAL
    assert "conditional association is not statistically significant" in verdict.rationale
    both = classify(make_pair(m_p=0.3, c_p=0.2), make_report(), make_report())
    assert "marginal and conditional" in both.rationale


def test_source_mismatch_is_rejected():
    pair = AssociationPair(
        marginal=AssociationSide(source="fit y ~ x", direction=1, p_value=0.01),
        conditional=AssociationSide(source="fit y ~ x + z", direction=-1, p_value=0.01),
        conditioning="conditioning on z",
    )
    wrong = make_report(source="some other fit")
    with pytest.raises(MismatchedInputs):
        classify(pair, wrong, make_report())
    matching = make_report(source="fit y ~ x")
    verdict = classify(pair, matching, make_report(source="fit y ~ x + z"))
    assert verdict.kind == CASE1


def test_classify_validates_alpha_and_sides():
    with pytest.raises(InvalidSpec):
        classify(make_pair(), make_report(), make_report(), alpha=0.0)
    with pytest.raises(InvalidSpec):
        AssociationSide(source="", direction=2, p_value=0.5)
    with pytest.raises(InvalidSpec):
        AssociationSide(source="", direction=1, p_value=1.5)


def test_json_schema_guard():
    payload = json.loads(render(classify(make_pair(), make_report(), make_report()), fmt="json"))
    assert payload["schema"] == "reversal-report/1"
    assert payload["substantive_adequacy"] == "not assessed"


def test_text_rendering():
    verdict = classify(make_pair(), make_report(), make_report({"[2] linearity": FAIL}))
    text = render(verdict, fmt="text", narrative="Pooled slope is negative.")
    assert text.startswith("Verdict: Case2Untrustworthy\n")
    assert "Marginal association" in text
    assert "direction +" in text and "direction -" in text
    assert "[2] linearity: fail (p = .004)" in text
    assert "[1] normality: pass (p = .400)" in text
    assert "Pooled slope is negative." in text
    assert text.rstrip().endswith("not assessed.")
    with pytest.raises(InvalidSpec):
        render(verdict, fmt="yaml")


def test_format_p_boundaries():
    assert format_p(0.0004) == "< .001"
    assert format_p(0.0005) == "= .001"
    assert format_p(0.02) == "= .020"
    assert format_p(0.9999) == "= 1.000"


def test_format_fit_layout():
    data = Dataset(columns={"x": np.array([0.0, 1.0, 2.0, 3.0]), "y": np.array([5.0, 3.0, 1.0, -1.0])})
    line = format_fit(fit(data, ModelSpec(response="y", regressors=("x",))))
    assert line == "y = 5.000 (.000) - 2.000 (.000) x; R^2 = 1.000, s = .000, n = 4"
    noisy = Dataset(
        columns={"x": np.array([0.0, 1.0, 2.0, 3.0]), "income": np.array([1.0, 2.0, 2.0, 4.0])}
    )
    noisy_line = format_fit(fit(noisy, ModelSpec(response="income", regressors=("x",))))
    assert noisy_line.startswith("income = ")
    assert "R^2 = " in noisy_line and "n = 4" in noisy_line


def test_adequacy_from_homogeneity_mapping():
    aggregate = aggregate_verdict(stratified_tables_from_json(load_json("lindley_novick.json")))
    homogeneity = aggregate.homogeneity
    assert set(homogeneity) == {"white", "black"}
    report = adequacy_from_homogeneity(aggregate, source="aggregate rate comparison")
    assert report.per_assumption["[2] constant mean"] == FAIL
    assert report.per_assumption["[3] constant variance"] == FAIL
    assert report.per_assumption["[1] Bernoulli outcome"] == UNTESTED
    assert report.per_assumption["[4] independence"] == UNTESTED
    assert report.p_values["[2] constant mean"] == pytest.approx(
        min(h.p_value for h in homogeneity.values())
    )
    assert not report.overall_adequate
    assert report.source == "aggregate rate comparison"
    assert {label for label, _ in report.evidence} == {"homogeneity(white)", "homogeneity(black)"}


def test_adequacy_from_homogeneity_passing_case():
    obj = {
        "aggregate": {
            "labels": {"rows": ["hit", "miss"], "cols": ["left", "right"]},
            "counts": [[30, 15], [30, 45]],
        },
        "strata": [
            {"name": "one", "counts": [[10, 5], [10, 15]]},
            {"name": "two", "counts": [[20, 10], [20, 30]]},
        ],
        "complete": True,
    }
    report = adequacy_from_homogeneity(aggregate_verdict(stratified_tables_from_json(obj)))
    assert report.per_assumption["[2] constant mean"] == PASS
    assert report.per_assumption["[3] constant variance"] == PASS
    assert report.overall_adequate


@pytest.mark.parametrize("alpha, status", [(0.05, FAIL), (0.0254, FAIL), (0.0253, PASS), (0.01, PASS)])
def test_adequacy_from_homogeneity_decides_at_the_verdicts_alpha(alpha, status):
    # Lindley-Novick's homogeneity p-values are .0285 and .0253 (the smaller).
    aggregate = aggregate_verdict(stratified_tables_from_json(load_json("lindley_novick.json")), alpha=alpha)
    report = adequacy_from_homogeneity(aggregate)
    smallest = min(result.p_value for result in aggregate.homogeneity.values())
    for label in ("[2] constant mean", "[3] constant variance"):
        assert report.per_assumption[label] == status
        assert report.p_values[label] == smallest
    assert report.per_assumption["[1] Bernoulli outcome"] == UNTESTED
    assert report.p_values["[1] Bernoulli outcome"] is None


def test_untested_adequacy_report():
    report = untested_adequacy(source="per-stratum rate comparisons")
    assert set(report.per_assumption) == set(BERNOULLI_ASSUMPTIONS)
    assert all(status == UNTESTED for status in report.per_assumption.values())
    assert all(p is None for p in report.p_values.values())
    assert report.overall_adequate
    assert report.source == "per-stratum rate comparisons"
