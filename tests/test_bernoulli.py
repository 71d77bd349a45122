import dataclasses
import json
import math

import numpy as np
import pytest

from revcheck import bernoulli
from revcheck.bernoulli import (
    ContingencyTable,
    EventProbabilityTriple,
    StratifiedTables,
    aggregate_verdict,
    check_event_reversal,
    estimate_theta,
    homogeneity_test,
    stratified_tables_from_json,
    triple_from_tables,
    two_proportion_test,
)
from revcheck.core_stats import ChiSquare, Normal, tail_prob
from revcheck.errors import (
    DegeneratePool,
    InvalidCounts,
    InvalidSpec,
    MismatchedInputs,
    TooFewStrata,
)
from revcheck.fixtures import load_json


def admissions_tables():
    return stratified_tables_from_json(load_json("berkeley.json"))


def plots_tables():
    return stratified_tables_from_json(load_json("lindley_novick.json"))


def test_estimate_theta():
    est = estimate_theta(30, 100)
    assert est.theta_hat == pytest.approx(0.3)
    assert est.se == pytest.approx(math.sqrt(0.3 * 0.7 / 100))
    with pytest.raises(InvalidCounts):
        estimate_theta(5, 0)
    with pytest.raises(InvalidCounts):
        estimate_theta(7, 5)


def test_two_proportion_admissions_oracle():
    # Explicit arithmetic from the aggregate counts: pooled rate, pooled
    # standard error, and the z statistic, reproduced digit for digit.
    s0, n0, s1, n1 = 3738, 8442, 1494, 4321
    pooled = (s0 + s1) / (n0 + n1)
    se = math.sqrt(pooled * (1 - pooled) * (1 / n0 + 1 / n1))
    z_oracle = (s0 / n0 - s1 / n1) / se
    comp = two_proportion_test(s0, n0, s1, n1)
    assert math.isclose(comp.z, z_oracle, rel_tol=1e-12)
    assert round(comp.z, 3) == 10.547
    assert comp.reject
    assert comp.pooled_theta == pytest.approx(pooled)
    assert round(s0 / n0, 2) == 0.44 and round(s1 / n1, 2) == 0.35


def test_two_proportion_plots_oracle():
    # 20/40 vs 16/40: pooled .45, se sqrt(.45*.55*.05), z = .1/se = .8989...
    comp = two_proportion_test(20, 40, 16, 40)
    se = math.sqrt(0.45 * 0.55 * (1 / 40 + 1 / 40))
    assert math.isclose(comp.z, 0.1 / se, rel_tol=1e-12)
    assert round(comp.z, 3) == 0.899
    assert not comp.reject


def test_two_proportion_degenerate_pool():
    with pytest.raises(DegeneratePool):
        two_proportion_test(0, 10, 0, 10)
    with pytest.raises(DegeneratePool):
        two_proportion_test(10, 10, 10, 10)


def test_homogeneity_oracle_plots():
    # First column (2/10 and 18/30 pooled at .5): expected successes 5 and 15,
    # chi2 = 9/5 + 9/15 + 9/5 + 9/15 = 4.8 over success and failure cells.
    # Second column (9/30 and 7/10 pooled at .4): expected 12 and 4,
    # chi2 = 9/12 + 9/4 + 9/18 + 9/6 = 5.0.
    tables = plots_tables()
    first = homogeneity_test(tables, 0)
    second = homogeneity_test(tables, 1)
    assert math.isclose(first.chi2, 4.8, rel_tol=1e-12)
    assert math.isclose(second.chi2, 5.0, rel_tol=1e-12)
    assert first.df == 1 and second.df == 1
    assert round(first.p_value, 4) == 0.0285
    assert round(second.p_value, 4) == 0.0253
    assert not first.id_holds and not second.id_holds
    # Smallest expected cell is 10 * .4 = 4 on the second column.
    assert second.small_sample_warning
    assert not first.small_sample_warning


def test_homogeneity_large_admissions_column():
    tables = admissions_tables()
    male = homogeneity_test(tables, 0)
    assert male.df == 5
    assert male.chi2 > 400
    assert male.p_value < 1e-10
    assert not male.small_sample_warning


def test_homogeneity_needs_strata():
    agg = ContingencyTable(("a", "b"), ("l", "r"), ((5, 5), (5, 5)))
    single = StratifiedTables(aggregate=agg, strata=(("only", agg),), complete=True)
    with pytest.raises(TooFewStrata):
        homogeneity_test(single, 0)


@pytest.mark.parametrize("column", [2, -1, "admitted"])
def test_homogeneity_column_is_an_index(column):
    with pytest.raises(InvalidSpec, match="column index must be 0 or 1"):
        homogeneity_test(plots_tables(), column)


def test_aggregate_verdict_admissions():
    v = aggregate_verdict(admissions_tables())
    assert v.aggregate_rates[0] == pytest.approx(3738 / 8442)
    assert v.aggregate_rates[1] == pytest.approx(1494 / 4321)
    assert v.aggregate_direction == 1
    assert v.reversal_present
    assert not v.aggregate_trustworthy
    assert sorted(v.flipped_strata) == ["A", "B", "D", "E", "F"]
    assert "not trustworthy" in v.narrative
    # Table of per-stratum rates, rounded to two decimals as displayed.
    rounded = {name: (round(r0, 2), round(r1, 2)) for name, r0, r1 in v.per_stratum}
    assert rounded == {
        "A": (0.62, 0.82),
        "B": (0.63, 0.68),
        "C": (0.37, 0.34),
        "D": (0.33, 0.35),
        "E": (0.28, 0.32),
        "F": (0.06, 0.07),
    }


def test_aggregate_verdict_plots():
    v = aggregate_verdict(plots_tables())
    assert v.aggregate_rates == (pytest.approx(0.5), pytest.approx(0.4))
    assert [(round(r0, 1), round(r1, 1)) for _, r0, r1 in v.per_stratum] == [
        (0.2, 0.3),
        (0.6, 0.7),
    ]
    assert v.reversal_present
    assert not v.aggregate_trustworthy


@pytest.mark.parametrize("counts", [((0, 0), (10, 10)), ((10, 10), (0, 0))])
def test_aggregate_verdict_rejects_a_degenerate_aggregate_with_one_stratum(counts):
    # One stratum runs no homogeneity test, so the aggregate's own z-test is
    # what meets the pooled rate of 0 or 1.
    agg = ContingencyTable(("yes", "no"), ("a", "b"), counts)
    single = StratifiedTables(aggregate=agg, strata=(("only", agg),), complete=True)
    with pytest.raises(DegeneratePool, match=r"^pooled rate is 0 or 1; the z statistic is undefined$"):
        aggregate_verdict(single)


@pytest.mark.parametrize("tables", [admissions_tables, plots_tables])
def test_aggregate_test_is_the_two_proportion_test_of_the_aggregate(tables):
    tables = tables()
    agg = tables.aggregate
    v = aggregate_verdict(tables)
    assert v.aggregate_test == two_proportion_test(agg.successes(0), agg.total(0), agg.successes(1), agg.total(1))
    assert v.aggregate_rates == (agg.rate(0), agg.rate(1))


def test_event_reversal_plots_pattern():
    triple = triple_from_tables(plots_tables())
    assert triple.p_a_given_b == pytest.approx(0.5)
    assert triple.p_a_given_notb == pytest.approx(0.4)
    result = check_event_reversal(triple)
    assert result.pattern_holds


def test_event_reversal_mirror_symmetry():
    canonical = EventProbabilityTriple(
        p_a_given_b=0.4,
        p_a_given_notb=0.5,
        p_a_given_b_c=0.3,
        p_a_given_notb_c=0.2,
        p_a_given_b_notc=0.7,
        p_a_given_notb_notc=0.6,
    )
    res = check_event_reversal(canonical)
    assert res.pattern_holds and not res.mirrored
    mirrored = EventProbabilityTriple(
        p_a_given_b=0.5,
        p_a_given_notb=0.4,
        p_a_given_b_c=0.2,
        p_a_given_notb_c=0.3,
        p_a_given_b_notc=0.6,
        p_a_given_notb_notc=0.7,
    )
    res2 = check_event_reversal(mirrored)
    assert res2.pattern_holds and res2.mirrored
    broken = EventProbabilityTriple(
        p_a_given_b=0.5,
        p_a_given_notb=0.4,
        p_a_given_b_c=0.3,
        p_a_given_notb_c=0.2,
        p_a_given_b_notc=0.6,
        p_a_given_notb_notc=0.7,
    )
    assert not check_event_reversal(broken).pattern_holds


def test_event_triple_validation():
    with pytest.raises(InvalidSpec):
        EventProbabilityTriple(1.2, 0.5, 0.5, 0.5, 0.5, 0.5)


def test_triple_needs_exactly_two_strata():
    with pytest.raises(InvalidSpec):
        triple_from_tables(admissions_tables())


def test_contingency_table_validation():
    with pytest.raises(InvalidCounts):
        ContingencyTable(("a", "b"), ("l", "r"), ((1, -2), (3, 4)))
    with pytest.raises(InvalidCounts):
        ContingencyTable(("a", "b"), ("l", "r"), ((0, 1), (0, 1)))  # empty column
    with pytest.raises(MismatchedInputs):
        ContingencyTable(("a",), ("l", "r"), ((1, 2), (3, 4)))


@pytest.mark.parametrize("flag", [True, False, np.True_, np.False_])
def test_a_boolean_is_not_a_count(flag):
    # numpy reads True as 1; a count must be written as a number.
    with pytest.raises(InvalidCounts, match=r"counts\[0\]\[1\] must be a number, got "):
        ContingencyTable(("a", "b"), ("l", "r"), [[5, flag], [3, 4]])
    with pytest.raises(InvalidCounts, match="successes must be a number"):
        estimate_theta(flag, 10)
    with pytest.raises(InvalidCounts, match="total must be a number"):
        two_proportion_test(0, 5, 1, flag)


def test_stratified_tables_consistency():
    agg = ContingencyTable(("a", "b"), ("l", "r"), ((5, 5), (5, 5)))
    s1 = ContingencyTable(("a", "b"), ("l", "r"), ((5, 5), (5, 5)))
    s2 = ContingencyTable(("a", "b"), ("l", "r"), ((1, 1), (1, 1)))
    with pytest.raises(InvalidCounts):
        StratifiedTables(aggregate=agg, strata=(("one", s1), ("two", s2)), complete=True)
    partial = StratifiedTables(aggregate=agg, strata=(("one", s2),), complete=False)
    assert not partial.complete


def test_json_loader_roundtrip_and_errors():
    obj = load_json("lindley_novick.json")
    tables = stratified_tables_from_json(obj)
    assert tables.complete
    assert [name for name, _ in tables.strata] == ["short", "tall"]
    with pytest.raises(InvalidSpec):
        stratified_tables_from_json({"strata": []})
    bad = json.loads(json.dumps(obj))
    bad["strata"][0]["counts"] = [[1, 2]]
    with pytest.raises(InvalidCounts):
        stratified_tables_from_json(bad)


def without(obj, *path):
    """A deep copy of obj with the key at the end of path removed."""
    obj = json.loads(json.dumps(obj))
    parent = obj
    for key in path[:-1]:
        parent = parent[key]
    del parent[path[-1]]
    return obj


@pytest.mark.parametrize(
    "path, message",
    [
        (("aggregate",), "the top level is missing key 'aggregate'"),
        (("strata",), "the top level is missing key 'strata'"),
        (("complete",), "the top level is missing key 'complete'"),
        (("aggregate", "labels"), "aggregate is missing key 'labels'"),
        (("aggregate", "counts"), "aggregate is missing key 'counts'"),
        (("aggregate", "labels", "rows"), "aggregate labels is missing key 'rows'"),
        (("aggregate", "labels", "cols"), "aggregate labels is missing key 'cols'"),
        (("strata", 1, "name"), "strata[1] is missing key 'name'"),
        (("strata", 0, "counts"), "strata[0] is missing key 'counts'"),
    ],
)
def test_json_loader_names_a_missing_key_and_where(path, message):
    with pytest.raises(InvalidSpec) as caught:
        stratified_tables_from_json(without(load_json("lindley_novick.json"), *path))
    assert str(caught.value) == f"malformed stratified-tables JSON: {message}"


def test_json_loader_rejects_a_top_level_that_is_not_an_object():
    with pytest.raises(InvalidSpec) as caught:
        stratified_tables_from_json([load_json("lindley_novick.json")])
    assert str(caught.value) == "malformed stratified-tables JSON: the top level is not an object (got list)"


def test_bundled_fixture_copies_match_repo_root():
    # The repo root fixtures/ directory mirrors the bundled package data.
    import pathlib

    from revcheck.fixtures import fixture_path

    for name in ("berkeley.json", "lindley_novick.json"):
        bundled = json.loads(fixture_path(name).read_text())
        root_copy = pathlib.Path(__file__).resolve().parents[1] / "fixtures" / name
        assert json.loads(root_copy.read_text()) == bundled


def test_load_json_reads_a_zipped_fixtures_package(tmp_path, monkeypatch):
    # A zipped install has no fixture files on disk; load_json reads the
    # bundled data through the package's resources all the same.
    import importlib
    import pathlib
    import sys
    import zipfile

    import revcheck.fixtures

    source = pathlib.Path(revcheck.fixtures.__file__).parent
    archive = tmp_path / "zipped.zip"
    with zipfile.ZipFile(archive, "w") as bundle:
        for name in ("__init__.py", "berkeley.json"):
            bundle.write(source / name, f"zipped_fixtures/{name}")
    monkeypatch.syspath_prepend(str(archive))
    monkeypatch.delitem(sys.modules, "zipped_fixtures", raising=False)
    try:
        zipped = importlib.import_module("zipped_fixtures")
        assert zipped.__file__.startswith(str(archive))
        assert zipped.load_json("berkeley.json") == load_json("berkeley.json")
        with pytest.raises(FileNotFoundError, match="no bundled fixture named 'missing.json'"):
            zipped.load_json("missing.json")
    finally:
        sys.modules.pop("zipped_fixtures", None)


@pytest.mark.parametrize(
    "p, shown", [(1.0, "= 1.000"), (0.9996, "= 1.000"), (0.9994, "= .999"), (0.0004, "< .001")]
)
def test_narrative_shows_homogeneity_p_as_format_p_does(monkeypatch, p, shown):
    # The constant-rate sentence prints each homogeneity p the way the
    # verdict report does; p near 1 reads 1.000, not .000.
    real = bernoulli.homogeneity_test
    def with_p(*args, **kw):
        return dataclasses.replace(real(*args, **kw), p_value=p, id_holds=True)

    monkeypatch.setattr(bernoulli, "homogeneity_test", with_p)
    narrative = aggregate_verdict(admissions_tables()).narrative
    assert f"male holds (p {shown}), female holds (p {shown})." in narrative


def test_reversal_present_follows_the_strata_direction():
    # Only s1 orders the groups (against the aggregate); s2 and s3 tie. The
    # strata's direction is then s1's, so the aggregate is reversed.
    agg = ContingencyTable(("yes", "no"), ("a", "b"), ((80, 43), (60, 37)))
    strata = tuple(
        (name, ContingencyTable(("yes", "no"), ("a", "b"), counts))
        for name, counts in (
            ("s1", ((10, 20), (40, 30))),
            ("s2", ((30, 15), (10, 5))),
            ("s3", ((40, 8), (10, 2))),
        )
    )
    v = aggregate_verdict(StratifiedTables(aggregate=agg, strata=strata, complete=True))
    assert v.reversal_present
    assert (v.aggregate_direction, v.strata_direction) == (1, -1)
    assert v.flipped_strata == ("s1",)
    assert v.strata_p_value == min(
        two_proportion_test(t.successes(0), t.total(0), t.successes(1), t.total(1)).p_value for _, t in strata
    )


def seeded_family(complete: bool) -> dict:
    """A seeded JSON family of 50 strata, some with small totals.

    Stratum s7's pooled rate is 0 and s11's two rates are equal; a partial
    family adds counts to the aggregate that no stratum holds.
    """
    rng = np.random.default_rng(19)
    strata = []
    for _ in range(50):
        totals = rng.integers(3, 200, size=2)
        successes = rng.binomial(totals, rng.uniform(0.05, 0.95, size=2))
        strata.append([successes.tolist(), (totals - successes).tolist()])
    strata[7] = [[0, 0], [12, 30]]
    strata[11] = [[10, 20], [10, 20]]
    aggregate = np.sum(strata, axis=0) + (0 if complete else np.array([[5, 0], [3, 9]]))
    return {
        "aggregate": {"labels": {"rows": ["yes", "no"], "cols": ["a", "b"]}, "counts": aggregate.tolist()},
        "strata": [{"name": f"s{i}", "counts": counts} for i, counts in enumerate(strata)],
        "complete": complete,
    }


def sign(value: float) -> int:
    return (value > 0) - (value < 0)


def per_table_results(obj: dict) -> dict:
    """What a family's verdict must say, recomputed one table at a time in plain Python."""
    (agg_s0, agg_s1), (agg_f0, agg_f1) = obj["aggregate"]["counts"]
    agg_dir = sign(agg_s0 / (agg_s0 + agg_f0) - agg_s1 / (agg_s1 + agg_f1))
    per_stratum, directions, ps = [], [], []
    for entry in obj["strata"]:
        (s0, s1), (f0, f1) = entry["counts"]
        n0, n1 = s0 + f0, s1 + f1
        r0, r1 = s0 / n0, s1 / n1
        pooled = (s0 + s1) / (n0 + n1)
        if pooled in (0.0, 1.0):
            ps.append(1.0)
        else:
            z = (r0 - r1) / math.sqrt(pooled * (1.0 - pooled) * (1.0 / n0 + 1.0 / n1))
            ps.append(tail_prob(Normal(), z, "two"))
        per_stratum.append((entry["name"], r0, r1))
        directions.append(sign(r0 - r1))
    homogeneity = []
    for col in (0, 1):
        successes = [entry["counts"][0][col] for entry in obj["strata"]]
        totals = [entry["counts"][0][col] + entry["counts"][1][col] for entry in obj["strata"]]
        pooled = sum(successes) / sum(totals)
        chi2, small = 0.0, False
        for s, n in zip(successes, totals):
            expected_s, expected_f = n * pooled, n * (1.0 - pooled)
            chi2 += (s - expected_s) ** 2 / expected_s + ((n - s) - expected_f) ** 2 / expected_f
            small = small or expected_s < 5 or expected_f < 5
        df = len(totals) - 1
        homogeneity.append((chi2, df, tail_prob(ChiSquare(df), chi2, "one"), small))
    return {
        "per_stratum": per_stratum,
        "flipped": [name for (name, _, _), d in zip(per_stratum, directions) if d * agg_dir < 0],
        "strata_direction": sign(sum(directions)),
        "strata_p_value": min(ps),
        "homogeneity": homogeneity,
    }


@pytest.mark.parametrize("complete", [True, False])
def test_stacked_family_matches_a_per_table_recomputation(complete):
    obj = seeded_family(complete)
    tables = stratified_tables_from_json(obj)
    assert tables.counts.shape == (50, 2, 2)
    assert tables.counts.tolist() == [entry["counts"] for entry in obj["strata"]]
    v = aggregate_verdict(tables)
    expected = per_table_results(obj)
    assert list(v.per_stratum) == expected["per_stratum"]
    assert ("s7", 0.0, 0.0) in v.per_stratum and ("s11", 0.5, 0.5) in v.per_stratum
    assert list(v.flipped_strata) == expected["flipped"] and v.flipped_strata
    assert v.strata_direction == expected["strata_direction"]
    assert math.isclose(v.strata_p_value, expected["strata_p_value"], rel_tol=1e-12)
    for column, (label, (chi2, df, p, small)) in enumerate(zip(("a", "b"), expected["homogeneity"])):
        result = v.homogeneity[label]
        assert result == homogeneity_test(tables, column)
        assert math.isclose(result.chi2, chi2, rel_tol=1e-12)
        assert result.df == df == 49
        assert math.isclose(result.p_value, p, rel_tol=1e-9)
        assert result.small_sample_warning is small
    assert any(small for *_, small in expected["homogeneity"])


@pytest.mark.parametrize(
    "form", [lambda c: tuple(map(tuple, c)), lambda c: [list(row) for row in c], np.array], ids=["tuple", "list", "ndarray"]
)
@pytest.mark.parametrize("complete", [True, False])
def test_a_family_built_from_tables_gives_the_verdict_of_its_json(form, complete):
    obj = seeded_family(complete)

    def table(counts):
        return ContingencyTable(("yes", "no"), ("a", "b"), form(counts))

    built = StratifiedTables(
        aggregate=table(obj["aggregate"]["counts"]),
        strata=[(entry["name"], table(entry["counts"])) for entry in obj["strata"]],
        complete=complete,
    )
    read = stratified_tables_from_json(obj)
    assert built.counts.dtype == read.counts.dtype and np.array_equal(built.counts, read.counts)
    assert aggregate_verdict(built) == aggregate_verdict(read)


@pytest.mark.parametrize("value", [0, 2**53 - 1, np.int64(3), 3.0, "3", np.float64(7.0)])
def test_a_number_that_is_a_whole_count_is_read_as_an_int(value):
    table = ContingencyTable(("a", "b"), ("l", "r"), [[value, 1], [2, 3]])
    assert table.counts.tolist() == [[int(float(value)), 1], [2, 3]]
    assert table.counts.dtype == np.array([[1]]).dtype


@pytest.mark.parametrize(
    "value, message",
    [
        (2**53, "must be less than 2**53, got 9007199254740992"),
        (10**400, f"must be less than 2**53, got {10**400}"),
        (-1, "must be a non-negative integer, got -1"),
        (-(10**400), f"must be a non-negative integer, got {-(10**400)}"),
        (2.5, "must be a non-negative integer, got 2.5"),
        (float("inf"), "must be a non-negative integer, got inf"),
        (True, "must be a number, got True"),
        (np.True_, f"must be a number, got {np.True_!r}"),
        ("three", "must be a number, got 'three'"),
    ],
    ids=["2**53", "10**400", "-1", "-10**400", "2.5", "inf", "True", "np.True_", "three"],
)
def test_counts_rejected_with_their_message(value, message):
    with pytest.raises(InvalidCounts) as caught:
        ContingencyTable(("a", "b"), ("l", "r"), [[1, 2], [3, value]])
    assert str(caught.value) == f"counts[1][1] {message}"


@pytest.mark.parametrize(
    "counts, shape",
    [
        ([[1, 2], [3]], None),
        ([[1, 2]], (1, 2)),
        (["12", "34"], (2,)),
        ({"ab": 1, "cd": 2}, ()),
        ([[[True], [2]], [[3], [4]]], (2, 2, 1)),
        (np.ones((2, 2, 1), dtype=int), (2, 2, 1)),
        ([[1, 2], {3, 4}], None),
        (7, ()),
    ],
)
def test_a_shape_error_is_worded_by_numpy_and_comes_first(counts, shape):
    if shape is None:  # numpy's error for ragged nested lists
        with pytest.raises(ValueError):
            ContingencyTable(("a", "b"), ("l", "r"), counts)
        return
    with pytest.raises(InvalidCounts) as caught:
        ContingencyTable(("a", "b"), ("l", "r"), counts)
    assert str(caught.value) == f"counts must be 2 x 2, got shape {shape}"


def test_the_first_bad_stratum_is_reported():
    bad_count = "strata[3]: counts[0][1] must be a non-negative integer, got -4"
    bad_name = "malformed stratified-tables JSON: strata[3] name must be a string or a number, got None"
    obj = seeded_family(True)
    obj["strata"][3]["counts"][0][1] = -4
    obj["strata"][5]["name"] = None
    with pytest.raises(InvalidCounts) as caught:
        stratified_tables_from_json(obj)
    assert str(caught.value) == bad_count
    obj = seeded_family(True)
    obj["strata"][3]["name"] = None
    obj["strata"][5]["counts"][0][1] = -4
    with pytest.raises(InvalidSpec) as caught:
        stratified_tables_from_json(obj)
    assert str(caught.value) == bad_name
