import csv
import inspect
import json
import math

import numpy as np
import pytest
from scipy import stats

from revcheck import cli, misspec, regression
from revcheck.errors import RevcheckError
from revcheck.fixtures import fixture_path


def run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_csv(path, text):
    path.write_text(text)
    return str(path)


@pytest.fixture
def example3_csv(tmp_path, capsys):
    path = tmp_path / "e3.csv"
    code, _, _ = run(["--seed", "1", "simulate", "example3", "--out", str(path)], capsys)
    assert code == 0
    return str(path)


@pytest.fixture
def trending_csv(tmp_path, capsys):
    path = tmp_path / "tr.csv"
    code, _, _ = run(["--seed", "1", "simulate", "trending", "--out", str(path)], capsys)
    assert code == 0
    return str(path)


def test_analyze_table_admissions(capsys):
    code, out, err = run(["analyze-table", str(fixture_path("berkeley.json"))], capsys)
    assert code == 0
    assert out.startswith("Verdict: Case2Untrustworthy\n")
    assert "Aggregate: male .44 vs female .35, favoring male." in out
    assert "A (.62 vs .82), B (.63 vs .68), D (.33 vs .35), E (.28 vs .32), F (.06 vs .07)" in out
    assert "Strata agreeing with the aggregate: C (.37 vs .34)." in out
    assert "Stratification is partial" in out
    assert "Aggregate two-proportion z = 10.547 (p < .001)." in out
    assert "not trustworthy" in out
    assert err == ""


def test_analyze_table_plots(capsys):
    code, out, _ = run(["analyze-table", str(fixture_path("lindley_novick.json"))], capsys)
    assert code == 0
    assert out.startswith("Verdict: Case2Untrustworthy\n")
    assert "Aggregate: white .50 vs black .40, favoring white." in out
    assert "short (.20 vs .30), tall (.60 vs .70)" in out
    assert "Strict event-probability reversal pattern holds (mirrored orientation)." in out
    assert "Aggregate two-proportion z = .899 (p = .369)." in out
    assert "[2] constant mean: fail (p = .025)" in out


def test_analyze_table_json_is_deterministic(capsys):
    argv = ["--output", "json", "analyze-table", str(fixture_path("berkeley.json"))]
    code1, out1, _ = run(argv, capsys)
    code2, out2, _ = run(argv, capsys)
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["schema"] == "reversal-report/1"
    assert payload["verdict"] == "Case2Untrustworthy"
    assert payload["marginal"]["direction"] == 1
    assert payload["conditional"]["direction"] == -1
    assert payload["assumptions"]["marginal"]["[2] constant mean"]["status"] == "fail"


def test_analyze_table_degenerate_stratum_counts_p_one(tmp_path, capsys):
    # s2's pooled rate is 0, so its z-test is undefined: it counts as p = 1
    # and the conditional p is the smallest p of the other strata.
    strata = [[[10, 20], [40, 30]], [[0, 0], [10, 10]], [[15, 30], [25, 10]]]
    path = tmp_path / "t.json"
    path.write_text(
        json.dumps(
            {
                "aggregate": {"labels": {"rows": ["yes", "no"], "cols": ["a", "b"]}, "counts": [[25, 50], [75, 50]]},
                "strata": [{"name": f"s{i + 1}", "counts": counts} for i, counts in enumerate(strata)],
                "complete": True,
            }
        )
    )
    code, out, err = run(["--output", "json", "analyze-table", str(path)], capsys)
    assert (code, err) == (0, "")
    ps = []
    for (s0, s1), (f0, f1) in (strata[0], strata[2]):
        n0, n1 = s0 + f0, s1 + f1
        pooled = (s0 + s1) / (n0 + n1)
        z = (s0 / n0 - s1 / n1) / math.sqrt(pooled * (1.0 - pooled) * (1.0 / n0 + 1.0 / n1))
        ps.append(2.0 * stats.norm.sf(abs(z)))
    assert json.loads(out)["conditional"]["p_value"] == pytest.approx(min(ps), rel=1e-12)


def test_analyze_regression_by_group(example3_csv, capsys):
    code, out, _ = run(
        [
            "analyze-regression",
            example3_csv,
            "--response",
            "y",
            "--regressors",
            "x",
            "--ordering",
            "group",
            "--by-group",
            "group",
        ],
        capsys,
    )
    assert code == 0
    assert out.startswith("Verdict: Case2Untrustworthy\n")
    assert "Marginal: y = " in out
    assert "Group 0.0: y = " in out and "Group 1.0: y = " in out
    assert "Conditioning: within levels of group" in out
    assert "direction -" in out and "direction +" in out


def test_by_group_slopes_of_opposite_signs_give_no_conditional_direction(tmp_path, capsys):
    # Group 1's slope is about +1.8 and group 0's about -0.5, and the pooled
    # slope is positive: the groups agree on no sign, so the conditional
    # side has direction 0, and its p is the larger of the groups' p-values.
    rng = np.random.default_rng(0)
    groups = []
    for g, slope in ((1, 1.8), (0, -0.5)):
        x = rng.standard_normal(40)
        groups.append((g, x, slope * x + rng.standard_normal(40)))
    rows = [f"{g},{a!r},{b!r}\n" for g, x, y in groups for a, b in zip(x.tolist(), y.tolist())]
    path = write_csv(tmp_path / "signs.csv", "g,x,y\n" + "".join(rows))
    code, out, err = run(
        ["--output", "json", "analyze-regression", path, "--response", "y", "--regressors", "x",
         "--ordering", "g", "--by-group", "g"],
        capsys,
    )
    assert (code, err) == (0, "")
    payload = json.loads(out)
    fits = [stats.linregress(x, y) for _, x, y in groups]
    assert fits[0].slope > 0 > fits[1].slope
    assert payload["marginal"]["direction"] == 1
    assert payload["conditional"]["direction"] == 0
    assert payload["conditional"]["p_value"] == pytest.approx(max(f.pvalue for f in fits), rel=1e-9)


def test_analyze_regression_two_regressors(tmp_path, capsys):
    path = tmp_path / "niid.csv"
    run(
        ["--seed", "2", "simulate", "niid", "--rho12", "0.5", "--rho13", "0.7",
         "--rho23", "0.8", "--n", "1000", "--out", str(path)],
        capsys,
    )
    code, out, _ = run(
        ["analyze-regression", str(path), "--response", "y", "--regressors", "x1", "x2",
         "--ordering", "t:time"],
        capsys,
    )
    assert code == 0
    assert out.startswith("Verdict: Case1Trustworthy\n")
    assert "Conditioning: conditioning on x2" in out
    assert "Conditional: y = " in out
    assert "Naive correlation of (x1, y):" in out


def test_analyze_regression_corrected_correlation(trending_csv, capsys):
    code, out, _ = run(
        ["analyze-regression", trending_csv, "--response", "y", "--regressors", "x",
         "--ordering", "t:time"],
        capsys,
    )
    assert code == 0
    assert out.startswith("Verdict: Case2Untrustworthy\n")
    assert "Corrected correlation: " in out
    assert "n_eff = 44" in out
    assert "detrended (degree 3) and dememorized (2 lags) both series" in out


def test_corrected_analysis_takes_any_time_ordering_name(trending_csv, tmp_path, capsys):
    # README's Yule series names its time column `year`; the name must not
    # matter, and neither may a group ordering declared beside it.
    with open(trending_csv) as handle:
        lines = handle.read().splitlines()
    renamed = write_csv(tmp_path / "year.csv", "\n".join(["year" + lines[0][1:]] + lines[1:]) + "\n")
    grouped = write_csv(
        tmp_path / "grouped.csv",
        "\n".join([lines[0] + ",g"] + [line + f",{i % 2}" for i, line in enumerate(lines[1:])]) + "\n",
    )
    base = ["--output", "json", "analyze-regression"]
    flags = ["--response", "y", "--regressors", "x"]
    code, named_t, _ = run(base + [trending_csv] + flags + ["--ordering", "t:time"], capsys)
    assert code == 0
    code, named_year, err = run(base + [renamed] + flags + ["--ordering", "year:time"], capsys)
    assert (code, err) == (0, "")
    assert named_year == named_t
    code, out, err = run(
        base + [grouped] + flags + ["--ordering", "t:time", "--ordering", "g:binary_group"], capsys
    )
    assert (code, err) == (0, "")
    assert json.loads(out)["conditional"] == json.loads(named_t)["conditional"]


@pytest.mark.parametrize("role", ["--regressors", "--response"])
def test_corrected_analysis_takes_a_column_named_t(trending_csv, tmp_path, capsys, role):
    # The cleaned series take the data's time ordering name, so a column
    # named `t` beside the time ordering `year` is an ordinary column.
    with open(trending_csv) as handle:
        body = handle.read().split("\n", 1)[1]
    column = "x" if role == "--regressors" else "y"
    reports = []
    for name in (column, "t"):
        header = ",".join(["year"] + [name if c == column else c for c in ("x", "y")])
        path = write_csv(tmp_path / f"{name}.csv", header + "\n" + body)
        flags = {"--response": "y", "--regressors": "x", role: name}
        argv = ["--output", "json", "analyze-regression", path, "--ordering", "year:time"]
        code, out, err = run(argv + [item for pair in flags.items() for item in pair], capsys)
        assert (code, err) == (0, "")
        reports.append(json.loads(out))
    plain, named_t = reports
    assert named_t["verdict"] == plain["verdict"]
    for side in ("marginal", "conditional"):
        assert named_t[side]["direction"] == plain[side]["direction"]
        assert named_t[side]["p_value"] == plain[side]["p_value"]
    assert named_t["assumptions"] == plain["assumptions"]


def test_yule_series_corrected_analysis(yule_csv, capsys):
    code, out, err = run(
        ["--output", "json", "analyze-regression", str(yule_csv), "--response", "mortality",
         "--regressors", "marriage_ratio", "--ordering", "year:time"],
        capsys,
    )
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert payload["conditional"]["source"] == "corrected correlation"
    assert payload["marginal"]["source"] == "fit mortality ~ marriage_ratio"


def test_by_group_untested_assumption_has_no_p(tmp_path, capsys):
    # Group 0's two-valued regressor has no squared term, so its linearity
    # is untested; merged with group 1's pass, the assumption stays
    # untested and so has no p.
    rng = np.random.default_rng(0)
    x = np.r_[np.tile([0.0, 1.0], 20), rng.standard_normal(40)]
    y = 1.0 + 0.5 * x + rng.standard_normal(80)
    g = np.repeat([0.0, 1.0], 40)
    rows = "".join(f"{a!r},{b!r},{c!r}\n" for a, b, c in zip(g.tolist(), x.tolist(), y.tolist()))
    path = write_csv(tmp_path / "bg.csv", "g,x,y\n" + rows)
    argv = ["analyze-regression", path, "--response", "y", "--regressors", "x",
            "--ordering", "g", "--by-group", "g"]
    code, out, _ = run(["--output", "json"] + argv, capsys)
    assert code == 0
    linearity = json.loads(out)["assumptions"]["conditional"]["[2] linearity"]
    assert linearity == {"status": "untested", "p_value": None}
    code, out, _ = run(argv, capsys)
    assert code == 0
    conditional = out.split("Assumptions (conditional):\n")[1]
    assert "  [2] linearity: untested\n" in conditional


def test_corrected_analysis_cleans_each_series_once(trending_csv, capsys, monkeypatch):
    # The cleaned series feed both the corrected correlation and the
    # conditional battery; each series is detrended and dememorized once.
    calls = {"_detrend_rows": 0, "_dememorize_rows": 0}
    for name in calls:
        original = getattr(misspec, name)

        def counting(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(misspec, name, counting)
    code, _, _ = run(
        ["analyze-regression", trending_csv, "--response", "y", "--regressors", "x",
         "--ordering", "t:time"],
        capsys,
    )
    assert code == 0
    assert calls == {"_detrend_rows": 2, "_dememorize_rows": 2}


def test_analyze_regression_error_paths(tmp_path, trending_csv, capsys):
    code, _, err = run(
        ["analyze-regression", trending_csv, "--response", "nope", "--regressors", "x",
         "--ordering", "t:time"],
        capsys,
    )
    assert code == 2 and err.startswith("error:")
    code, _, err = run(
        ["analyze-regression", str(tmp_path / "missing.csv"), "--response", "y",
         "--regressors", "x"],
        capsys,
    )
    assert code == 2 and "cannot read" in err
    plain = write_csv(tmp_path / "plain.csv", "x,y\n1,2\n2,3\n3,5\n4,6\n5,9\n6,10\n")
    code, _, err = run(
        ["analyze-regression", plain, "--response", "y", "--regressors", "x"], capsys
    )
    assert code == 2 and "nothing to condition on" in err
    code, _, err = run(
        ["analyze-regression", trending_csv, "--response", "y", "--regressors", "x",
         "--ordering", "t:time", "--by-group", "t"],
        capsys,
    )
    assert code == 2 and "needs a group ordering" in err
    code, _, err = run(
        ["analyze-regression", trending_csv, "--response", "y", "--regressors", "a", "b", "c"], capsys
    )
    assert code == 2 and err == "error: give one or two regressor columns\n"
    one_level = write_csv(tmp_path / "one_level.csv", "g,x,y\n0,1,2\n0,2,3\n0,3,5\n0,4,4\n0,5,7\n0,6,6\n")
    code, _, err = run(
        ["analyze-regression", one_level, "--response", "y", "--regressors", "x",
         "--ordering", "g", "--by-group", "g"],
        capsys,
    )
    assert code == 2 and err == "error: ordering 'g' has fewer than two levels\n"
    ragged = write_csv(tmp_path / "ragged.csv", "x,y\n1,2\n3\n")
    code, _, err = run(
        ["analyze-regression", ragged, "--response", "y", "--regressors", "x"], capsys
    )
    assert code == 2 and "row 3" in err
    # A second regressor and --by-group are two conditional sides; the
    # command takes one.
    code, _, _ = run(["--seed", "5", "simulate", "example3", "--out", str(tmp_path / "e3.csv")], capsys)
    assert code == 0
    with open(tmp_path / "e3.csv", newline="") as handle:
        table = list(csv.reader(handle))
    z = np.random.default_rng(3).standard_normal(len(table) - 1)
    e3z = write_csv(
        tmp_path / "e3z.csv",
        "".join(",".join(row + [name]) + "\n" for row, name in zip(table, ["z"] + [repr(v) for v in z.tolist()])),
    )
    code, _, err = run(
        ["analyze-regression", e3z, "--response", "y", "--regressors", "x", "z",
         "--ordering", "group", "--by-group", "group"],
        capsys,
    )
    assert code == 2 and "--regressors" in err and "--by-group" in err
    # A fit that cannot be identified is named: a group of one row, and a
    # constant regressor.
    lone = write_csv(tmp_path / "lone.csv", "g,x,y\n0,1,2\n1,2,3\n1,3,5\n1,4,4\n1,5,7\n1,6,6\n")
    code, _, err = run(
        ["analyze-regression", lone, "--response", "y", "--regressors", "x",
         "--ordering", "g", "--by-group", "g"],
        capsys,
    )
    assert code == 2 and err.startswith("error: group 0.0: ") and "cannot identify" in err
    flat = write_csv(tmp_path / "flat.csv", "x,y\n1,2\n1,3\n1,5\n1,6\n1,9\n1,10\n")
    code, _, err = run(
        ["analyze-regression", flat, "--response", "y", "--regressors", "x"], capsys
    )
    assert code == 2 and err.startswith("error: fit y ~ x: design condition estimate")
    # A cleaning step of the corrected side that cannot be fitted names the
    # step, its flag and the series, in the analysis and the size study alike.
    corrected = ["--response", "y", "--regressors", "x", "--ordering", "t:time"]
    code, out, err = run(["--trend-degree", "40", "analyze-regression", trending_csv] + corrected, capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: detrending of degree 40 (--trend-degree) cannot be fitted to 'x' (design condition")
    assert err.endswith("), so the corrected correlation cannot be computed\n")
    lags_message = (
        "dememorizing with 30 lags (--lags) cannot be fitted to 'x' (16 observations cannot identify "
        "31 parameters), so the corrected correlation cannot be computed\n"
    )
    code, out, err = run(["--lags", "30", "analyze-regression", trending_csv] + corrected, capsys)
    assert code == 2 and out == "" and err == "error: " + lags_message
    study = ["--seed", "1", "simulate", "mc-size", "--dgp", "trending", "--test", "corrected-correlation"]
    code, _, err = run(["--lags", "30"] + study, capsys)
    assert code == 2 and err == "error: replication 0: " + lags_message
    # The study reads the analysis's settings, so it rejects the same ones
    # whichever test it runs.
    for dgp, test in (("trending", "naive-correlation"), ("trending", "corrected-correlation"), ("niid", "coefficient")):
        argv = ["--lags", "0", "--seed", "1", "simulate", "mc-size", "--dgp", dgp, "--test", test]
        code, out, err = run(argv, capsys)
        assert (code, out, err) == (2, "", "error: lag_count must be >= 1\n")


# Ingest faults, each with the message it must produce. When a file has
# several faults, the first in this order is reported: cannot read, empty,
# duplicate header; then a row-major scan in which a ragged row beats a blank
# cell in the same row and a row's blank cells are named in header order;
# then header-only; then each --ordering in turn; then the other columns in
# header order.
INGEST_FAULTS = {
    "empty": ("", [], "{path} is empty"),
    "duplicate header": ("x,x,y\n1,2\n,3,4\n", [], "duplicate column names in CSV header"),
    "ragged": ("x,y\n1,2\n3\n", [], "row 3 has 1 fields, expected 2"),
    "blank line": ("x,y\n1,2\n\n3,4\n", [], "row 3 has 0 fields, expected 2"),
    "ragged beats a blank in its row": ("x,y,z\n1,2,3\n4,\n", [], "row 3 has 2 fields, expected 3"),
    "blank before a ragged row": ("x,y\n1, \n3\n", [], "blank value in column 'y', row 2"),
    "blanks in header order": ("x,y\n1,2\n , \n", [], "blank value in column 'x', row 3"),
    "blanks in row order": ("x,y\n1,\n,4\n", [], "blank value in column 'y', row 2"),
    "blank beats a non-numeric cell": ("x,y\nabc,1\n2,\n", [], "blank value in column 'y', row 3"),
    "blank in a categorical ordering": (
        "g,x,y\na,1,2\n,2,3\n", ["--ordering", "g"], "blank value in column 'g', row 3"
    ),
    "header only": ("x,y\n", ["--ordering", "nope"], "{path} has a header but no rows"),
    "unknown ordering": ("x,y\nabc,2\n", ["--ordering", "nope"], "ordering column 'nope' not in the CSV"),
    "time ordering not numeric": (
        "g,x,y\na,abc,2\n",
        ["--ordering", "g:time", "--ordering", "nope"],
        "ordering 'g' declared time but is not numeric",
    ),
    "orderings in flag order": (
        "g,x,y\na,1,2\n",
        ["--ordering", "nope", "--ordering", "g:time"],
        "ordering column 'nope' not in the CSV",
    ),
    "binary ordering not numeric": (
        "g,x,y\na,1,2\n",
        ["--ordering", "g:binary_group"],
        "ordering 'g' declared binary_group but is not numeric",
    ),
    "columns in header order": (
        "x,y,z\n1,2,3\n4, abc ,def\n",
        [],
        "column 'y' is not numeric: could not convert string to float: 'abc'",
    ),
    # str.strip removes \x1c-\x1f but float() refuses them, so the cell as
    # written is the one that does not convert.
    "ASCII separator after a number": (
        "x,y\n1\x1c,2\n3,4\n5,7\n",
        [],
        "column 'x' is not numeric: could not convert string to float: '1\\x1c'",
    ),
    "ASCII separator before a number": (
        "x,y\n1,2\n3,\x1f4\n5,7\n",
        [],
        "column 'y' is not numeric: could not convert string to float: '\\x1f4'",
    ),
}


@pytest.mark.parametrize("case", sorted(INGEST_FAULTS))
def test_analyze_regression_ingest_messages(case, tmp_path, capsys):
    text, flags, message = INGEST_FAULTS[case]
    path = write_csv(tmp_path / "in.csv", text)
    code, out, err = run(["analyze-regression", path, "--response", "y", "--regressors", "x"] + flags, capsys)
    assert (code, out, err) == (2, "", f"error: {message.format(path=path)}\n")


def test_analyze_regression_unreadable_file(tmp_path, capsys):
    path = str(tmp_path / "missing.csv")
    code, out, err = run(["analyze-regression", path, "--response", "y", "--regressors", "x"], capsys)
    assert (code, out) == (2, "")
    assert err == f"error: cannot read {path}: [Errno 2] No such file or directory: {path!r}\n"


def test_analyze_regression_non_utf8_file(tmp_path, capsys):
    path = tmp_path / "latin1.csv"
    path.write_bytes(b"x,y\n\xff,1\n2,3\n")
    code, out, err = run(["analyze-regression", str(path), "--response", "y", "--regressors", "x"], capsys)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot read {path}: ") and "can't decode byte 0xff" in err


def test_analyze_regression_field_past_the_csv_limit(tmp_path, capsys):
    path = write_csv(tmp_path / "wide.csv", "x,y\n1," + "9" * 200_000 + "\n")
    code, out, err = run(["analyze-regression", path, "--response", "y", "--regressors", "x"], capsys)
    assert (code, out) == (2, "")
    assert err == f"error: cannot read {path}: field larger than field limit ({csv.field_size_limit()})\n"


def test_analyze_regression_ignores_a_byte_order_mark(trending_csv, tmp_path, capsys):
    # Excel's "CSV UTF-8" starts the file with a BOM. The LF copy is read by
    # numpy and the CRLF copy by the csv module.
    with open(trending_csv, "rb") as handle:
        plain = handle.read()
    flags = ["--response", "y", "--regressors", "x", "--ordering", "t:time"]
    expected = run(["analyze-regression", trending_csv] + flags, capsys)
    assert expected[0] == 0
    for name, data in (("bom.csv", plain), ("bom_crlf.csv", plain.replace(b"\n", b"\r\n"))):
        path = tmp_path / name
        path.write_bytes(b"\xef\xbb\xbf" + data)
        assert run(["analyze-regression", str(path)] + flags, capsys) == expected


def benchmark_like_csv(n: int) -> str:
    """n rows of time, 0/1 group and two Normal columns, each float written as repr."""
    rng = np.random.default_rng(5)
    block = np.column_stack([np.arange(1.0, n + 1), rng.integers(0, 2, n), rng.standard_normal((n, 2))])
    return "t,g,x,y\n" + "".join(",".join(repr(float(v)) for v in row) + "\n" for row in block)


# Files on which the numpy reader and the csv reader could part: name ->
# (file contents, or None for no file; --ordering values).
READER_CORPUS = {
    **{f"fault: {case}": (text, flags[1::2]) for case, (text, flags, _) in INGEST_FAULTS.items()},
    "missing file": (None, []),
    "not UTF-8": (b"x,y\n\xff,1\n2,3\n", []),
    "field past the csv limit": ("x,y\n1," + "9" * 200_000 + "\n", []),
    "CRLF endings": ("t,x,y\r\n1,2,3\r\n2,5,4\r\n3,1,8\r\n", ["t"]),
    "quoted number": ('x,y\n"1",2\n3,4\n', []),
    "underscore in a number": ("x,y\n1_000,2\n3,4\n", []),
    "plus sign": ("x,y\n+1,2\n3,4\n", []),
    "padded number": ("x,y\n 1.5 ,2\n3,4\n", []),
    "nan": ("x,y\nnan,2\n3,4\n", []),
    "inf": ("x,y\n1,inf\n3,4\n", []),
    "overflow to inf": ("x,y\n1e309,2\n3,4\n", []),
    "non-ASCII digits": ("x,y\n\u0661\u0662,2\n3,4\n", []),
    "lone #": ("x,y\n#,2\n3,4\n", []),
    "whitespace-only line": ("x,y\n1,2\n  \n3,4\n", []),
    "ASCII separator in an ordering": ("t,x,y\n1\x1c,2,3\n2,5,4\n", ["t"]),
    "NUL in the header": ("x\x00,y\n1,2\n3,4\n", []),
    "blank last line": ("x,y\n1,2\n\n", []),
    "blank header line": ("\n1,2\n3,4\n", []),
    "blank header line over one column": ("\n1\n2\n", []),
    "header then a blank line": ("x,y\n\n", []),
    "quoted header name": ('x,"y"\n1,2\n3,4\n', []),
    "duplicate header over numbers": ("x,x,y\n1,2,3\n4,5,6\n", []),
    "every row short": ("x,y\n1\n2\n", []),
    "single column": ("x\n1\n2\n4\n", ["x"]),
    "no final newline": ("t,x,y\n1,2,3\n2,5,4", ["t:time"]),
    "byte-order mark": ("\ufefft,x,y\n1,2,3\n2,5,4\n", ["t:time"]),
    "inferred kinds": ("t,g,k,x,y\n1,0,3,2,3\n2,1,1,5,4\n3,0,2,1,8\n", ["t", "g", "k"]),
    "declared kinds": ("t,g,x,y\n1,0,2,3\n2,1,5,4\n3,0,1,8\n", ["t:time", "g:binary_group"]),
    "declared categorical": ("t,g,x,y\n1,0,2,3\n2,1,5,4\n3,0,1,8\n", ["g:categorical"]),
    "unknown kind": ("t,x,y\n1,2,3\n2,5,4\n", ["t:sideways"]),
    "unknown ordering in a numeric file": ("t,x,y\n1,2,3\n2,5,4\n", ["t", "nope"]),
    "time ordering not increasing": ("t,x,y\n2,2,3\n1,5,4\n", ["t:time"]),
    "benchmark-like 5,000 rows": (benchmark_like_csv(5000), ["t:time", "g"]),
}


def read_outcome(read, path, specs):
    """What a reader makes of a file: its columns and orderings, bit for bit, or its error."""
    try:
        data = read(path, specs)
    except RevcheckError as exc:
        return type(exc), str(exc)
    # Contiguity too: a strided column changes the last bits of the fits.
    columns = [(name, values.dtype, values.flags.c_contiguous, values.tobytes()) for name, values in data.columns.items()]
    orderings = [
        (name, o.kind, o.values.dtype, o.values.tolist() if o.values.dtype == object else o.values.tobytes())
        for name, o in data.orderings.items()
    ]
    return columns, orderings


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("case", sorted(READER_CORPUS))
def test_read_dataset_matches_the_csv_reader(case, tmp_path):
    contents, specs = READER_CORPUS[case]
    path = tmp_path / "in.csv"
    if contents is not None:
        path.write_bytes(contents.encode("utf-8") if isinstance(contents, str) else contents)
    assert read_outcome(cli._read_dataset, str(path), specs) == read_outcome(cli._read_csv, str(path), specs)


def test_read_dataset_uses_the_csv_module_only_when_it_must(tmp_path, capsys, monkeypatch):
    class CsvReaderCalled(Exception):
        pass

    def refuse(*args, **kwargs):
        raise CsvReaderCalled

    # With csv.reader refused, a plain numeric file must still be read, and
    # each of the other kinds of file must reach the csv module.
    monkeypatch.setattr(cli.csv, "reader", refuse)
    numeric = "t,g,x,y\n1,0,2.5,3\n2,1,5,4\n3,0,1,8\n4,1,2,2\n"
    path = write_csv(tmp_path / "plain.csv", numeric)
    data = cli._read_dataset(path, ["t:time", "g"])
    assert {name: o.kind for name, o in data.orderings.items()} == {"t": "time", "g": "binary_group"}
    assert data.columns["x"].tolist() == [2.5, 5.0, 1.0, 2.0]
    # A benchmark-sized analysis never reaches the csv module.
    big = write_csv(tmp_path / "big.csv", benchmark_like_csv(5000))
    code, _, err = run(["analyze-regression", big, "--response", "y", "--regressors", "x", "--ordering", "t:time"], capsys)
    assert (code, err) == (0, "")
    for text, specs in (
        ('t,g,x,y\n1,"a, b",2,3\n2,c,5,4\n3,c,1,8\n', ["g"]),
        (numeric.replace("\n", "\r\n"), ["t:time", "g"]),
        (numeric, ["t:time", "g:categorical"]),
    ):
        path = write_csv(tmp_path / "other.csv", text)
        with pytest.raises(CsvReaderCalled):
            cli._read_dataset(path, specs)


def test_analyze_regression_infers_ordering_kinds(tmp_path, capsys, monkeypatch):
    # Values in {0, 1} are binary, strictly increasing values are time, and
    # anything else (labels, or numbers neither binary nor increasing) is
    # categorical and keeps the stripped cell text; a quoted label may hold
    # the delimiter.
    rng = np.random.default_rng(3)
    n = 24
    x1, x2 = rng.standard_normal(n), rng.standard_normal(n)
    y = x1 - x2 + rng.standard_normal(n)
    labels = ['"a, b"' if i % 2 else " c " for i in range(n)]
    rows = "".join(
        f"{i + 1},{i % 2},{label},{i % 3 + 1},{a!r},{b!r},{c!r}\n"
        for i, (label, a, b, c) in enumerate(zip(labels, x1.tolist(), x2.tolist(), y.tolist()))
    )
    path = write_csv(tmp_path / "kinds.csv", "t,b,c,k,x1,x2,y\n" + rows)
    seen = []
    original = regression.fit

    def recording(data, spec):
        seen.append(data)
        return original(data, spec)

    monkeypatch.setattr(regression, "fit", recording)
    flags = ["--ordering", "t", "--ordering", "b", "--ordering", "c", "--ordering", "k"]
    code, _, err = run(["analyze-regression", path, "--response", "y", "--regressors", "x1", "x2"] + flags, capsys)
    assert (code, err) == (0, "")
    orderings = seen[0].orderings
    assert {name: o.kind for name, o in orderings.items()} == {
        "t": "time", "b": "binary_group", "c": "categorical", "k": "categorical"
    }
    assert orderings["t"].values.tolist() == [float(i) for i in range(1, n + 1)]
    assert orderings["b"].values.tolist() == [float(i % 2) for i in range(n)]
    assert orderings["c"].values.tolist() == ["a, b" if i % 2 else "c" for i in range(n)]
    assert orderings["k"].values.tolist() == [str(i % 3 + 1) for i in range(n)]
    assert sorted(seen[0].columns) == ["x1", "x2", "y"]
    assert seen[0].columns["y"].tolist() == y.tolist()
    code, out, err = run(
        ["analyze-regression", path, "--response", "y", "--regressors", "x1", "--ordering", "c", "--by-group", "c"],
        capsys,
    )
    assert (code, err) == (0, "")
    assert "Group a, b: y = " in out and "Group c: y = " in out


def test_analyze_regression_time_like_regressor(tmp_path, capsys):
    # year runs with time (one year skipped), so the squared-regressor and
    # variance designs are too ill-conditioned to solve: those checks are
    # untested instead of aborting the analysis.
    rng = np.random.default_rng(0)
    t = np.arange(1, 47)
    year = 1900 + t + (t > 23)
    y = 0.3 * t + rng.standard_normal(46)
    path = write_csv(
        tmp_path / "year.csv",
        "t,year,y\n" + "".join(f"{a},{b},{float(c)!r}\n" for a, b, c in zip(t, year, y)),
    )
    code, out, err = run(
        ["--output", "json", "analyze-regression", path, "--response", "y", "--regressors", "year",
         "--ordering", "t:time"],
        capsys,
    )
    assert code == 0, err
    payload = json.loads(out)
    marginal = payload["assumptions"]["marginal"]
    assert marginal["[2] linearity"] == {"p_value": None, "status": "untested"}
    assert marginal["[3] homoskedasticity"] == {"p_value": None, "status": "untested"}
    assert payload["verdict"] != "Case1Trustworthy"


@pytest.mark.parametrize("flat", ["x", "y"])
def test_analyze_regression_series_detrended_to_constant(tmp_path, capsys, flat):
    # A series that is an exact polynomial of degree <= --trend-degree in
    # time has nothing left after detrending: the corrected correlation
    # cannot be computed, and the message names that series.
    rng = np.random.default_rng(0)
    t = np.arange(1, 47)
    columns = {"x": 0.3 * t + rng.standard_normal(46), "y": 0.5 * t + rng.standard_normal(46)}
    columns[flat] = 1900.0 + t
    rows = "".join(f"{a},{float(b)!r},{float(c)!r}\n" for a, b, c in zip(t, columns["x"], columns["y"]))
    path = write_csv(tmp_path / "trend.csv", "t,x,y\n" + rows)
    code, out, err = run(
        ["analyze-regression", path, "--response", "y", "--regressors", "x", "--ordering", "t:time"],
        capsys,
    )
    assert code == 2 and out == ""
    assert err == (
        f"error: detrending of degree 3 (--trend-degree) leaves {flat!r} constant, "
        "so the corrected correlation cannot be computed\n"
    )
    code, _, err = run(
        ["--trend-degree", "1", "analyze-regression", path, "--response", "y", "--regressors", "x",
         "--ordering", "t:time"],
        capsys,
    )
    assert code == 2 and f"degree 1 (--trend-degree) leaves {flat!r} constant" in err


def test_degenerate_data_exit_code(tmp_path, capsys):
    exact = write_csv(
        tmp_path / "line.csv",
        "t,x,y\n" + "".join(f"{i},{i},{2 * i}\n" for i in range(1, 9)),
    )
    code, out, err = run(
        ["analyze-regression", exact, "--response", "y", "--regressors", "x",
         "--ordering", "t:time"],
        capsys,
    )
    assert code == 3
    assert err.startswith("degenerate data:")
    assert out == ""


def test_analyze_table_error_paths(tmp_path, capsys):
    code, _, err = run(["analyze-table", str(tmp_path / "none.json")], capsys)
    assert code == 2 and "cannot read" in err
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(["analyze-table", str(bad)], capsys)
    assert code == 2 and "not valid JSON" in err
    bad.write_text("[]")
    code, out, err = run(["analyze-table", str(bad)], capsys)
    assert (code, out) == (2, "")
    assert err == "error: malformed stratified-tables JSON: the top level is not an object (got list)\n"


def crossed_tables():
    """A complete two-stratum family whose group rates differ by stratum."""
    return {
        "aggregate": {"labels": {"rows": ["yes", "no"], "cols": ["a", "b"]}, "counts": [[100, 100], [100, 100]]},
        "strata": [{"name": "s1", "counts": [[10, 50], [90, 50]]}, {"name": "s2", "counts": [[90, 50], [10, 50]]}],
        "complete": True,
    }


def test_analyze_table_rejects_equal_group_labels(tmp_path, capsys):
    # Each group's constant-rate check is reported under its label; with
    # equal labels one group's result would stand for both.
    path = tmp_path / "t.json"
    path.write_text(json.dumps(crossed_tables()))
    code, out, _ = run(["analyze-table", str(path)], capsys)
    assert code == 0 and "[2] constant mean: fail (p < .001)" in out
    obj = crossed_tables()
    obj["aggregate"]["labels"]["cols"] = ["m", "m"]
    path.write_text(json.dumps(obj))
    code, out, err = run(["analyze-table", str(path)], capsys)
    assert (code, out, err) == (2, "", "error: the two group labels must differ, got 'm' twice\n")


MALFORMED = "malformed stratified-tables JSON:"


@pytest.mark.parametrize(
    "path, value, message",
    [
        (("strata", 0, "name"), ["s1"], f"{MALFORMED} strata[0] name must be a string or a number, got ['s1']"),
        (("aggregate", "labels", "cols", 1), ["b"],
         f"{MALFORMED} aggregate labels cols[1] must be a string or a number, got ['b']"),
        (("aggregate", "labels", "rows"), "yn", f"{MALFORMED} aggregate labels rows must be a list, got 'yn'"),
        (("strata", 1, "counts", 0, 0), 10**20, f"strata[1]: counts[0][0] must be less than 2**53, got {10**20}"),
        (("strata", 1, "counts", 1), [10], "strata[1]: counts must be 2 x 2, got rows of unequal length"),
        (("complete",), "false", f"{MALFORMED} complete must be true or false, got 'false'"),
    ],
)
def test_analyze_table_rejects_misread_json(tmp_path, capsys, path, value, message):
    obj = crossed_tables()
    parent = obj
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    file = tmp_path / "t.json"
    file.write_text(json.dumps(obj))
    code, out, err = run(["analyze-table", str(file)], capsys)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_analyze_table_rejects_a_boolean_count(tmp_path, capsys):
    obj = crossed_tables()
    obj["aggregate"]["counts"] = [[11, 100], [180, 100]]
    obj["strata"][0]["counts"] = [[True, 50], [90, 50]]
    obj["strata"][1]["counts"] = [[10, 50], [90, 50]]
    path = tmp_path / "t.json"
    path.write_text(json.dumps(obj))
    code, out, err = run(["analyze-table", str(path)], capsys)
    assert (code, out, err) == (2, "", "error: strata[0]: counts[0][0] must be a number, got True\n")


def test_analyze_table_rejects_a_file_that_is_not_utf8(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_bytes(b'\xff\xfe{"a":1}')
    code, out, err = run(["analyze-table", str(path)], capsys)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot read {path}: ")


def test_analyze_table_ignores_a_byte_order_mark(tmp_path, capsys):
    fixture = fixture_path("lindley_novick.json")
    path = tmp_path / "bom.json"
    path.write_bytes(b"\xef\xbb\xbf" + fixture.read_bytes())
    expected = run(["analyze-table", str(fixture)], capsys)
    assert expected[0] == 0
    assert run(["analyze-table", str(path)], capsys) == expected


def test_analyze_table_rejects_json_nested_too_deep(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 200_000 + "]" * 200_000)
    code, out, err = run(["analyze-table", str(path)], capsys)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {path} is not valid JSON: ")


def test_analyze_table_rejects_an_integer_past_the_digit_limit(tmp_path, capsys):
    # json.load raises a plain ValueError for an integer longer than
    # Python's int conversion limit of 4,300 digits.
    obj = json.dumps(crossed_tables()).replace('"counts": [[10, 50]', '"counts": [[' + "1" * 5000 + ", 50]", 1)
    path = tmp_path / "long.json"
    path.write_text(obj)
    code, out, err = run(["analyze-table", str(path)], capsys)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {path} is not valid JSON: ")


def test_analyze_table_shows_a_p_of_one_as_one(tmp_path, capsys):
    # Group a's rate is .50 in both strata, so its constant-rate test has p = 1.
    path = tmp_path / "flat.json"
    path.write_text(
        json.dumps(
            {
                "aggregate": {"labels": {"rows": ["yes", "no"], "cols": ["a", "b"]}, "counts": [[30, 45], [30, 15]]},
                "strata": [
                    {"name": "s1", "counts": [[10, 20], [10, 5]]},
                    {"name": "s2", "counts": [[20, 25], [20, 10]]},
                ],
                "complete": True,
            }
        )
    )
    code, out, err = run(["analyze-table", str(path)], capsys)
    assert (code, err) == (0, "")
    assert "Constant-rate check across strata: a holds (p = 1.000), b holds (p = .450)." in out
    assert "= .000" not in out


def test_analyze_table_with_one_stratum_claims_no_homogeneity(tmp_path, capsys):
    # One stratum leaves the constant-rate check untested, so the narrative
    # does not call the pooled rates homogeneous.
    path = tmp_path / "one.json"
    path.write_text(
        json.dumps(
            {
                "aggregate": {"labels": {"rows": ["yes", "no"], "cols": ["a", "b"]}, "counts": [[5, 3], [5, 7]]},
                "strata": [{"name": "s1", "counts": [[5, 3], [5, 7]]}],
                "complete": True,
            }
        )
    )
    code, out, err = run(["analyze-table", str(path)], capsys)
    assert (code, err) == (0, "")
    assert "  A single stratum gives the constancy check nothing to compare.\n" in out
    assert "face value" not in out and "heterogeneous" not in out
    assert "[2] constant mean: untested" in out and "[3] constant variance: untested" in out


def test_overflowing_sums_of_squares_exit_2(tmp_path, capsys):
    # Finite data whose squares overflow: the residual and total sums of
    # squares are both inf, which must not read as an exact fit.
    rng = np.random.default_rng(0)
    x = rng.standard_normal(60)
    y = (3 * x + rng.standard_normal(60)) * 1e160
    path = write_csv(tmp_path / "huge.csv", "x,y\n" + "".join(f"{a!r},{b!r}\n" for a, b in zip(x.tolist(), y.tolist())))
    code, out, err = run(["analyze-regression", path, "--response", "y", "--regressors", "x"], capsys)
    assert (code, out) == (2, "")
    assert err == "error: sums of squares overflow the floating-point range; rescale the data\n"


def test_regressor_named_intercept_exits_2(tmp_path, capsys):
    # The fit names its constant term "intercept": a regressor of that name
    # would have its slope read in place of the constant's, so it is refused.
    rng = np.random.default_rng(2)
    x = rng.standard_normal(60)
    y = 0.3 - 2 * x + rng.standard_normal(60)
    rows = "".join(f"{a!r},{b!r},{t}\n" for a, b, t in zip(y.tolist(), x.tolist(), range(1, 61)))
    path = write_csv(tmp_path / "clash.csv", "y,intercept,t\n" + rows)
    argv = ["--seed", "1", "analyze-regression", path, "--response", "y", "--regressors", "intercept"]
    code, out, err = run(argv + ["--ordering", "t:time"], capsys)
    assert (code, out) == (2, "")
    assert err == "error: regressor name 'intercept' clashes with the fit's constant term; rename the column\n"


def test_timestamp_only_stamps_text(capsys):
    fixture = str(fixture_path("lindley_novick.json"))
    code, out, _ = run(["--timestamp", "analyze-table", fixture], capsys)
    assert code == 0 and out.startswith("# generated 2")
    code, out, _ = run(["--timestamp", "--output", "json", "analyze-table", fixture], capsys)
    assert code == 0 and out.startswith("{")


def test_simulate_headers_and_seed_echo(tmp_path, capsys):
    code, out, err = run(["simulate", "bernoulli", "--theta", "0.5", "--n", "5"], capsys)
    assert code == 0
    assert out.splitlines()[0] == "t,x"
    assert err.startswith("seed: ")
    code, out, err = run(
        ["--seed", "3", "simulate", "niid", "--rho12", "0", "--rho13", "0", "--rho23", "0",
         "--n", "4"],
        capsys,
    )
    assert code == 0
    assert out.splitlines()[0] == "t,y,x1,x2"
    assert err == ""
    code, out, _ = run(["--seed", "3", "simulate", "trending", "--n", "12"], capsys)
    assert out.splitlines()[0] == "t,x,y"
    code, out, _ = run(["--seed", "3", "simulate", "example3", "--n-per-group", "5"], capsys)
    assert out.splitlines()[0] == "group,x,y"
    assert len(out.splitlines()) == 11


@pytest.mark.parametrize(
    "argv, header",
    [
        (["bernoulli", "--theta", "0.5", "--n", "7"], "t,x"),
        (["example3", "--n-per-group", "5"], "group,x,y"),
        (["niid", "--rho12", "0.5", "--rho13", "0.7", "--rho23", "0.8", "--n", "9"], "t,y,x1,x2"),
        (["trending", "--n", "12"], "t,x,y"),
    ],
    ids=["bernoulli", "example3", "niid", "trending"],
)
def test_simulate_writes_its_header_and_full_rows(argv, header, capsys):
    # The header is the dataset's orderings, then its generated columns.
    code, out, _ = run(["--seed", "4", "simulate", *argv], capsys)
    assert code == 0
    rows = list(csv.reader(out.splitlines()))
    assert ",".join(rows[0]) == header
    assert len(rows) > 1
    assert all(len(row) == len(rows[0]) for row in rows)


def test_global_defaults_match_the_library_defaults():
    # cli builds its parser without importing misspec, so it restates the
    # battery's defaults; this keeps the two copies equal.
    parser = cli.build_parser()
    alpha, degree, lags = (parser.get_default(name) for name in ("alpha", "trend_degree", "lags"))
    assert misspec.BatteryConfig() == misspec.BatteryConfig(alpha=alpha, trend_degree=degree, lag_count=lags)
    assert inspect.signature(misspec.detrend).parameters["degree"].default == degree
    assert inspect.signature(misspec.dememorize).parameters["lags"].default == lags


def test_simulate_writes_file_deterministically(tmp_path, capsys):
    path = tmp_path / "b.csv"
    code, out, _ = run(
        ["--seed", "9", "simulate", "bernoulli", "--theta", "0.6", "--n", "20",
         "--out", str(path)],
        capsys,
    )
    assert code == 0
    assert out == f"wrote 20 rows to {path}\n"
    first = path.read_text()
    run(
        ["--seed", "9", "simulate", "bernoulli", "--theta", "0.6", "--n", "20",
         "--out", str(path)],
        capsys,
    )
    assert path.read_text() == first
    assert first.splitlines()[0] == "t,x"
    assert len(first.splitlines()) == 21


def test_simulate_to_an_unwritable_path_exits_2(tmp_path, capsys):
    path = tmp_path / "missing" / "x.csv"
    code, out, err = run(["--seed", "3", "simulate", "trending", "--out", str(path)], capsys)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot write {path}: ")
    assert not path.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "mc-size", "--dgp", "trending", "--test", "naive-correlation", "--reps", "1000"],
        ["simulate", "trending"],
    ],
)
def test_negative_seed_exits_2(argv, capsys):
    code, out, err = run(["--seed", "-1"] + argv, capsys)
    assert (code, out, err) == (2, "", "error: --seed must be a non-negative integer\n")


@pytest.mark.parametrize("dgp, message", [("trending", "TrendingPair needs n >= 12"), ("niid", "NiidRegression needs n >= 4")])
def test_mc_size_n_zero_exits_2(dgp, message, capsys):
    code, out, err = run(["--seed", "1", "simulate", "mc-size", "--dgp", dgp, "--n", "0", "--reps", "1000"], capsys)
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "test, dgp, needed",
    [
        ("naive-correlation", "niid", "trending"),
        ("corrected-correlation", "niid", "trending"),
        ("coefficient", "trending", "niid"),
    ],
    ids=["naive-correlation", "corrected-correlation", "coefficient-on-trending"],
)
def test_mc_size_correlation_test_on_niid_exits_2(test, dgp, needed, capsys):
    code, out, err = run(["--seed", "1", "simulate", "mc-size", "--dgp", dgp, "--test", test, "--reps", "1000"], capsys)
    assert (code, out, err) == (2, "", f"error: {test} tests need the {needed} DGP\n")


def test_mc_size_threads_below_one_exits_2(capsys):
    code, out, err = run(["--seed", "1", "simulate", "mc-size", "--dgp", "trending", "--threads", "0"], capsys)
    assert (code, out, err) == (2, "", "error: threads must be >= 1\n")


def test_mc_size_json_and_thread_invariance(capsys):
    argv = ["--seed", "7", "--output", "json", "simulate", "mc-size", "--dgp", "trending",
            "--reps", "1000"]
    code, out1, _ = run(argv, capsys)
    assert code == 0
    payload = json.loads(out1)
    assert payload["seed"] == 7
    assert payload["test"] == "naive_correlation"
    assert payload["replications"] == 1000
    assert payload["rejection_rate"] > 0.5
    code, out4, _ = run(argv + ["--threads", "4"], capsys)
    assert code == 0
    assert out4 == out1
    code, _, err = run(
        ["--seed", "7", "simulate", "mc-size", "--dgp", "trending", "--reps", "500"], capsys
    )
    assert code == 2 and "at least 1000" in err


def test_reverse_conditions_text(capsys):
    code, out, _ = run(["reverse-conditions", "0.5", "0.7", "0.8"], capsys)
    assert code == 0
    assert "reversal predicted: yes" in out
    assert "(det = .180)" in out
    assert "(.560 vs .500)" in out
    assert "beta1 = -.167, beta2 = .833, sigma_u2 = .500, marginal slope alpha1 = .500" in out
    code, out, _ = run(["reverse-conditions", "0.9", "0.9", "-0.9"], capsys)
    assert code == 0
    assert "reversal predicted: no" in out
    assert "undefined (not a positive-definite correlation matrix)" in out


def test_reverse_conditions_json(capsys):
    code, out, _ = run(["--output", "json", "reverse-conditions", "0.5", "0.7", "0.8"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["reversal_predicted"] is True
    assert payload["same_sign"] is True and payload["product_exceeds"] is True
    assert payload["unit_variance_params"]["beta1"] == pytest.approx(-1 / 6)
    assert payload["unit_variance_params"]["sigma_u2"] == pytest.approx(0.5)
    code, out, _ = run(["--output", "json", "reverse-conditions", "0.2", "0.7", "0.8"], capsys)
    payload = json.loads(out)
    assert payload["reversal_predicted"] is True
    code, out, _ = run(["--output", "json", "reverse-conditions", "0.9", "0.9", "-0.9"], capsys)
    payload = json.loads(out)
    assert payload["reversal_predicted"] is False
    assert payload["unit_variance_params"] is None
    code, _, err = run(["reverse-conditions", "1.5", "0.7", "0.8"], capsys)
    assert code == 2 and "error:" in err


def test_ordering_does_not_leak_between_calls(example3_csv, trending_csv, capsys):
    # main reuses one parser per process, and --ordering appends to a list
    # default: a leak would hand the trending file a "group" ordering.
    code, _, err = run(
        ["analyze-regression", example3_csv, "--response", "y", "--regressors", "x",
         "--ordering", "group", "--by-group", "group"],
        capsys,
    )
    assert code == 0, err
    code, out, err = run(
        ["analyze-regression", trending_csv, "--response", "y", "--regressors", "x",
         "--ordering", "t:time"],
        capsys,
    )
    assert code == 0, err
    assert "Corrected correlation: " in out
    args = cli._parser().parse_args(["analyze-regression", trending_csv, "--response", "y", "--regressors", "x"])
    assert args.ordering == []


def test_argument_errors_exit_2(capsys):
    for argv in (["analyze-regression"], ["--alpha", "x", "reverse-conditions", "0", "0", "0"], ["no-such-command"]):
        for _ in range(2):
            with pytest.raises(SystemExit) as exc:
                cli.main(argv)
            assert exc.value.code == 2
            assert "usage: revcheck" in capsys.readouterr().err
