"""Whole `--output json` reports compared against files in tests/golden/.

Each golden file is the report the CLI printed for its case. Strings,
booleans and keys must match exactly; floats match at rtol 1e-9, so the
files hold across the numpy releases the package supports.
"""

import json
import math
from pathlib import Path

import pytest

from revcheck import cli
from revcheck.fixtures import fixture_path

GOLDEN = Path(__file__).parent / "golden"

# name -> (simulate argv writing data.csv, or None; analysis argv, where
# "{csv}" stands for data.csv and "{fixture:NAME}" for a bundled fixture).
CASES = {
    "berkeley": (None, ["analyze-table", "{fixture:berkeley.json}"]),
    "lindley_novick": (None, ["analyze-table", "{fixture:lindley_novick.json}"]),
    "trending_corrected": (
        ["--seed", "5", "simulate", "trending"],
        ["analyze-regression", "{csv}", "--response", "y", "--regressors", "x", "--ordering", "t:time"],
    ),
    "example3_by_group": (
        ["--seed", "5", "simulate", "example3"],
        ["analyze-regression", "{csv}", "--response", "y", "--regressors", "x",
         "--ordering", "group", "--by-group", "group"],
    ),
    "niid_two_regressors": (
        ["--seed", "5", "simulate", "niid", "--rho12", "0.5", "--rho13", "0.7", "--rho23", "0.8"],
        ["analyze-regression", "{csv}", "--response", "y", "--regressors", "x1", "x2", "--ordering", "t:time"],
    ),
    "reverse_conditions": (None, ["reverse-conditions", ".5", ".7", ".8"]),
    # Size studies pin the replication streams, rng_for(seed, r), end to end.
    "mc_size_trending_naive": (
        None,
        ["--seed", "2026", "simulate", "mc-size", "--reps", "1000", "--dgp", "trending", "--test", "naive-correlation"],
    ),
    "mc_size_trending_corrected": (
        None,
        ["--seed", "2026", "simulate", "mc-size", "--reps", "1000", "--dgp", "trending",
         "--test", "corrected-correlation"],
    ),
    "mc_size_niid_coefficient": (
        None,
        ["--seed", "2026", "simulate", "mc-size", "--reps", "1000", "--dgp", "niid", "--test", "coefficient"],
    ),
}


# The cases that analyse a CSV. Their data is checked with LF line endings,
# which the numpy reader takes, and with CRLF endings, which only the csv
# module's reader takes; both must give the golden report.
CSV_CASES = sorted(name for name, (simulate_argv, _) in CASES.items() if simulate_argv is not None)


def use_crlf(path) -> None:
    """Rewrite the LF line endings of the file at path as CRLF."""
    path = Path(path)
    path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))


def run_case(name: str, workdir: Path, capsys, crlf: bool = False) -> str:
    """The CLI's stdout for case `name`, with any data written under workdir."""
    simulate_argv, argv = CASES[name]
    csv_path = workdir / "data.csv"
    if simulate_argv is not None:
        assert cli.main(simulate_argv + ["--out", str(csv_path)]) == 0
        capsys.readouterr()
        if crlf:
            use_crlf(csv_path)
    argv = [
        str(fixture_path(arg[len("{fixture:") : -1])) if arg.startswith("{fixture:") else arg
        for arg in argv
    ]
    argv = [str(csv_path) if arg == "{csv}" else arg for arg in argv]
    code = cli.main(["--output", "json"] + argv)
    captured = capsys.readouterr()
    assert code == 0, captured.err
    return captured.out


def assert_matches(actual, expected, path="$"):
    if isinstance(expected, float) and isinstance(actual, (int, float)) and not isinstance(actual, bool):
        assert math.isclose(actual, expected, rel_tol=1e-9, abs_tol=0.0), f"{path}: {actual!r} != {expected!r}"
        return
    assert type(actual) is type(expected), f"{path}: {actual!r} != {expected!r}"
    if isinstance(expected, dict):
        assert sorted(actual) == sorted(expected), f"{path}: keys differ"
        for key in expected:
            assert_matches(actual[key], expected[key], f"{path}.{key}")
    elif isinstance(expected, list):
        assert len(actual) == len(expected), f"{path}: lengths differ"
        for i, (a, e) in enumerate(zip(actual, expected)):
            assert_matches(a, e, f"{path}[{i}]")
    else:
        assert actual == expected, f"{path}: {actual!r} != {expected!r}"


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(name, tmp_path, capsys):
    expected = json.loads((GOLDEN / f"{name}.json").read_text())
    assert_matches(json.loads(run_case(name, tmp_path, capsys)), expected)


@pytest.mark.parametrize("name", CSV_CASES)
def test_csv_report_matches_golden_with_crlf_lines(name, tmp_path, capsys):
    expected = json.loads((GOLDEN / f"{name}.json").read_text())
    report = run_case(name, tmp_path, capsys, crlf=True)
    assert_matches(json.loads(report), expected)
    # The two readers give the same report byte for byte, not only to rtol.
    assert report == run_case(name, tmp_path, capsys)


def test_matcher_rejects_changed_values():
    expected = {"a": 0.25, "b": "= .025", "c": [1, None, True]}
    assert_matches({"a": 0.25 * (1 + 1e-12), "b": "= .025", "c": [1, None, True]}, expected)
    for actual in (
        {"a": 0.25 * (1 + 1e-8), "b": "= .025", "c": [1, None, True]},
        {"a": 0.25, "b": "= .026", "c": [1, None, True]},
        {"a": 0.25, "b": "= .025", "c": [1, None, False]},
        {"a": 0.25, "b": "= .025", "c": [1, 0.0, True]},
        {"a": 0.25, "b": "= .025"},
    ):
        with pytest.raises(AssertionError):
            assert_matches(actual, expected)
