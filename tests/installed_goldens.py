"""Check the installed `revcheck` console script against tests/golden.

Usage, from a directory outside the checkout (the script writes data.csv
there), with revcheck and pytest installed:

    python /path/to/checkout/tests/installed_goldens.py

Runs every case of tests/test_golden.py through the `revcheck` on PATH,
finding fixtures as package data, and checks each report against its golden
file. Size studies must match exactly; the other reports are matched at the
golden tests' rtol 1e-9 (test_golden.assert_matches), since the CSV analyses
end in least-squares solves.
"""

import json
import subprocess

from revcheck.fixtures import fixture_path
from test_golden import CASES, GOLDEN, assert_matches


def arg(text):
    if text.startswith("{fixture:"):
        return str(fixture_path(text[len("{fixture:") : -1]))
    return "data.csv" if text == "{csv}" else text


for name, (simulate_argv, argv) in sorted(CASES.items()):
    if simulate_argv is not None:
        subprocess.run(["revcheck", *simulate_argv, "--out", "data.csv"], check=True)
    command = ["revcheck", "--output", "json", *map(arg, argv)]
    report = json.loads(subprocess.run(command, check=True, capture_output=True, text=True).stdout)
    expected = json.loads((GOLDEN / f"{name}.json").read_text())
    if name.startswith("mc_size"):
        assert report == expected, f"{name}: report differs from its golden file"
    else:
        assert_matches(report, expected)
    print(f"{name}: matches its golden file")
