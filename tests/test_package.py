import ast
import builtins
import json
import os
import subprocess
import sys
import textwrap

import pytest

import revcheck
from revcheck import analysis, cli
from revcheck.fixtures import fixture_path

SRC = os.path.dirname(os.path.dirname(os.path.abspath(revcheck.__file__)))


def _fresh(code: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=SRC)
    result = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code), *args], env=env, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
    return result


def test_all_lists_each_public_import_once_and_every_name_resolves():
    # Each name resolves to the object its module defines.
    names = revcheck.__all__
    assert len(names) == len(set(names))
    for name in names:
        obj = getattr(revcheck, name)
        home = obj.__module__
        assert home.startswith("revcheck.") and home != "revcheck.cli", name
        assert getattr(sys.modules[home], name) is obj, name


def test_dir_and_star_import_cover_all():
    assert set(revcheck.__all__) <= set(dir(revcheck))
    namespace = {}
    exec("from revcheck import *", namespace)
    assert set(revcheck.__all__) <= set(namespace)
    assert not {name for name in namespace if not name.startswith("__")} - set(revcheck.__all__)


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        revcheck.no_such_name


def test_import_revcheck_loads_no_submodule_until_one_is_used():
    # README's round trip: a submodule is an attribute of the package.
    result = _fresh(
        """
        import sys
        import revcheck
        print(sorted(m for m in sys.modules if m.startswith("revcheck.")))
        print(revcheck.verdict.classify.__module__)
        print(sorted(m for m in sys.modules if m.startswith("revcheck.")))
        """
    )
    before, home, after = result.stdout.splitlines()
    assert before == "[]"
    assert home == "revcheck.verdict"
    assert "'revcheck.verdict'" in after and "'revcheck.bernoulli'" not in after


# What a fresh interpreter loads for one CLI call. `import numpy` comes first,
# so a module that numpy loads by itself (numpy 1.x imports numpy.ma and
# numpy.random, which imports secrets) counts as the baseline's, not the
# command's.
_LOADS = """
import contextlib, io, json, sys
import numpy
baseline = set(sys.modules)
from revcheck import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(json.loads(sys.argv[1]))
print(json.dumps({"code": code, "loaded": sorted(set(sys.modules) - baseline)}))
"""


def _loaded(argv: list) -> set:
    result = json.loads(_fresh(_LOADS, json.dumps(argv)).stdout.splitlines()[-1])
    assert result["code"] == 0
    return set(result["loaded"])


def test_each_command_loads_only_its_own_modules(tmp_path):
    csv_path = tmp_path / "groups.csv"
    assert cli.main(["--seed", "3", "simulate", "example3", "--out", str(csv_path)]) == 0
    # An inferred binary ordering, a by-group fit and a battery: every value-set test runs.
    regression = _loaded(
        ["analyze-regression", str(csv_path), "--response", "y", "--regressors", "x",
         "--ordering", "group", "--by-group", "group"]
    )
    assert {"revcheck.analysis", "revcheck.misspec"} <= regression
    assert not {"revcheck.bernoulli", "revcheck.simulate", "numpy.ma", "secrets"} & regression

    # The table commands classify without the regression battery.
    battery = {"revcheck.misspec", "revcheck.regression"}
    table = _loaded(["analyze-table", str(fixture_path("berkeley.json"))])
    assert {"revcheck.analysis", "revcheck.bernoulli"} <= table
    assert not ({"revcheck.simulate", "revcheck.parameterization"} | battery) & table
    # The three-correlation conditions need no least squares, tail
    # probabilities or sample moments.
    conditions = _loaded(["reverse-conditions", "0.5", "0.7", "0.8"])
    assert {"revcheck.verdict", "revcheck.parameterization"} <= conditions
    unused = {"revcheck.analysis", "revcheck.bernoulli", "revcheck.simulate", "revcheck.core_stats"}
    assert not (unused | battery) & conditions

    study = _loaded(["--seed", "1", "simulate", "mc-size", "--dgp", "trending", "--reps", "1000"])
    assert "revcheck.simulate" in study
    assert not {"revcheck.analysis", "revcheck.bernoulli"} & study


def _module_level_names(body: list) -> set:
    """Names that statements bind in the namespace they run in."""
    names = set()
    for node in body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names |= {(alias.asname or alias.name).split(".")[0] for alias in node.names}
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {n.id for target in targets for n in ast.walk(target) if isinstance(n, ast.Name)}
    return names


def _annotation_names(path: str) -> tuple:
    """(names the annotations of the module at path use, names it binds at
    module level or in its TYPE_CHECKING block, builtins included)."""
    with open(path, encoding="utf-8") as handle:
        tree = ast.parse(handle.read())
    bound = _module_level_names(tree.body) | set(dir(builtins))
    for node in tree.body:
        if isinstance(node, ast.If) and isinstance(node.test, ast.Name) and node.test.id == "TYPE_CHECKING":
            bound |= _module_level_names(node.body)
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            arguments = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
            arguments += [arg for arg in (node.args.vararg, node.args.kwarg) if arg is not None]
            annotations += [arg.annotation for arg in arguments if arg.annotation is not None]
            if node.returns is not None:
                annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    used = {name.id for annotation in annotations for name in ast.walk(annotation) if isinstance(name, ast.Name)}
    return used, bound


def test_cli_annotations_name_only_module_level_names():
    # cli and analysis import most modules inside the functions that use
    # them; each name their annotations use is bound at module level, in the
    # TYPE_CHECKING block if nowhere else, so static tools can resolve it.
    for module, expected in (
        (cli, {"Dataset", "misspec", "simulate"}),
        (analysis, {"BatteryConfig", "Dataset", "StratifiedTables"}),
    ):
        used, bound = _annotation_names(module.__file__)
        assert expected <= used, module.__name__
        assert used <= bound, (module.__name__, sorted(used - bound))
