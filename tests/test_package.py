import ast
import inspect

import revcheck


def test_all_lists_each_public_import_once_and_every_name_resolves():
    names = revcheck.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(revcheck, name), name
    tree = ast.parse(inspect.getsource(revcheck))
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert {name for name in imported if not name.startswith("_")} <= set(names)
