import ast
import inspect

import graphlim


def test_all_is_sorted_and_complete():
    names = graphlim.__all__
    assert names == sorted(names)
    assert all(hasattr(graphlim, name) for name in names)
    tree = ast.parse(inspect.getsource(graphlim))
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert {name for name in imported if not name.startswith("_")} <= set(names)
