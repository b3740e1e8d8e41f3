import ast
import importlib
import inspect
from pathlib import Path

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


def test_perfbench_traced_names_are_top_level_functions():
    """perfbench/tracing.py wraps each LAYER_FUNCTIONS name in its module;
    each must stay a top-level function of graphlim.<module>. The harness's
    own tests run apart from this suite, so this is the guard that runs here."""
    tracing = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    (layer_functions,) = [
        ast.literal_eval(node.value)
        for node in ast.parse(tracing.read_text()).body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "LAYER_FUNCTIONS" for t in node.targets)
    ]
    assert layer_functions
    for module, names in layer_functions.items():
        source = inspect.getsource(importlib.import_module(f"graphlim.{module}"))
        defined = {n.name for n in ast.parse(source).body if isinstance(n, ast.FunctionDef)}
        assert set(names) <= defined, (module, sorted(set(names) - defined))
