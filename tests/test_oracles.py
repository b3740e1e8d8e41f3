"""The brute-force oracles stay independent of the package they check."""

import ast
from pathlib import Path

ORACLES = Path(__file__).with_name("oracles.py")
ALLOWED = {"LabeledMultigraph", "StepGraphon"}


def test_oracles_import_only_the_value_types_from_graphlim():
    tree = ast.parse(ORACLES.read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            assert not any(a.name.split(".")[0] == "graphlim" for a in node.names)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "graphlim":
            assert node.module == "graphlim" and node.level == 0
            imported |= {a.name for a in node.names}
    assert imported <= ALLOWED, imported - ALLOWED
