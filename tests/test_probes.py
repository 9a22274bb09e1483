"""Every name the benchmark's traced run wraps must exist in deskbench.

``perfbench/layers.py`` rebinds ``getattr(owner, attr)`` for each
``Probe(owner, attr, ...)``; a probed name deleted from ``src/`` would
break ``perfbench/run.py --trace 1`` while the rest of the suite passes.
The file is parsed, not imported, so this test needs nothing from
``perfbench/`` but its text.
"""

import ast
import importlib
from pathlib import Path

LAYERS = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"


def _module_names(tree: ast.Module) -> dict:
    """Names bound by the file's ``from deskbench... import ...`` lines."""
    names = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "deskbench":
            package = importlib.import_module(node.module)
            for alias in node.names:
                names[alias.asname or alias.name] = getattr(package, alias.name)
    return names


def _resolve(node: ast.expr, names: dict):
    if isinstance(node, ast.Name):
        return names[node.id]
    if isinstance(node, ast.Attribute):
        return getattr(_resolve(node.value, names), node.attr)
    raise AssertionError(f"unexpected probe owner {ast.dump(node)}")


def _probes(tree: ast.Module) -> list:
    return [node for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "Probe"]


def test_every_probe_resolves():
    tree = ast.parse(LAYERS.read_text(encoding="utf-8"))
    names = _module_names(tree)
    probes = _probes(tree)
    assert len(probes) > 40
    missing = []
    for call in probes:
        owner, attr = call.args[0], call.args[1].value
        if not callable(getattr(_resolve(owner, names), attr, None)):
            missing.append(f"{ast.unparse(owner)}.{attr}")
    assert missing == []
