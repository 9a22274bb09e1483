"""Every deskbench name the benchmark uses must exist in deskbench.

``perfbench/layers.py`` rebinds ``getattr(owner, attr)`` for each
``Probe(owner, attr, ...)``, and ``perfbench/workloads.py`` calls the
library through module attributes (``artifacts.model_artifact(...,
config=cfg)``). A name or keyword renamed or deleted in ``src/`` would
break ``perfbench/run.py`` while the rest of the suite passes. The files
are parsed, not imported, so these tests need nothing from
``perfbench/`` but its text.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
LAYERS = PERFBENCH / "layers.py"
WORKLOADS = PERFBENCH / "workloads.py"


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


def _rooted_in(node: ast.expr, names: dict) -> bool:
    """True for ``name.attr[.attr...]`` where name is a deskbench import."""
    while isinstance(node, ast.Attribute):
        node = node.value
    return isinstance(node, ast.Name) and node.id in names


def _check_binds(fn, call: ast.Call) -> None:
    """Raise TypeError unless fn takes the call's positional count and keywords."""
    signature = inspect.signature(fn)
    keywords = {kw.arg: None for kw in call.keywords if kw.arg is not None}
    unpacked = any(isinstance(arg, ast.Starred) for arg in call.args) or any(
        kw.arg is None for kw in call.keywords)
    if unpacked:  # *args or **kwargs: only the named keywords can be checked
        signature.bind_partial(**keywords)
    else:
        signature.bind(*[None] * len(call.args), **keywords)


def test_every_workload_attribute_resolves():
    tree = ast.parse(WORKLOADS.read_text(encoding="utf-8"))
    names = _module_names(tree)
    refs = [node for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and _rooted_in(node, names)]
    assert len(refs) > 50
    missing = []
    for node in refs:
        try:
            _resolve(node, names)
        except AttributeError:
            missing.append(ast.unparse(node))
    assert missing == []


@pytest.mark.parametrize("path", [LAYERS, WORKLOADS], ids=lambda path: path.name)
def test_every_library_call_binds(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    names = _module_names(tree)
    calls = [node for node in ast.walk(tree)
             if isinstance(node, ast.Call) and _rooted_in(node.func, names)]
    assert calls
    unbound = []
    for call in calls:
        try:
            _check_binds(_resolve(call.func, names), call)
        except (AttributeError, TypeError) as exc:
            unbound.append(f"{ast.unparse(call)}: {exc}")
    assert unbound == []


def test_first_call_marks_resolve():
    """``first_call_time(module, "attr", ...)`` rebinds a library name."""
    tree = ast.parse(WORKLOADS.read_text(encoding="utf-8"))
    names = _module_names(tree)
    marks = [node for node in ast.walk(tree)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
             and node.func.id == "first_call_time"]
    assert marks
    for call in marks:
        owner, attr = call.args[0], call.args[1].value
        assert callable(getattr(_resolve(owner, names), attr, None)), ast.unparse(call)
