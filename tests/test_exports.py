import ast
import importlib
import pkgutil
from collections import Counter
from pathlib import Path

import pytest

import psforge

# every module but __main__, which runs the command line when imported
_MODULES = [importlib.import_module(f"psforge.{m.name}")
            for m in pkgutil.iter_modules(psforge.__path__)
            if m.name != "__main__"]


@pytest.mark.parametrize("module",
                         [m for m in _MODULES if hasattr(m, "__all__")],
                         ids=lambda m: m.__name__)
def test_all_names_resolve(module):
    # a name left in __all__ after its definition is gone breaks
    # `from module import *` only when someone uses it
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing, f"{module.__name__}.__all__ names undefined {missing}"


# dead-code guard over the source of every module but __init__
_TREES = {p.stem: ast.parse(p.read_text())
          for p in sorted(Path(psforge.__file__).parent.glob("*.py"))}
_CHECKED = [name for name in _TREES if name != "__init__"]


def _reads(tree, bare=False):
    """Names tree reads, with repeats: bare, and unless bare also as
    attributes and by importing them from another module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute) and not bare:
            yield node.attr
        elif isinstance(node, ast.ImportFrom) and not bare:
            yield from (alias.name for alias in node.names)


@pytest.mark.parametrize("name", _CHECKED)
def test_from_imports_are_used(name):
    # every name a `from ... import` binds is read or listed in __all__
    tree = _TREES[name]
    bound = {alias.asname or alias.name for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) for alias in node.names}
    listed = [ast.literal_eval(node.value) for node in tree.body
              if isinstance(node, ast.Assign)
              and getattr(node.targets[0], "id", None) == "__all__"]
    unused = bound - set(_reads(tree, bare=True)) - set(sum(listed, []))
    assert not unused, f"psforge.{name} imports unused names {unused}"


@pytest.mark.parametrize("name", _CHECKED)
def test_private_definitions_are_used(name):
    # every module-level _function or _CONSTANT is read in psforge
    # outside its own definition
    reads = Counter(n for tree in _TREES.values() for n in _reads(tree))
    unused = []
    for node in _TREES[name].body:
        if isinstance(node, ast.FunctionDef):
            defined = [node.name]
        else:
            defined = [n.id for t in getattr(node, "targets", [])
                       for n in ast.walk(t) if isinstance(n, ast.Name)]
        own = Counter(_reads(node))
        unused += [d for d in defined if d.startswith("_")
                   and not d.startswith("__") and reads[d] == own[d]]
    assert not unused, f"psforge.{name} defines unused names {unused}"


def _leading_text(node):
    """The constant text a message expression starts with, or ''."""
    while isinstance(node, ast.BinOp):
        node = node.left
    if isinstance(node, ast.JoinedStr) and node.values:
        node = node.values[0]
    value = node.value if isinstance(node, ast.Constant) else ""
    return value if isinstance(value, str) else ""


def test_lambda_is_checked_in_frames_only():
    # every march takes lambda by one rule, frames._spectral: no other
    # module raises a ValueError of its own about lambda
    raisers = {name for name, tree in _TREES.items()
               for node in ast.walk(tree) if isinstance(node, ast.Raise)
               and isinstance(node.exc, ast.Call)
               and getattr(node.exc.func, "id", None) == "ValueError"
               and node.exc.args and _leading_text(
                   node.exc.args[0]).startswith("lambda must be")}
    assert raisers == {"frames"}, f"lambda checked outside frames: {raisers}"
