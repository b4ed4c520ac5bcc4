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


# public names that nothing in psforge or the benchmark reads, kept on
# purpose, each with its reason
_KEEP = {
    "principal_curvatures": "the paper's closed form tan(phi/2), -cot(phi/2)",
    "integrate_plus": "the plus Birkhoff factor on the axes, the paper's "
                      "construction of the potentials",
    "integrate_minus": "the minus Birkhoff factor, as integrate_plus",
    "su2_frame": "the 2x2 spinor frame of acceptance criterion 09",
    "sample_frame_loop": "the frame loop at a node, as a SampledLoop",
    "load_potential_csv": "reads the potential files psforge writes",
    "read_obj": "reads the OBJ meshes psforge writes",
    "maurer_cartan": "the paper's extended Maurer-Cartan form, whose "
                     "alpha_m1 acceptance criterion 08 compares with eta_y",
}
_BENCH = Path(psforge.__file__).parents[2] / "bench"


def test_public_definitions_are_read():
    # every module-level public function or class is read outside its
    # own definition by psforge (re-exports in __init__ do not count) or
    # by the benchmark, or kept on purpose in _KEEP
    trees = [tree for name, tree in _TREES.items() if name != "__init__"]
    trees += [ast.parse(p.read_text()) for p in sorted(_BENCH.glob("*.py"))]
    reads = Counter(n for tree in trees for n in _reads(tree))
    public = {node.name: node for name in _CHECKED
              for node in _TREES[name].body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and not node.name.startswith("_")}
    unread = {name for name, node in public.items()
              if reads[name] == Counter(_reads(node))[name]}
    assert not unread - set(_KEEP), f"unread public names {unread - set(_KEEP)}"
    # and every _KEEP entry is defined and still needs its place there
    assert not set(_KEEP) - unread, f"_KEEP lists {set(_KEEP) - unread}"


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
