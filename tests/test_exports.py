import importlib
import pkgutil

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
