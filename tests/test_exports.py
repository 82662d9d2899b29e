"""Every name a halfharm module exports in __all__ must exist.

Nothing in the suite imports `*`, so a function deleted from a module but
left in its __all__ would pass every other test.
"""

import importlib
import pkgutil

import pytest

import halfharm

MODULES = ["halfharm"] + [f"halfharm.{m.name}" for m in pkgutil.iter_modules(halfharm.__path__)]


@pytest.mark.parametrize("module_name", MODULES)
def test_all_names_resolve(module_name):
    module = importlib.import_module(module_name)
    exported = getattr(module, "__all__", ())
    assert len(set(exported)) == len(exported), f"{module_name}.__all__ repeats a name"
    missing = [name for name in exported if not hasattr(module, name)]
    assert not missing, f"{module_name}.__all__ names missing attributes: {missing}"
