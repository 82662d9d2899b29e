"""Every name a halfharm module exports in __all__ must exist, and the
package's count of defaulted parameters may not grow.

Nothing in the suite imports `*`, so a function deleted from a module but
left in its __all__ would pass every other test.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

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


# Defaulted parameters across src/halfharm.  Each one is a knob that tests
# and benchmarks must cover; a change that adds one raises this bound where
# a reviewer sees it.
MAX_DEFAULTED_PARAMETERS = 39


def test_defaulted_parameters_do_not_grow():
    src = Path(halfharm.__file__).resolve().parent
    count = 0
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.arguments):
                count += len(node.defaults) + sum(d is not None for d in node.kw_defaults)
    assert count <= MAX_DEFAULTED_PARAMETERS, (
        f"src/halfharm has {count} defaulted parameters, above the bound "
        f"{MAX_DEFAULTED_PARAMETERS}")
