"""Every name a halfharm module exports in __all__ must exist, and the
package's count of defaulted parameters (function and dataclass-field
defaults) may not grow.

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


# Defaulted parameters across src/halfharm: function defaults and the
# defaults of dataclass fields (a field default is a constructor default;
# field(init=False) is not a parameter).  Each one is a knob that tests and
# benchmarks must cover, so a change that adds one must raise this bound in
# plain sight.
MAX_DEFAULTED_PARAMETERS = 60


def _is_dataclass(node: ast.ClassDef) -> bool:
    targets = (d.func if isinstance(d, ast.Call) else d for d in node.decorator_list)
    return any(isinstance(t, ast.Name) and t.id == "dataclass" for t in targets)


def _not_in_init(value: ast.expr) -> bool:
    return (isinstance(value, ast.Call) and isinstance(value.func, ast.Name)
            and value.func.id == "field"
            and any(k.arg == "init" and isinstance(k.value, ast.Constant) and k.value.value is False
                    for k in value.keywords))


def test_defaulted_parameters_do_not_grow():
    src = Path(halfharm.__file__).resolve().parent
    count = 0
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.arguments):
                count += len(node.defaults) + sum(d is not None for d in node.kw_defaults)
            elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
                count += sum(isinstance(s, ast.AnnAssign) and s.value is not None
                             and not _not_in_init(s.value) for s in node.body)
    assert count <= MAX_DEFAULTED_PARAMETERS, (
        f"src/halfharm has {count} defaulted parameters, above the bound "
        f"{MAX_DEFAULTED_PARAMETERS}")
