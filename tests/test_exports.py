"""Every name a halfharm module exports in __all__ must exist, the
package's count of defaulted parameters (function and dataclass-field
defaults) may not grow, and importing halfharm loads no scipy.

Nothing in the suite imports `*`, so a function deleted from a module but
left in its __all__ would pass every other test.
"""

import ast
import importlib
import json
import os
import pkgutil
import subprocess
import sys
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


# Importing halfharm loads numpy and the stdlib only: scipy loads inside the
# three calls that use it (a Profile, a kernel table, a BCL bound), so the
# certificate battery, which needs none of them, never pays its import.
_SCIPY_PARTS = ("scipy.interpolate", "scipy.optimize", "scipy.special", "scipy.linalg")

_IMPORT_CHILD = """
import importlib, json, pkgutil, sys
import halfharm
for m in pkgutil.iter_modules(halfharm.__path__):
    importlib.import_module("halfharm." + m.name)
from halfharm import certificates, competitors
certificates.standard_certificates()
parts = %r
before = [p for p in parts if p in sys.modules]
competitors.optimal_profile(0.5)
print(json.dumps({"before": before, "after": [p for p in parts if p in sys.modules]}))
""" % (_SCIPY_PARTS,)


def test_certificates_run_without_loading_scipy():
    src = str(Path(halfharm.__file__).resolve().parents[1])
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    out = subprocess.run([sys.executable, "-c", _IMPORT_CHILD], env=env, capture_output=True,
                         text=True, timeout=300, check=True)
    loaded = json.loads(out.stdout.splitlines()[-1])
    assert loaded["before"] == []
    # the guard is live: the first profile does load scipy's splines
    assert "scipy.interpolate" in loaded["after"]


def _is_type_checking(test: ast.expr) -> bool:
    return ((isinstance(test, ast.Name) and test.id == "TYPE_CHECKING")
            or (isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING"))


def _import_time_scipy(body) -> list[int]:
    """Lines of the statements in body, run when the module is imported,
    that import scipy: function bodies and `if TYPE_CHECKING:` blocks are
    skipped, class bodies and other blocks are searched."""
    lines = []
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        else:
            names = []
        if any(n == "scipy" or n.startswith("scipy.") for n in names):
            lines.append(node.lineno)
        if isinstance(node, ast.If) and _is_type_checking(node.test):
            lines += _import_time_scipy(node.orelse)
            continue
        for name in ("body", "orelse", "finalbody", "handlers"):
            lines += _import_time_scipy(getattr(node, name, []))
    return lines


def test_no_module_imports_scipy_at_import_time():
    src = Path(halfharm.__file__).resolve().parent
    found = {path.name: lines for path in sorted(src.glob("*.py"))
             if (lines := _import_time_scipy(ast.parse(path.read_text()).body))}
    assert not found, f"module-level scipy imports (file: lines): {found}"
