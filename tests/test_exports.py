"""Every name a halfharm module exports in __all__ must exist, the
package's count of defaulted parameters (function and dataclass-field
defaults) may not grow, and halfharm neither imports nor loads scipy.

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
MAX_DEFAULTED_PARAMETERS = 58


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


# halfharm runs on numpy and the standard library alone: scipy is a test
# dependency, the independent reference for the package's own spline and
# minimizer.  The child runs every part that once loaded scipy (the
# Profile spline, the kernel tables behind both sweep families and the BCL
# minimizer) after the certificate battery, and then no scipy module may be
# loaded.
_PACKAGE_CHILD = """
import importlib, json, pkgutil, sys
import halfharm
for m in pkgutil.iter_modules(halfharm.__path__):
    importlib.import_module("halfharm." + m.name)
from halfharm import blaschke, certificates, competitors, jacobian
certificates.standard_certificates()
competitors.profile_energy(competitors.optimal_profile(0.5))
competitors.epsilon_sweep(blaschke.BlaschkeProduct(theta=0.4, zeros=(0.3 + 0.2j,)), "zero_pull")
competitors.epsilon_sweep(blaschke.BlaschkeProduct(theta=1.1, zeros=(0.25 - 0.1j, -0.4 + 0.35j)),
                          "unwinding")
jacobian.bcl_lower_bound(jacobian.AtomMeasure(((0.3 + 0j, 1),)))
print(json.dumps(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))))
"""


def test_package_runs_without_loading_scipy():
    src = str(Path(halfharm.__file__).resolve().parents[1])
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    out = subprocess.run([sys.executable, "-c", _PACKAGE_CHILD], env=env, capture_output=True,
                         text=True, timeout=600, check=True)
    assert json.loads(out.stdout.splitlines()[-1]) == []


def _scipy_imports(source: str) -> list[int]:
    """Lines of every statement in source that imports scipy or a scipy
    module, wherever it stands: module level, function bodies and
    `if TYPE_CHECKING:` blocks alike."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        else:
            continue
        if any(n == "scipy" or n.startswith("scipy.") for n in names):
            lines.append(node.lineno)
    return lines


def test_no_module_imports_scipy():
    src = Path(halfharm.__file__).resolve().parent
    found = {path.name: lines for path in sorted(src.glob("*.py"))
             if (lines := _scipy_imports(path.read_text()))}
    assert not found, f"scipy imports (file: lines): {found}"


@pytest.mark.parametrize("snippet", [
    "import scipy",
    "import numpy, scipy.optimize as so",
    "def f():\n    from scipy.interpolate import CubicSpline",
    "if TYPE_CHECKING:\n    from scipy import interpolate",
    "class A:\n    def g(self):\n        import scipy.special",
])
def test_scipy_import_guard_sees_each_form(snippet):
    assert _scipy_imports(snippet)
    assert not _scipy_imports(snippet.replace("scipy", "scipyx"))
