"""The functions the traced benchmark wraps must exist under their names.

bench/layers.py rebinds every name in its SPANNED table on the module
that defines it; a refactor that renames or inlines one of them would
break the traced run without failing any other test.  SPANNED is read
from the source with ast, so this test does not import the benchmark.
"""

import ast
import importlib
import inspect
from pathlib import Path

LAYERS = Path(__file__).resolve().parents[1] / "bench" / "layers.py"


def _spanned() -> dict[str, tuple[str, ...]]:
    tree = ast.parse(LAYERS.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "SPANNED" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no SPANNED table in {LAYERS}")


def test_spanned_names_are_module_level_callables():
    spanned = _spanned()
    assert spanned
    for module_name, attrs in spanned.items():
        module = importlib.import_module(f"halfharm.{module_name}")
        for attr in attrs:
            fn = getattr(module, attr, None)
            assert callable(fn), f"halfharm.{module_name}.{attr} is missing"
            # defined there, not a re-export or a nested closure
            assert inspect.unwrap(fn).__module__ == module.__name__, (module_name, attr)
            assert "<locals>" not in inspect.unwrap(fn).__qualname__, (module_name, attr)
