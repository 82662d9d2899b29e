"""The names the benchmark reads off halfharm must exist under those names.

bench/layers.py rebinds every name in its SPANNED table on the module
that defines it, and the other bench scripts read, call, rebind or clear
module attributes directly; a refactor that renames or inlines one of
them would break the benchmark without failing any other test, because
the suite does not run the benchmark's own tests.  The bench sources are
read with ast, so these tests do not import the benchmark.
"""

import ast
import importlib
import inspect
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"
LAYERS = BENCH / "layers.py"


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


def _chain(node: ast.AST) -> list[str] | None:
    """['a', 'b', 'c'] for the expression a.b.c, None for anything else."""
    names = []
    while isinstance(node, ast.Attribute):
        names.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    return [node.id] + names[::-1]


def _dict_literals(tree: ast.Module) -> dict[str, tuple[str, ...]]:
    """Keys of every module-level ``NAME = {"key": ..., ...}`` dict literal."""
    literals = {}
    for node in tree.body:
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name) and isinstance(node.value, ast.Dict)
                and all(isinstance(k, ast.Constant) and isinstance(k.value, str)
                        for k in node.value.keys)):
            literals[node.targets[0].id] = tuple(k.value for k in node.value.keys)
    return literals


def _call_shape(call: ast.Call, literals) -> tuple[int, tuple[str, ...]] | None:
    """(positional count, keyword names) of a call; None when ``*args`` or
    a ``**mapping`` that is not a module-level dict literal hides them."""
    if any(isinstance(a, ast.Starred) for a in call.args):
        return None
    names = []
    for kw in call.keywords:
        if kw.arg is not None:
            names.append(kw.arg)
        elif isinstance(kw.value, ast.Name) and kw.value.id in literals:
            names.extend(literals[kw.value.id])
        else:
            return None
    return len(call.args), tuple(names)


def _bench_reads() -> set[tuple[str, tuple[str, ...], tuple[int, tuple[str, ...]] | None]]:
    """(file, halfharm dotted path, call shape or None) for every attribute
    of a halfharm module that a bench script reads.

    Covered: ``from halfharm.m import x``, ``m.x`` and longer chains such
    as ``m.f.cache_clear`` after ``from halfharm import m``, calls
    ``m.f(...)`` (with their positional count and keyword names, a
    ``**NAME`` of a module-level dict literal of the same file expanded to
    its keys), and ``rebind(m.__name__, "x", ...)`` /
    ``setattr(m, "x", ...)`` forms.
    """
    reads = set()
    for path in sorted(BENCH.glob("*.py")):
        tree = ast.parse(path.read_text())
        literals = _dict_literals(tree)
        modules = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "halfharm":
                modules.update({a.asname or a.name: a.name for a in node.names})
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("halfharm."):
                for a in node.names:
                    reads.add((path.name, (node.module.split(".", 1)[1], a.name), None))

        def rooted(chain):
            if chain and chain[0] in modules and len(chain) > 1:
                return (modules[chain[0]],) + tuple(chain[1:])
            return None

        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                dotted = rooted(_chain(node))
                if dotted:
                    reads.add((path.name, dotted, None))
            if not isinstance(node, ast.Call):
                continue
            dotted = rooted(_chain(node.func))
            shape = _call_shape(node, literals)
            if dotted and shape:
                reads.add((path.name, dotted, shape))
            if len(node.args) >= 2 and isinstance(node.args[1], ast.Constant) \
                    and isinstance(node.args[1].value, str):
                target = _chain(node.args[0])
                if target and target[-1] == "__name__":
                    target = target[:-1]
                if target and len(target) == 1 and target[0] in modules:
                    reads.add((path.name, (modules[target[0]], node.args[1].value), None))
    return reads


def test_bench_reads_resolve():
    reads = _bench_reads()
    # the scan must see the attributes the cold-cache check relies on
    assert ("test_bench.py", ("certificates", "_polar_rows", "cache_clear"), None) in reads
    assert ("test_bench.py", ("certificates", "_polar_rows"), (0, ())) in reads
    # keyword calls, and the oracle's rules passed as **ORACLE_RULES
    assert ("workloads.py", ("energy", "frac_energy_plane"), (1, ("R",))) in reads
    assert ("workloads.py", ("energy", "halfspace_dirichlet_oracle"),
            (1, ("n_omega", "n_gl"))) in reads
    for file, dotted, shape in sorted(reads, key=str):
        obj = importlib.import_module(f"halfharm.{dotted[0]}")
        for i, attr in enumerate(dotted[1:], start=2):
            assert hasattr(obj, attr), f"{file} reads halfharm.{'.'.join(dotted[:i])}, which is missing"
            obj = getattr(obj, attr)
        if shape is None:
            continue
        try:
            signature = inspect.signature(obj)
        except ValueError:  # a builtin such as cache_clear carries none
            continue
        arity, keywords = shape
        try:
            signature.bind(*[None] * arity, **dict.fromkeys(keywords))
        except TypeError as exc:
            raise AssertionError(f"{file} calls halfharm.{'.'.join(dotted)} with {arity} "
                                 f"positional arguments and keywords {keywords}: {exc}") from None


def test_pair_form_bound_keys_are_parameters():
    # layers.py counts the pair form's outer points from the arguments bound
    # to energy._pair_form's signature, as bound["n_x_r"] * bound["n_x_t"]
    keys = {node.slice.value for node in ast.walk(ast.parse(LAYERS.read_text()))
            if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name)
            and node.value.id == "bound" and isinstance(node.slice, ast.Constant)}
    assert {"n_x_r", "n_x_t"} <= keys
    parameters = inspect.signature(importlib.import_module("halfharm.energy")._pair_form).parameters
    assert keys <= set(parameters), keys - set(parameters)
