"""Checks on the source tree itself: the library names the benchmark wraps
still exist, and no `src/ellcode` module imports a name it never uses."""

import ast
import importlib.util
import inspect
import os

import pytest

from ellcode import code, isodual, linalg
from ellcode.code import LinearCode

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
BENCH = os.path.join(ROOT, "bench")
PACKAGE = os.path.join(ROOT, "src", "ellcode")


@pytest.fixture(scope="module")
def layers():
    """bench/layers.py loaded by path; it imports `tracer` from bench/."""
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(BENCH)
        spec = importlib.util.spec_from_file_location(
            "bench_layers", os.path.join(BENCH, "layers.py"))
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("kind", ["span", "count"])
def test_bench_targets_resolve(layers, kind):
    targets = layers.targets(kind)
    assert targets
    for owner, attr in targets:
        assert callable(getattr(owner, attr, None)), (owner, attr)


@pytest.mark.parametrize("fn, params", [
    (linalg.rref, {"rows"}),
    (linalg.gram, {"a"}),
    (code.mds_subset_check, {"points", "structure", "k"}),
    (isodual.mds_subset_check, {"points", "structure", "k"}),
    (LinearCode.min_distance, {"self"}),
], ids=["rref", "gram", "code.mds_subset_check", "isodual.mds_subset_check",
        "min_distance"])
def test_bench_work_counts_find_their_parameters(fn, params):
    """The work counts in bench/layers.py read these arguments by name."""
    assert params <= set(inspect.signature(fn).parameters)


def _unused_imports(source: str) -> list[str]:
    """Names a module imports but never reads, counting a name read inside
    a string annotation such as ``Optional["LinearCode"]``."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = set()
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    for annotation in annotations:
        for sub in ast.walk(annotation):
            if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                used.update(n.id for n in ast.walk(ast.parse(sub.value, mode="eval"))
                            if isinstance(n, ast.Name))
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


def test_unused_import_check_flags_and_spares():
    source = ("from typing import Iterator, Optional\n"
              "import os.path\n"
              "import json as j\n"
              "from . import gf\n"
              "def f(x: Optional['gf.FieldSpec']) -> 'Point': return j.dumps(x)\n")
    assert _unused_imports(source) == ["Iterator (line 1)", "os (line 2)"]


@pytest.mark.parametrize("name", sorted(
    f for f in os.listdir(PACKAGE) if f.endswith(".py") and f != "__init__.py"))
def test_no_unused_imports(name):
    with open(os.path.join(PACKAGE, name)) as handle:
        assert _unused_imports(handle.read()) == []
