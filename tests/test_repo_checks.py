"""Checks on the source tree itself: the library names the benchmark wraps
still exist, no `src/ellcode` module, test or demo imports a name it never
uses, no library module computes in floating point or tests a factor for
zero around a read of the exp/log tables, every public name,
function, class and method of the library has a reader outside the tests,
only `gf` and `curve` construct `Point`s and `FieldElement`s (in `curve`,
`Curve._point` alone), no op runs `FieldElement` arithmetic, `isodual`
has one generator route, `curve` has one source of points, the library neither imports the tests' oracle
nor loads its function-field layer, the CLI maps errors to exit codes in
`main` alone, README's quick start runs, and the docs list the
certificate invariants in order."""

import ast
import contextlib
import importlib.util
import inspect
import io
import os
import re
import subprocess
import sys

import pytest

import ellcode
from ellcode import code, isodual, linalg
from ellcode.code import LinearCode
from ellcode.gf import FieldElement, FieldSpec
from ellcode.isodual import (ConstructionInput, IsoDualCertificate, PairSelection,
                             construct, verify_certificate)
from ellcode.search import census_rows

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
BENCH = os.path.join(ROOT, "bench")
DEMOS = os.path.join(ROOT, "demos")
PACKAGE = os.path.join(ROOT, "src", "ellcode")
README = os.path.join(ROOT, "README.md")


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


# a library module by its file name, a demo or test by its path in the repo
@pytest.mark.parametrize("name", sorted(
    f for f in os.listdir(PACKAGE) if f.endswith(".py") and f != "__init__.py") + [
    f"{d}/{f}" for d in ("demos", "tests")
    for f in sorted(os.listdir(os.path.join(ROOT, d))) if f.endswith(".py")])
def test_no_unused_imports(name):
    path = os.path.join(ROOT if "/" in name else PACKAGE, name)
    with open(path) as handle:
        assert _unused_imports(handle.read()) == []


def _inexact_arithmetic(source: str, divides: frozenset = frozenset()) -> list[str]:
    """Float constants, `float()` and `round()` calls, and true divisions
    `/` and `/=` in a module, in source order; a division inside a
    top-level function named in `divides` (a field's `/`) is spared."""
    tree = ast.parse(source)
    spared = {id(sub) for node in tree.body
              if isinstance(node, ast.FunctionDef) and node.name in divides
              for sub in ast.walk(node)}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            found.append((node.lineno, node.col_offset, repr(node.value)))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id in ("float", "round")):
            found.append((node.lineno, node.col_offset, f"{node.func.id}()"))
        elif (isinstance(node, (ast.BinOp, ast.AugAssign))
              and isinstance(node.op, ast.Div) and id(node) not in spared):
            found.append((node.lineno, node.col_offset, "/"))
    return [f"{what} (line {line})" for line, _, what in sorted(found)]


def test_inexact_arithmetic_check_flags_and_spares():
    source = ('"""Halves: 1 / 2 is 0.5, float(), round()."""\n'
              "x = 1.5 + 2\n"
              "y = float(x) + round(x, 1)\n"
              "z = x / y\n"
              "z /= 2\n"
              "w = 7 // 2\n"
              "w //= 2\n"
              "spec.float(x)\n"
              "def evaluate(f, p):\n"
              "    return f / p\n")
    flagged = ["1.5 (line 2)", "float() (line 3)", "round() (line 3)",
               "/ (line 4)", "/ (line 5)"]
    assert _inexact_arithmetic(source, frozenset({"evaluate"})) == flagged
    assert _inexact_arithmetic(source) == flagged + ["/ (line 10)"]


@pytest.mark.parametrize("name", sorted(f for f in os.listdir(PACKAGE) if f.endswith(".py")))
def test_library_arithmetic_is_exact(name):
    """The library is exact: its one `/` is `funcspace.evaluate`'s field
    division of `FieldElement`s."""
    divides = frozenset({"evaluate"} if name == "funcspace.py" else ())
    with open(os.path.join(PACKAGE, name)) as handle:
        assert _inexact_arithmetic(handle.read(), divides) == []


def _zero_tested(test: ast.expr) -> set[str]:
    """The names a condition tests for zero: ``x``, ``not x``, ``x == 0``,
    ``x != 0``, or an ``and``/``or`` of such tests; empty for any other."""
    if isinstance(test, ast.Name):
        return {test.id}
    if isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not):
        return _zero_tested(test.operand)
    if (isinstance(test, ast.Compare) and len(test.ops) == 1
            and isinstance(test.ops[0], (ast.Eq, ast.NotEq))):
        sides = [test.left, test.comparators[0]]
        if any(isinstance(s, ast.Constant) and s.value == 0 for s in sides):
            return {s.id for s in sides if isinstance(s, ast.Name)}
    if isinstance(test, ast.BoolOp):
        names = [_zero_tested(v) for v in test.values]
        return set().union(*names) if all(names) else set()
    return set()


def _zero_guarded_table_reads(source: str) -> list[str]:
    """Each conditional expression of a module that tests a name for zero
    and reads a log table (a name or attribute ending in ``log``) at an
    index holding that name, in either branch: a zero the field's own log
    already reads as 0 in ``_zexp``.  A test of a log itself, such as a
    step of 0, guards no read of the log at it and is spared."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.IfExp):
            continue
        tested = _zero_tested(node.test)
        for branch in (node.body, node.orelse):
            reads = [sub for sub in ast.walk(branch) if isinstance(sub, ast.Subscript)
                     and getattr(sub.value, "id", getattr(sub.value, "attr", "")).endswith("log")]
            if any(isinstance(n, ast.Name) and n.id in tested
                   for sub in reads for n in ast.walk(sub.slice)):
                found.append(node.lineno)
                break
    return [f"line {line}" for line in sorted(found)]


def test_zero_guard_check_flags_and_spares():
    source = ("def f(x, a, b, lx, k):\n"
              "    y = exp2[log[x] + 1] if x else 0\n"
              "    z = zexp[log[a] + log[b]] if a and b else 0\n"
              "    w = 2 * q1 if x == 0 else spec._log[x]\n"
              "    s = expb[0:k * lx:lx] if lx else b'\\x01' * k\n"
              "    t = zexp[log[x] + 1]\n"
              "    u = log[b] if x else a\n"
              "    v = log[x] if x > 1 else 0\n"
              "    if x:\n        v = log[x]\n")
    assert _zero_guarded_table_reads(source) == ["line 2", "line 3", "line 4"]


@pytest.mark.parametrize("name", sorted(f for f in os.listdir(PACKAGE) if f.endswith(".py")))
def test_no_zero_branch_around_a_table_read(name):
    """The field decides how zero reads in log space (`gf`'s log 0 and
    ``_zexp``), so no kernel tests a factor for zero around a table read."""
    with open(os.path.join(PACKAGE, name)) as handle:
        assert _zero_guarded_table_reads(handle.read()) == []


def test_mul_enc_has_no_zero_test():
    body = ast.parse(inspect.getsource(FieldSpec.mul_enc).strip()).body[0].body
    assert len(body) == 1 and isinstance(body[0], ast.Return)
    assert not [n for n in ast.walk(body[0]) if isinstance(n, (ast.IfExp, ast.Compare,
                                                                ast.BoolOp))]


def _calls_of(source: str, names: tuple[str, ...]) -> list[str]:
    """Each call in a module of a function named in `names`, by bare name
    or as an attribute, in source order."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            if name in names:
                found.append((node.lineno, node.col_offset, name))
    return [f"{name} (line {line})" for line, _, name in sorted(found)]


def test_point_and_element_call_check_flags_and_spares():
    source = ('"""Point(x, y) in a docstring."""\n'
              "from ellcode.curve import Point\n"
              "p = Point(1, 2)\n"
              "e = gf.FieldElement(spec, 3)\n"
              "k = p.key(); q = curve._point(e)\n"
              "def f(pt: Point) -> 'FieldElement': return PointSet(pt)\n")
    assert _calls_of(source, ("Point", "FieldElement")) == ["Point (line 3)",
                                                            "FieldElement (line 4)"]
    assert _calls_of(source, ("key", "PointSet")) == ["key (line 5)", "PointSet (line 6)"]


@pytest.mark.parametrize("name", sorted(f for f in os.listdir(PACKAGE) if f.endswith(".py")))
def test_points_and_elements_are_built_in_gf_and_curve_only(name):
    """Points and field elements are the API types: only `gf` and `curve`
    construct them, and every other module computes on encodings."""
    with open(os.path.join(PACKAGE, name)) as handle:
        calls = _calls_of(handle.read(), ("Point", "FieldElement"))
    assert calls == [] or name in ("gf.py", "curve.py")


def _callers_of(source: str, names: tuple[str, ...]) -> list[str]:
    """The top-level functions and methods of a module, as ``f`` or
    ``Class.f``, whose bodies (closures included) call a function named in
    `names`, and ``<module>`` for such a call outside them; sorted."""
    found = set()

    def scan(node, scope, cls=None):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef) and scope == "<module>":
                scan(child, scope, child.name)
            elif isinstance(child, ast.FunctionDef) and scope == "<module>":
                scan(child, f"{cls}.{child.name}" if cls else child.name)
            else:
                if isinstance(child, ast.Call) and getattr(
                        child.func, "id", getattr(child.func, "attr", None)) in names:
                    found.add(scope)
                scan(child, scope, cls)
    scan(ast.parse(source), "<module>")
    return sorted(found)


def test_caller_check_flags_and_spares():
    source = ('"""FieldElement(spec, 1) in a docstring."""\n'
              "from ellcode.gf import FieldElement\n"
              "ONE = FieldElement(spec, 1)\n"
              "def f(spec):\n    return [FieldElement(spec, e) for e in range(2)]\n"
              "def g(spec, x: 'FieldElement') -> FieldElement:\n    return spec.element(x)\n"
              "class K:\n"
              "    def m(self):\n"
              "        def inner(e):\n            return gf.FieldElement(self.spec, e)\n"
              "        return inner\n"
              "    def n(self, e):\n        return isinstance(e, FieldElement)\n")
    assert _callers_of(source, ("FieldElement",)) == ["<module>", "K.m", "f"]
    assert _callers_of(source, ("element", "isinstance")) == ["K.n", "g"]


def test_curve_builds_field_elements_at_its_api_edge_only():
    """The coefficients are encodings and the discriminant and every op
    compute on them: in `curve`, `Curve._point` alone builds a
    `FieldElement`, for the `Point`s the API returns, and `Curve.__init__`
    alone reads one, checking each coefficient through `spec.element`."""
    with open(os.path.join(PACKAGE, "curve.py")) as handle:
        source = handle.read()
    assert _callers_of(source, ("FieldElement",)) == ["Curve._point"]
    assert _callers_of(source, ("element",)) == ["Curve.__init__"]


def test_no_op_runs_field_element_arithmetic(layers, monkeypatch):
    """Construct and verify of every golden, and the census, with each
    `FieldElement` operator that the benchmark counts made to raise."""
    names = sorted(f for f in os.listdir(os.path.join(BENCH, "goldens")) if f[1:-5].isdigit())
    texts = []
    for name in names:
        with open(os.path.join(BENCH, "goldens", name)) as fh:
            texts.append(fh.read())
    rows = census_rows([16, 25])

    def refuse(*args):
        raise AssertionError("FieldElement arithmetic in an op")
    for op in layers.ELEMENT_OPS:
        monkeypatch.setattr(FieldElement, op, refuse)
    for text in texts:
        cert = IsoDualCertificate.from_json(text)
        sel = cert.pair_selection
        assert construct(ConstructionInput(
            cert.curve(), cert.k, cert.construction, cert.torsion_choice,
            PairSelection(sel["mode"], sel["r"], sel["pairs_x"] and tuple(sel["pairs_x"]))
        )).to_json() == text
        assert verify_certificate(IsoDualCertificate.from_json(text)) == []
    assert len(names) == 9 and census_rows([16, 25]) == rows


def test_isodual_has_one_generator_route():
    """Construct and verify take G from the closed form alone and the w = 1
    hull from the point moments: `isodual` builds no `LinearCode` through
    its entry checks and calls neither `linalg.rref` nor `linalg.gram`."""
    with open(os.path.join(PACKAGE, "isodual.py")) as handle:
        assert _calls_of(handle.read(), ("LinearCode", "rref", "gram")) == []


def _point_finders(source: str) -> list[str]:
    """The top-level functions and methods of a module that look for the
    points on an x: those that call `sqrt_enc` or `artin_solve`, loop over
    ``range(q)`` (q a name or an attribute), or test a square by log
    parity, a read of a table whose name ends in ``log`` ANDed with 1."""
    tree, found = ast.parse(source), set()
    defs = [n for n in tree.body if isinstance(n, ast.FunctionDef)] + [
        n for c in tree.body if isinstance(c, ast.ClassDef)
        for n in c.body if isinstance(n, ast.FunctionDef)]
    for fn in defs:
        for node in ast.walk(fn):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                args = [getattr(a, "id", getattr(a, "attr", None)) for a in node.args]
                if name in ("sqrt_enc", "artin_solve") or (name, args) == ("range", ["q"]):
                    found.add(fn.name)
            elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitAnd):
                sides = (node.left, node.right)
                if any(isinstance(s, ast.Constant) and s.value == 1 for s in sides) and any(
                        isinstance(s, ast.Subscript) and getattr(
                            s.value, "id", getattr(s.value, "attr", "")).endswith("log")
                        for s in sides):
                    found.add(fn.name)
    return sorted(found)


def test_point_finder_check_flags_and_spares():
    source = ('"""sqrt_enc(c) and range(q) in a docstring."""\n'
              "def a(s, c):\n    return s.sqrt_enc(c)\n"
              "class K:\n"
              "    def b(self, q):\n        return [x for x in range(q)]\n"
              "    def c(self, s):\n        return zip(range(s.q), s._log)\n"
              "    def d(self, log, c):\n        return 1 - (log[c] & 1)\n"
              "    def e(self, n, p, q, spec):\n"
              "        return n & 1, range(p), range(q // 2), spec._log[1] & 2, solve(1)\n"
              "def f(s, w):\n    return s.artin_solve(w)\n")
    assert _point_finders(source) == ["a", "b", "c", "d", "f"]


def test_curve_has_one_source_of_points():
    """`Curve._on_each_x` alone finds the points on an x: `order` counts
    through it or by the trace lift over F_p, and `_basis` scans it, so no
    second enumeration of E(F_q) can come back."""
    with open(os.path.join(PACKAGE, "curve.py")) as handle:
        assert _point_finders(handle.read()) == ["_on_each_x"]


def _imported_names(source: str) -> set[str]:
    """Every dotted name an import statement of a module mentions: the
    modules of ``import`` and ``from ... import``, and the names the latter
    takes, at any depth."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            found.update(alias.name for alias in node.names)
        if isinstance(node, ast.ImportFrom) and node.module:
            found.add(node.module)
    return found


def test_imported_name_check_flags_and_spares():
    source = ('"""import oracle in a docstring."""\n'
              "import os.path\n"
              "from . import gf\n"
              "from .curve import Curve\n"
              "from oracle import valuation\n"
              "def f():\n    import json\n")
    assert _imported_names(source) == {"os.path", "gf", "curve", "Curve", "oracle",
                                       "valuation", "json"}


# the test references of `tests/oracle.py`: the symbolic function-field layer
ORACLE_ONLY_NAMES = ("Divisor", "RationalFunction", "principal_divisor",
                     "valuation", "validate_rr_basis")


@pytest.mark.parametrize("name", sorted(f for f in os.listdir(PACKAGE) if f.endswith(".py")))
def test_library_never_imports_the_oracle(name):
    """`ellcode` is checked against `tests/oracle.py`, so it must not use it."""
    with open(os.path.join(PACKAGE, name)) as handle:
        imported = _imported_names(handle.read())
    assert not {m for m in imported if "oracle" in m.split(".")}, name


def test_fresh_import_loads_no_symbolic_function_field_layer():
    """A fresh ``import ellcode`` loads no module that defines a name of the
    tests' function-field reference, and not the oracle itself."""
    probe = ("import sys, ellcode\n"
             f"names = {ORACLE_ONLY_NAMES!r}\n"
             "print(sorted(m for m, mod in list(sys.modules.items())\n"
             "             if m == 'oracle' or any(n in vars(mod) for n in names)))\n")
    src = os.path.dirname(PACKAGE)
    out = subprocess.run([sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": src},
                         cwd=src, capture_output=True, text=True, check=True)
    assert out.stdout == "[]\n"


def _identifiers(source: str) -> set[str]:
    """Every name a module reads as an identifier: a loaded `Name` or
    `Attribute`, or a name imported with ``from ... import``; a word in a
    string or docstring is not one."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def test_identifier_check_flags_and_spares():
    source = ('"""Mentions unused in a docstring."""\n'
              "from ellcode.search import census_rows\n"
              "import ellcode\n"
              "stored = ellcode.derive(spec)\n"
              "print('unused', stored)\n")
    assert _identifiers(source) == {"census_rows", "ellcode", "derive", "spec",
                                    "print", "stored"}
    assert _identifiers("stored = 1\nellcode.derive = None\n") == {"ellcode"}


def _public_definitions(source: str) -> set[str]:
    """The public functions and classes a module defines at top level, and
    the public methods of its classes, as ``name`` or ``Class.method``."""
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            names.add(node.name)
        if isinstance(node, ast.ClassDef):
            names.update(f"{node.name}.{sub.name}" for sub in node.body
                         if isinstance(sub, ast.FunctionDef)
                         and not sub.name.startswith("_"))
    return names


def test_public_definition_check_flags_and_spares():
    source = ("LIMIT = 3\n"
              "def build(x):\n    def inner(): pass\n    return inner\n"
              "def _helper(): pass\n"
              "class Code:\n"
              "    size = 2\n"
              "    def __init__(self): pass\n"
              "    def dual(self): pass\n"
              "    @property\n    def k(self): pass\n"
              "    def _cache(self): pass\n"
              "class _Context:\n    def hull(self): pass\n")
    assert _public_definitions(source) == {"build", "Code", "Code.dual", "Code.k",
                                           "_Context.hull"}


# the tests' references for the scalar-class enumeration of `min_distance`
REFERENCE_NAMES = {"LinearCode.codewords", "LinearCode.weight_distribution"}


def test_public_names_are_read_outside_the_tests(layers):
    """Each name of `ellcode.__all__`, and each public function, class and
    method that `src/ellcode` defines, is read by a library module other
    than `__init__`, a demo, the benchmark (its wrapped targets included)
    or README's quick start; a method counts as read by its bare name."""
    paths = [os.path.join(d, f) for d in (PACKAGE, DEMOS, BENCH)
             for f in sorted(os.listdir(d))
             if f.endswith(".py") and not (d == PACKAGE and f == "__init__.py")]
    read = set()
    for path in paths:
        with open(path) as handle:
            read |= _identifiers(handle.read())
    read |= _identifiers(re.findall(r"```python\n(.*?)```", _readme(), re.S)[0])
    for kind in ("span", "count"):
        for owner, attr in layers.targets(kind):
            read |= {attr, getattr(owner, "__name__", "")}
    defined = set(ellcode.__all__)
    for name in os.listdir(PACKAGE):
        if name.endswith(".py"):
            with open(os.path.join(PACKAGE, name)) as handle:
                defined |= _public_definitions(handle.read())
    unread = {n for n in defined if n.rsplit(".", 1)[-1] not in read}
    assert sorted(unread - REFERENCE_NAMES) == []


def _try_owners(source: str) -> list[str]:
    """The top-level function around each `try` of a module, in order;
    `<module>` for a `try` outside every function."""
    owners = []
    for node in ast.parse(source).body:
        name = node.name if isinstance(node, (ast.FunctionDef,
                                              ast.AsyncFunctionDef)) else "<module>"
        owners += [name for sub in ast.walk(node)
                   if isinstance(sub, (ast.Try, ast.TryStar))]
    return owners


def test_try_check_flags_and_spares():
    source = ("def main():\n"
              "    try:\n        pass\n    except ValueError:\n        pass\n"
              "def _cmd_verify(args):\n"
              "    if args:\n        try:\n            pass\n"
              "        finally:\n            pass\n"
              "def _cmd_search(args):\n    return 0\n")
    assert _try_owners(source) == ["main", "_cmd_verify"]


def test_cli_maps_errors_to_exit_codes_in_main_alone():
    """`main` turns every failure into an exit code; the one other `try`
    removes `_atomic_write`'s temp file before re-raising."""
    with open(os.path.join(PACKAGE, "cli.py")) as handle:
        assert _try_owners(handle.read()) == ["_atomic_write", "main"]


def _readme() -> str:
    with open(README) as handle:
        return handle.read()


def test_readme_quick_start_runs():
    blocks = re.findall(r"```python\n(.*?)```", _readme(), re.S)
    assert len(blocks) == 1
    with contextlib.redirect_stdout(io.StringIO()) as out:
        exec(compile(blocks[0], "README.md", "exec"), {})
    assert out.getvalue() == "[[8,4,5;4]]_16\n"


def _lists_in_order(words: list[str], names: list[str]) -> bool:
    """Once the words that are not names are dropped, each occurrence of
    the first name starts a run of all of `names` in order, and there is
    at least one."""
    kept = [w for w in words if w in names]
    starts = [i for i, w in enumerate(kept) if w == names[0]]
    return bool(starts) and all(kept[i:i + len(names)] == names for i in starts)


def test_order_check_flags_and_spares():
    names = ["a", "b", "c"]
    assert _lists_in_order(["x", "a", "y", "b", "c", "b", "a", "b", "c"], names)
    assert not _lists_in_order(["a", "c", "b"], names)
    assert not _lists_in_order(["a", "b"], names)
    assert not _lists_in_order(["a", "b", "c", "a", "c"], names)


@pytest.mark.parametrize("doc", ["README", "isodual"])
def test_docs_list_invariants_in_table_order(doc):
    names = [name for name, _ in isodual.INVARIANTS]
    if doc == "README":
        words = re.findall(r"`(\w+)`", _readme())
    else:
        words = re.findall(r"\w+", isodual.__doc__)
    assert _lists_in_order(words, names)
