"""Every name a ``qfalab`` module imports is used in that module, no
function in it is a pure pass-through of another, no class in it is a
namespace of static methods, every private module-level name is
referenced somewhere in the package, and every package name the benchmark
under ``bench/`` looks up exists."""

import ast
import importlib
from collections import Counter
from pathlib import Path

import pytest

import qfalab

PACKAGE = Path(qfalab.__file__).resolve().parent
BENCH = Path(__file__).resolve().parents[1] / "bench"

# Imported and not used, on purpose: the benchmark calls
# ``qfalab.verify.enumerate_values``.
RE_EXPORTS = {("verify", "enumerate_values")}


def _unused_imports(tree: ast.Module) -> list[str]:
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                imported.add(name)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(name for name in imported if name not in used)


def test_the_scan_finds_an_unused_import():
    tree = ast.parse("import os.path\nfrom math import inf, nan as n\nfrom a import b\nb(n)")
    assert _unused_imports(tree) == ["inf", "os"]


@pytest.mark.parametrize(
    "path", sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"), ids=lambda p: p.stem
)
def test_every_imported_name_is_used(path):
    unused = _unused_imports(ast.parse(path.read_text()))
    assert [name for name in unused if (path.stem, name) not in RE_EXPORTS] == []


def _pass_throughs(tree: ast.Module) -> list[str]:
    """Functions whose body, after any docstring, is only ``return g(p1, ..., pk)``:
    their own parameters in order, less a leading ``self`` or ``cls``, and no
    keywords."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        body = node.body
        if isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
            body = body[1:]
        if len(body) != 1 or not isinstance(body[0], ast.Return):
            continue
        call = body[0].value
        if not isinstance(call, ast.Call) or call.keywords:
            continue
        args = node.args
        if args.vararg or args.kwonlyargs or args.kwarg:
            continue
        params = [a.arg for a in args.posonlyargs + args.args]
        if params[:1] in (["self"], ["cls"]):
            params = params[1:]
        if [a.id if isinstance(a, ast.Name) else None for a in call.args] == params:
            found.append(node.name)
    return found


def test_the_scan_finds_a_pass_through():
    tree = ast.parse(
        "def word(w):\n    'Doc.'\n    return tuple(w)\n"
        "class A:\n    def m(self, x, y):\n        return f(x, y)\n"
        "def swapped(x, y):\n    return f(y, x)\n"
        "def keyword(x):\n    return f(x, k=1)\n"
        "def extra(x):\n    return f(x, 1)\n"
        "def field(x):\n    return f(x.a)\n"
        "def nested(x):\n    return f(g(x))\n"
        "def two(x):\n    y = x\n    return f(y)\n"
        "def star(*xs):\n    return f(*xs)\n"
        "def value(x):\n    return x\n"
    )
    assert _pass_throughs(tree) == ["word", "m"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.stem)
def test_no_function_is_a_pass_through(path):
    assert _pass_throughs(ast.parse(path.read_text())) == []


def _namespace_classes(tree: ast.Module) -> list[str]:
    """Classes without bases whose body, after any docstring, holds only
    ``@staticmethod`` functions or ``name = staticmethod(...)`` assignments:
    module functions in disguise."""
    def static(node) -> bool:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return any(isinstance(d, ast.Name) and d.id == "staticmethod"
                       for d in node.decorator_list)
        return (isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)
                and isinstance(node.value.func, ast.Name)
                and node.value.func.id == "staticmethod")

    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef) or node.bases or node.keywords:
            continue
        body = node.body
        if isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
            body = body[1:]
        if body and all(map(static, body)):
            found.append(node.name)
    return found


def test_the_scan_finds_a_namespace_class():
    tree = ast.parse(
        "class Ops:\n    'Doc.'\n    lower = staticmethod(f)\n"
        "    @staticmethod\n    def sq(v):\n        return v\n"
        "class Plain:\n    @staticmethod\n    def f():\n        pass\n"
        "class Based(Ops):\n    @staticmethod\n    def g():\n        pass\n"
        "class Mixed:\n    @staticmethod\n    def f():\n        pass\n    def m(self):\n        pass\n"
        "class Field:\n    x = 1\n"
        "class Doc:\n    'Only a docstring.'\n"
        "class Classy:\n    @classmethod\n    def make(cls):\n        pass\n"
    )
    assert _namespace_classes(tree) == ["Ops", "Plain"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.stem)
def test_no_class_is_a_namespace(path):
    assert _namespace_classes(ast.parse(path.read_text())) == []


def _references(node: ast.AST) -> Counter:
    """Names read under ``node``: loaded names, attribute names and names
    imported from a module."""
    names = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and not isinstance(sub.ctx, ast.Store):
            names[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            names[sub.attr] += 1
        elif isinstance(sub, ast.ImportFrom):
            names.update(alias.name for alias in sub.names)
    return names


def _unreferenced_privates(trees: dict[str, ast.Module]) -> list[str]:
    """``module.name`` of each module-level function, class or constant of
    ``trees`` whose name starts with one ``_`` and that no module references
    outside its own definition."""
    everywhere = sum(map(_references, trees.values()), Counter())
    found = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            own = _references(node)
            found += [f"{module}.{name}" for name in names
                      if name.startswith("_") and not name.startswith("__")
                      and everywhere[name] == own[name]]
    return found


def test_the_scan_finds_an_unreferenced_private_name():
    trees = {
        "a": ast.parse(
            "def _used(): pass\n"
            "def _dead(): pass\n"
            "def _recursive(n): return _recursive(n - 1)\n"
            "def _by_attribute(): pass\n"
            "_CONST = 1\n"
            "_IMPORTED: int = 2\n"
            "class _Gone: pass\n"
            "__all__ = []\n"
            "def public(): return _used()\n"
        ),
        "b": ast.parse("from .a import _IMPORTED\nfrom . import a\nx = a._by_attribute\n"),
    }
    assert _unreferenced_privates(trees) == ["a._dead", "a._recursive", "a._CONST", "a._Gone"]


def test_every_private_name_is_referenced():
    trees = {p.stem: ast.parse(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))}
    assert _unreferenced_privates(trees) == []


MODULES = {p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__"}


def _bench_names(tree: ast.Module) -> set[str]:
    """The package names a benchmark file looks up: ``q.<module>.<name>``
    (``q`` is the namespace of freshly imported modules), ``qfalab.<name>``
    and ``qfalab.<module>.<name>``, each as ``"<module>.<name>"`` or, for
    the package itself, ``"<name>"``; and the construction names of
    ``_late(c, "<name>")`` calls, as ``"constructions.<name>"``."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_late":
            found.add(f"constructions.{node.args[1].value}")
        if not isinstance(node, ast.Attribute):
            continue
        chain = []
        while isinstance(node, ast.Attribute):
            chain.insert(0, node.attr)
            node = node.value
        if not isinstance(node, ast.Name) or node.id not in ("q", "qfalab"):
            continue
        if chain[0] in MODULES:
            if len(chain) > 1:
                found.add(f"{chain[0]}.{chain[1]}")
        elif node.id == "qfalab":
            found.add(chain[0])
    return found


def test_the_scan_finds_the_benchmarks_names():
    tree = ast.parse(
        "x = q.cutpoint.CutpointSpec(0.0, 'greater')\n"
        "y = q.numeric.Matrix.rational([[1]])\n"
        "c = q.constructions\n"
        "z = _late(c, 'gpfa_star', g)\n"
        "qfalab.classify_value(v, s)\n"
        "qfalab.constructions.gpfa_quotient(g, '', 'up')\n"
        "qfalab.cli\n"
        "other.cutpoint.gone\n"
    )
    assert _bench_names(tree) == {
        "cutpoint.CutpointSpec", "numeric.Matrix", "constructions.gpfa_star", "classify_value",
        "constructions.gpfa_quotient",
    }


@pytest.mark.skipif(not BENCH.is_dir(), reason="no bench/ beside the tests")
def test_every_name_the_benchmark_looks_up_exists():
    """Deleting or renaming a name the benchmark calls would leave the
    package's tests passing and the benchmark unable to run."""
    names = set().union(*(_bench_names(ast.parse(p.read_text())) for p in BENCH.rglob("*.py")))
    assert {"cutpoint.classify_value", "constructions.gpfa_union", "CutpointSpec"} <= names
    missing = []
    for name in sorted(names):
        module, _, attr = name.rpartition(".")
        owner = importlib.import_module(f"qfalab.{module}") if module else qfalab
        if not hasattr(owner, attr):
            missing.append(name)
    assert missing == []
