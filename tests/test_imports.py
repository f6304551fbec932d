"""Every name a ``qfalab`` module imports is used in that module,
``constructions`` imports no evaluator from ``automata``, each module
imports only modules of lower layers, no module imports
``dataclasses``, no function in a module is a pure pass-through of another,
no class in it is a namespace of static methods, no class but
``numeric.Record`` defines assignment, deletion, equality or hashing, every
private module-level name is referenced somewhere in the package, every
package name the benchmark under ``bench/`` looks up exists, every name its
tracer wraps exists but for six already gone, and ``cli`` prints a report
only through ``_emit`` and ``main``."""

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


# What ``constructions`` may take from ``automata``: machine types, markers
# and word aliases.  A construction builds a machine and never runs one.
MACHINE_NAMES = {"CENT", "DOLLAR", "MARKERS", "Gpfa", "Kwqfa", "Mcqfa", "Pfa", "Word", "WordLike"}


def _imports_from(tree: ast.Module, module: str) -> set[str]:
    """Names imported from the package module ``module``, relatively or by
    its full name, and ``module`` itself for a plain ``import``."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module in (module, f"qfalab.{module}"):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module in (None, "qfalab"):
            found.update(alias.name for alias in node.names if alias.name == module)
        elif isinstance(node, ast.Import):
            found.update(module for alias in node.names if alias.name == f"qfalab.{module}")
    return found


def test_the_scan_finds_names_imported_from_a_module():
    tree = ast.parse(
        "from .automata import Gpfa, stepper as s\n"
        "from qfalab.automata import prefix_levels\n"
        "from . import automata, numeric\n"
        "import qfalab.automata\n"
        "from .numeric import mat_mul\n"
    )
    assert _imports_from(tree, "automata") == {"Gpfa", "stepper", "prefix_levels", "automata"}


def test_constructions_import_no_evaluator():
    tree = ast.parse((PACKAGE / "constructions.py").read_text())
    assert _imports_from(tree, "automata") - MACHINE_NAMES == set()


# The package's layers, lowest first: a module imports only modules of lower
# layers, so words and oracles sit under machines, machines under the
# constructions and cutpoint checks, and those under ``verify`` and ``cli``.
# ``__init__`` gathers the public names from every layer.
LAYERS = [{"numeric"}, {"languages"}, {"automata"}, {"constructions", "cutpoint"}, {"verify"},
          {"cli"}]


def _layering_faults(trees: dict[str, ast.Module]) -> list[str]:
    """``"<module> imports <other>"`` for each package module ``other`` that
    a module of ``trees`` imports although ``other``'s layer is not below
    its own."""
    layer = {module: i for i, modules in enumerate(LAYERS) for module in modules}
    return [f"{name} imports {other}" for name, tree in trees.items() for other in sorted(layer)
            if other != name and layer[other] >= layer[name] and _imports_from(tree, other)]


def test_the_scan_finds_an_import_against_the_layers():
    trees = {
        "numeric": ast.parse("import math\n"),
        "languages": ast.parse("from .numeric import Record\nfrom .automata import Word\n"),
        "automata": ast.parse("from . import languages, numeric\n"),
        "constructions": ast.parse("from qfalab.cutpoint import cell_test\n"),
        "cutpoint": ast.parse("import qfalab.automata\nfrom .languages import Word\n"),
        "verify": ast.parse("def f():\n    from .cli import main\n"),
        "cli": ast.parse("from . import numeric\nfrom .verify import dieu_violation\n"),
    }
    assert _layering_faults(trees) == [
        "languages imports automata", "constructions imports cutpoint", "verify imports cli",
    ]


def test_each_module_imports_only_lower_layers():
    trees = {p.stem: ast.parse(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))
             if p.stem != "__init__"}
    assert set(trees) == set().union(*LAYERS)
    assert _layering_faults(trees) == []


def _imported_modules(tree: ast.Module) -> set[str]:
    """The top-level names of the modules ``tree`` imports by absolute
    name."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            found.add(node.module.partition(".")[0])
    return found


def test_the_scan_finds_imported_modules():
    tree = ast.parse(
        "import dataclasses as dc\n"
        "from dataclasses import field\n"
        "import os.path, re\n"
        "from importlib.util import find_spec\n"
        "from .numeric import Record\n"
        "from . import automata\n"
        "def f():\n    import json\n"
    )
    assert _imported_modules(tree) == {"dataclasses", "os", "re", "importlib", "json"}


def test_no_module_imports_dataclasses():
    """Records are ``numeric.Record``s: a dataclass generates and ``exec``s
    its methods at import, and ``dataclasses`` itself imports ``inspect``."""
    trees = {p.stem: ast.parse(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))}
    assert [name for name, tree in trees.items() if "dataclasses" in _imported_modules(tree)] == []


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


# What makes a value immutable and compared by value: written once, in
# ``numeric.Record``, the base of every value type.
IMMUTABILITY = ("__setattr__", "__delattr__", "__eq__", "__hash__")


def _immutability_methods(tree: ast.Module) -> list[str]:
    """``Class.name`` for each name of ``IMMUTABILITY`` a class body defines,
    by ``def`` or by assignment."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        for item in node.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names = [item.name]
            elif isinstance(item, (ast.Assign, ast.AnnAssign)):
                targets = item.targets if isinstance(item, ast.Assign) else [item.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            found += [f"{node.name}.{name}" for name in names if name in IMMUTABILITY]
    return found


def test_the_scan_finds_a_second_immutable_base():
    tree = ast.parse(
        "class Record:\n    def __setattr__(self, n, v):\n        pass\n"
        "    def __eq__(self, o):\n        pass\n"
        "class Entries:\n    __slots__ = ('entries',)\n    __hash__ = None\n"
        "    def __delattr__(self, n):\n        pass\n"
        "class Plain:\n    def __repr__(self):\n        return ''\n    eq = 1\n"
        "    class Inner:\n        def __hash__(self):\n            return 0\n"
        "def __eq__(a, b):\n    pass\n"
    )
    assert _immutability_methods(tree) == [
        "Record.__setattr__", "Record.__eq__", "Entries.__hash__", "Entries.__delattr__",
        "Inner.__hash__",
    ]


def test_record_is_the_one_immutable_base():
    found = [f"{p.stem}.{name}" for p in sorted(PACKAGE.glob("*.py"))
             for name in _immutability_methods(ast.parse(p.read_text()))]
    assert sorted(found) == sorted(f"numeric.Record.{name}" for name in IMMUTABILITY)


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


# The names ``bench/tracer.py`` wraps that the package no longer defines.  The
# tracer skips a missing name, so the metric it fed silently stops counting;
# a name joining these fails the test below instead.
GONE_FROM_THE_TRACER = {
    "numeric.mat_pow",
    "automata.gpfa_value",
    "automata.pfa_accept_prob",
    "automata.mcqfa_accept_prob",
    "constructions.extend_pfa",
    "constructions.unitary_complete",
}


def _traced_names(tree: ast.Module) -> set[str]:
    """The tracer's ``FUNCTIONS`` as ``"<module>.<name>"`` and its
    ``METHODS`` as ``"<module>.<class>.<attribute>"``, read as literals."""
    tables = {
        target.id: ast.literal_eval(node.value)
        for node in tree.body if isinstance(node, ast.Assign)
        for target in node.targets if getattr(target, "id", None) in ("FUNCTIONS", "METHODS")
    }
    functions = {f"{module}.{name}" for _, module, names in tables["FUNCTIONS"] for name in names}
    return functions | {".".join(entry[1:]) for entry in tables["METHODS"]}


@pytest.mark.skipif(not (BENCH / "tracer.py").is_file(), reason="no bench/tracer.py beside the tests")
def test_every_traced_name_exists_but_the_known_gone_ones():
    names = _traced_names(ast.parse((BENCH / "tracer.py").read_text()))
    assert {"constructions.pfa_to_nqfa", "automata.Gpfa.__post_init__"} <= names
    missing = set()
    for name in names:
        module, *path = name.split(".")
        owner = importlib.import_module(f"qfalab.{module}")
        for attr in path:
            owner = getattr(owner, attr, None)
        if owner is None:
            missing.add(name)
    assert missing <= GONE_FROM_THE_TRACER


# The one report path of ``cli``: only ``_emit`` and ``main`` print, and each
# command returns its exit code and its report for ``main`` to print.
PRINTERS = {"_emit", "main"}


def _own_nodes(func: ast.FunctionDef):
    """The nodes of ``func``'s body, without those of nested functions."""
    stack = list(func.body)
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            stack.extend(ast.iter_child_nodes(node))


def _report_path_faults(tree: ast.Module) -> list[str]:
    """Each module-level statement outside ``PRINTERS`` that calls ``print``,
    as ``"print in <name>"``, and each ``_cmd_*`` function that returns
    anything but a pair or does not end in a ``return``, as ``"<name>
    returns no pair"``."""
    def pair(node: ast.Return) -> bool:
        return isinstance(node.value, ast.Tuple) and len(node.value.elts) == 2

    found = []
    for node in tree.body:
        name = getattr(node, "name", "<module>")
        if name not in PRINTERS and any(
            isinstance(sub, ast.Call) and getattr(sub.func, "id", None) == "print"
            for sub in ast.walk(node)
        ):
            found.append(f"print in {name}")
        if isinstance(node, ast.FunctionDef) and name.startswith("_cmd_"):
            returns = [sub for sub in _own_nodes(node) if isinstance(sub, ast.Return)]
            if not isinstance(node.body[-1], ast.Return) or not all(map(pair, returns)):
                found.append(f"{name} returns no pair")
    return found


def test_the_scan_finds_a_second_report_path():
    tree = ast.parse(
        "def _emit(r):\n    print(r)\n"
        "def main():\n    print('error')\n    return 2\n"
        "def _cmd_ok(a):\n    def text(w):\n        return w\n"
        "    if a:\n        return 1, {}\n    return 0, {'w': text(a)}\n"
        "def _cmd_prints(a):\n    print(a)\n    return 0, {}\n"
        "def _cmd_code(a):\n    return 0\n"
        "def _cmd_early(a):\n    if a:\n        return 2\n    return 0, {}\n"
        "def _cmd_falls_off(a):\n    if a:\n        return 0, {}\n"
        "def _cmd_triple(a):\n    return 0, {}, a\n"
        "def helper():\n    f = lambda: print('x')\n"
        "print('top')\n"
    )
    assert _report_path_faults(tree) == [
        "print in _cmd_prints", "_cmd_code returns no pair", "_cmd_early returns no pair",
        "_cmd_falls_off returns no pair", "_cmd_triple returns no pair", "print in helper",
        "print in <module>",
    ]


def test_cli_prints_reports_only_through_emit_and_main():
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    commands = [node.name for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name.startswith("_cmd_")]
    assert len(commands) == 6
    assert _report_path_faults(tree) == []
