"""Every name a ``qfalab`` module imports is used in that module."""

import ast
from pathlib import Path

import pytest

import qfalab

PACKAGE = Path(qfalab.__file__).resolve().parent

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
