"""Every name a module imports is used in it, and every module-level
function and class of the package is used somewhere.

A stdlib-only stand-in for a linter's unused-import rule: parse each module
of the package with ``ast`` and compare the names its imports bind with the
names it reads.  ``__init__.py`` is skipped, because it imports to re-export.
A function or class counts as used when a statement other than its own
definition, in the package or in the tests, names it.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "orbsemi"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
TESTS = sorted(Path(__file__).resolve().parent.glob("*.py"))


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_scanner_finds_an_unused_import():
    assert unused_imports("import os\nfrom a import b, c as d\nd()\n") == [
        (1, "os"), (2, "b")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []


def _names(node) -> set:
    """The names that ``node`` reads, imports or looks up as an attribute."""
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.ImportFrom):
            out.update(alias.name for alias in n.names)
    return out


def unreferenced_definitions(package: dict, others: list) -> list:
    """(module, name) of each module-level function or class in ``package``
    (module name -> source) that no other statement of ``package`` or of
    ``others`` (a list of sources) names."""
    trees = {module: ast.parse(src) for module, src in package.items()}
    statements = [stmt for tree in [*trees.values(), *map(ast.parse, others)]
                  for stmt in tree.body]
    named = [(stmt, _names(stmt)) for stmt in statements]
    return [(module, node.name) for module, tree in trees.items() for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not any(node.name in names for stmt, names in named if stmt is not node)]


def test_scanner_finds_an_unreferenced_definition():
    package = {"m": "def used(): pass\ndef dead(): dead()\nclass C: pass\nused()\n"}
    assert unreferenced_definitions(package, ["from m import C\n"]) == [("m", "dead")]


def test_every_definition_is_referenced():
    package = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert unreferenced_definitions(package, [p.read_text() for p in TESTS]) == []
