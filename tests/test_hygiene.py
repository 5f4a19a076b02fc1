"""Every name a module imports is used in it, every module-level function,
class and assigned name of the package is used somewhere, every attribute
that a method assigns on ``self`` is read somewhere, and every function
reads each of its parameters and each local name it assigns.

A stdlib-only stand-in for a linter's unused-import rule: parse each module
of the package with ``ast`` and compare the names its imports bind with the
names it reads.  ``__init__.py`` is skipped, because it imports to re-export.
A module-level name counts as used when a statement other than its own
definition, in the package or in the tests, names it.  Dunder names such as
``__all__`` are read by Python itself and are exempt.  An attribute counts
as read when the package, the tests or ``bench/`` load it from any object, or
hold its name as a string (``bench/tracing.py`` probes caches by name).  A
parameter counts as read when the function body, nested functions and
lambdas included, names it;
``self``, ``cls``, names starting with ``_``, dunder methods and abstract
methods are exempt, because their signatures are fixed by the protocol they
implement.  A local name counts as read likewise; ``_`` and names starting
with ``_`` are exempt, so that a loop or an unpacking can name a value it
drops.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "orbsemi"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
TESTS = sorted(Path(__file__).resolve().parent.glob("*.py"))
BENCH = sorted((Path(__file__).resolve().parents[1] / "bench").glob("*.py"))


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


def _dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _defined(stmt) -> list:
    """The names a module-level statement defines: a function, a class, or
    the plain names an assignment binds."""
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return [stmt.name]
    targets = (stmt.targets if isinstance(stmt, ast.Assign)
               else [stmt.target] if isinstance(stmt, ast.AnnAssign) else [])
    return [n.id for target in targets for n in ast.walk(target)
            if isinstance(n, ast.Name) and not _dunder(n.id)]


def unreferenced_definitions(package: dict, others: list) -> list:
    """(module, name) of each module-level function, class or assigned name
    in ``package`` (module name -> source) that no other statement of
    ``package`` or of ``others`` (a list of sources) names."""
    trees = {module: ast.parse(src) for module, src in package.items()}
    statements = [stmt for tree in [*trees.values(), *map(ast.parse, others)]
                  for stmt in tree.body]
    named = [(stmt, _names(stmt)) for stmt in statements]
    return [(module, name) for module, tree in trees.items() for node in tree.body
            for name in _defined(node)
            if not any(name in names for stmt, names in named if stmt is not node)]


def test_scanner_finds_an_unreferenced_definition():
    package = {"m": "def used(): pass\ndef dead(): dead()\nclass C: pass\nused()\n"}
    assert unreferenced_definitions(package, ["from m import C\n"]) == [("m", "dead")]


def test_scanner_finds_an_unused_assignment():
    package = {"m": "A = 1\nB: int = A\n__all__ = []\nC, D = 2, 3\n"}
    assert unreferenced_definitions(package, ["from m import C\n"]) == [
        ("m", "B"), ("m", "D")]


def test_every_definition_is_referenced():
    package = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert unreferenced_definitions(package, [p.read_text() for p in TESTS]) == []


def unread_attributes(package: dict, others: list) -> list:
    """(module, name) of each attribute that a method in ``package`` (module
    name -> source) assigns as ``self.<name>`` and that no source of
    ``package`` or of ``others`` (a list of sources) reads, as an attribute of
    any object or as a string."""
    trees = {module: ast.parse(src) for module, src in package.items()}
    read = set()
    for tree in [*trees.values(), *map(ast.parse, others)]:
        for n in ast.walk(tree):
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
                read.add(n.attr)
            elif isinstance(n, ast.Constant) and isinstance(n.value, str):
                read.add(n.value)
    return sorted({(module, n.attr) for module, tree in trees.items() for n in ast.walk(tree)
                   if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Store)
                   and isinstance(n.value, ast.Name) and n.value.id == "self"
                   and n.attr not in read})


def test_scanner_finds_an_unread_attribute():
    package = {"m": """
class C:
    def __init__(self):
        self.a, self.b = 1, 2
        self.c = self.d = 3
        self.e = 4
    def f(self, other):
        self.e += 1
        return self.a + other.d
"""}
    assert unread_attributes(package, ["getattr(x, 'c')\n"]) == [("m", "b"), ("m", "e")]


def test_every_attribute_is_read():
    package = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    others = [p.read_text() for p in [*TESTS, *BENCH]]
    assert unread_attributes(package, others) == []


def unread_parameters(source: str) -> list:
    """(line, function, parameter) for each parameter that its function never
    reads, outside the exemptions in the module docstring."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) or _dunder(node.name):
            continue
        if any("abstractmethod" in _names(d) for d in node.decorator_list):
            continue
        a = node.args
        params = [*a.posonlyargs, *a.args, *a.kwonlyargs, *filter(None, [a.vararg, a.kwarg])]
        read = {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
        out.extend((node.lineno, node.name, p.arg) for p in params
                   if p.arg not in read and p.arg not in ("self", "cls")
                   and not p.arg.startswith("_"))
    return sorted(out)


def test_scanner_finds_an_unread_parameter():
    source = """
class C:
    def m(self, a, b, _c):
        return lambda: a
    def __eq__(self, other):
        return True
    @abstractmethod
    def n(self, d):
        ...
def f(x, *args, y, **kw):
    def g():
        return x + y
    return g
"""
    assert unread_parameters(source) == [(3, "m", "b"), (10, "f", "args"), (10, "f", "kw")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_reads_every_parameter(path):
    assert unread_parameters(path.read_text()) == []


def _own_nodes(func):
    """The nodes of ``func``'s body outside nested functions and classes,
    whose names are not ``func``'s locals."""
    todo = list(func.body)
    while todo:
        node = todo.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef,
                                 ast.Lambda)):
            todo.extend(ast.iter_child_nodes(node))


def dead_locals(source: str) -> list:
    """(line, function, name) for each local name that a function assigns and
    that neither it nor a function nested in it reads, outside the exemptions
    in the module docstring."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        read = {n.id for n in ast.walk(node)
                if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store)}
        assigned, declared = {}, set()
        for n in _own_nodes(node):
            name = (n.id if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)
                    else n.name if isinstance(n, ast.ExceptHandler) else None)
            if name:
                assigned[name] = min(n.lineno, assigned.get(name, n.lineno))
            if isinstance(n, (ast.Global, ast.Nonlocal)):
                declared.update(n.names)
        out.extend((line, node.name, name) for name, line in assigned.items()
                   if name not in read and name not in declared
                   and not name.startswith("_"))
    return sorted(out)


def test_scanner_finds_a_dead_local():
    source = """
def f(xs):
    a, b, _c = 1, 2, 3
    for i in xs:
        pass
    for _ in xs:
        n = 0
        n += 1
    def g():
        d = [e for e in xs]
        return a
    return g
class C:
    k = 1
    def m(self):
        global G
        G = 2
        try:
            pass
        except ValueError as err:
            pass
"""
    assert dead_locals(source) == [
        (3, "f", "b"), (4, "f", "i"), (7, "f", "n"), (10, "g", "d"), (20, "m", "err")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_reads_every_local(path):
    assert dead_locals(path.read_text()) == []
