"""No module in ``src/`` or ``tests/`` imports a name it never uses,
imports again inside a function a name it imports at top level, binds a
module- or class-level ``def``/``class`` name twice with no use in
between, assigns a local variable it never reads, or reads a name that
nothing binds; and no top-level function anywhere in the repository
goes unreferenced.

CI's ``ruff check`` (rules ``F401``, ``F811``, ``F841`` and ``F821``)
enforces the first five, but only where ruff is installed; these scans
run with tier-1 everywhere, so undefined names are no longer a CI-only
check.  A name counts as used when it appears as an identifier
anywhere in its module, inside a string annotation, or in ``__all__``.
Package ``__init__`` modules re-export what they import and are exempt,
as is any import line carrying ``noqa: F401`` (unused) or ``noqa: F811``
(redefined).  A top-level import under ``if TYPE_CHECKING:`` binds
nothing at run time, so a function may import the same name.  A local
is a name a function binds by assignment, walrus, ``with ... as`` or
``except ... as``; it counts as read when the function (or a function
nested in it) loads it, and names starting with ``_`` or declared
``global``/``nonlocal`` are exempt.  Tuple unpacking is not checked.

A redefinition is a ``def`` or ``class`` statement directly in a module
or class body whose name a later statement of that same body binds
again (``def``, ``class``, assignment or import) with no load of the
name in between; the second statement's decorators, default values,
bases and right-hand side count as in between, so ``@f.setter`` and
``f = wrap(f)`` are uses.  ``@overload`` stubs are exempt.

An undefined name is one that some scope reads (module, function,
class, method, lambda or comprehension) where the compiler's symbol
table resolves it to the module's globals, but the module binds it
nowhere (no assignment, import, ``def``/``class``, nor a ``global``
declaration that a function assigns) and it is no builtin.  The symbol
table is static, so a name bound only on some branch, or only under
``if TYPE_CHECKING:``, counts as bound.

An unreferenced function is a top-level, undecorated ``def`` in
``src/``, ``tests/``, ``benchmarks/`` or ``examples/`` whose name no
module there mentions: as an identifier, an attribute, an imported
name, or inside a string (``__all__``, a quoted annotation, a
``getattr`` target).  Test functions, ``pytest_*`` hooks and dunders
are called by their frameworks and are exempt; so is
``tests/fixtures/``, which holds deliberately bad code.
"""

from __future__ import annotations

import ast
import builtins
import symtable
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(
    path
    for tree in ("src", "tests")
    for path in (ROOT / tree).rglob("*.py")
    if path.name != "__init__.py"
)
#: every module whose references count, and whose functions must have one
REPO_MODULES = sorted(
    path
    for tree in ("src", "tests", "benchmarks", "examples")
    for path in (ROOT / tree).rglob("*.py")
    if "fixtures" not in path.relative_to(ROOT / tree).parts
)


def _bound(node: ast.AST) -> list[str]:
    """The names an import statement binds; none for any other node."""
    if isinstance(node, ast.Import):
        return [(a.asname or a.name.split(".")[0]) for a in node.names]
    if isinstance(node, ast.ImportFrom) and node.module != "__future__":
        return [a.asname or a.name for a in node.names if a.name != "*"]
    return []


def _marked(node: ast.AST, lines: list[str], code: str) -> bool:
    statement = "\n".join(lines[node.lineno - 1 : node.end_lineno])
    return f"noqa: {code}" in statement


def _imported(tree: ast.Module, lines: list[str]) -> dict[str, int]:
    """Bound name → line of every import in ``tree`` not marked noqa."""
    bound: dict[str, int] = {}
    for node in ast.walk(tree):
        names = _bound(node)
        if names and not _marked(node, lines, "F401"):
            for name in names:
                bound.setdefault(name, node.lineno)
    return bound


def _used(tree: ast.Module) -> set[str]:
    """Identifiers read anywhere in ``tree``, string annotations and
    ``__all__`` included."""
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            # a quoted annotation ("ShardedFrontend") or an __all__ entry
            try:
                expr = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            used.update(n.id for n in ast.walk(expr) if isinstance(n, ast.Name))
    return used


def unused_imports(path: Path) -> list[str]:
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source, filename=str(path))
    used = _used(tree)
    return [
        f"{path.relative_to(ROOT)}:{line} `{name}`"
        for name, line in _imported(tree, source.splitlines()).items()
        if name not in used
    ]


def _is_type_checking(node: ast.stmt) -> bool:
    return isinstance(node, ast.If) and ast.unparse(node.test) in (
        "TYPE_CHECKING",
        "typing.TYPE_CHECKING",
    )


def _top_level_imports(body: list[ast.stmt]) -> set[str]:
    """Names bound at run time by imports outside every function and
    class, ``if``/``try`` blocks included."""
    bound: set[str] = set()
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        if _is_type_checking(node):
            bound |= _top_level_imports(node.orelse)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update(_bound(node))
        else:
            for field in ("body", "orelse", "finalbody", "handlers"):
                bound |= _top_level_imports(getattr(node, field, []))
    return bound


def _redefined(tree: ast.Module, lines: list[str]) -> list[tuple[int, str]]:
    """(line, name) of every function-level import, not marked noqa,
    that binds a name the module imports at top level."""
    top = _top_level_imports(tree.body)
    found = set()
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(func):
            names = _bound(node)
            if names and not _marked(node, lines, "F811"):
                found.update((node.lineno, name) for name in names if name in top)
    return sorted(found)


def redefined_imports(path: Path) -> list[str]:
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source, filename=str(path))
    return [
        f"{path.relative_to(ROOT)}:{line} `{name}`"
        for line, name in _redefined(tree, source.splitlines())
    ]


def test_scanner_flags_an_unused_import():
    tree = "import os\nfrom typing import Any, TYPE_CHECKING\nx: 'Any' = 1\n"
    module = ast.parse(tree)
    assert sorted(set(_imported(module, tree.splitlines())) - _used(module)) == [
        "TYPE_CHECKING",
        "os",
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path) == []


def test_scanner_flags_a_redefined_import():
    source = (
        "import json\n"
        "from typing import TYPE_CHECKING\n"
        "if TYPE_CHECKING:\n"
        "    from pathlib import Path\n"
        "def f():\n"
        "    import json\n"
        "    from pathlib import Path\n"
        "    def g():\n"
        "        from os import sep as json\n"
        "        import csv  # noqa: F811\n"
        "    return json, Path, g\n"
        "import csv\n"
    )
    assert _redefined(ast.parse(source), source.splitlines()) == [(6, "json"), (9, "json")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_redefined_imports(path):
    assert redefined_imports(path) == []


def _unused_locals(tree: ast.Module) -> list[tuple[int, str]]:
    """(line, name) of every local a function binds and never reads."""
    found = set()
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        stored: dict[str, int] = {}
        read: set[str] = set()
        for node in ast.walk(func):
            targets: list[ast.expr | None] = []
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, (ast.Global, ast.Nonlocal)):
                read.update(node.names)
            elif isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AnnAssign, ast.AugAssign)) and node.value:
                targets = [node.target]
            elif isinstance(node, ast.NamedExpr):
                targets = [node.target]
            elif isinstance(node, (ast.With, ast.AsyncWith)):
                targets = [item.optional_vars for item in node.items]
            elif isinstance(node, ast.ExceptHandler) and node.name:
                stored.setdefault(node.name, node.lineno)
            for target in targets:
                if isinstance(target, ast.Name):
                    stored.setdefault(target.id, node.lineno)
        found.update(
            (line, name)
            for name, line in stored.items()
            if name not in read and not name.startswith("_")
        )
    return sorted(found)


def unused_locals(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return [
        f"{path.relative_to(ROOT)}:{line} `{name}`"
        for line, name in _unused_locals(tree)
    ]


def test_scanner_flags_an_unused_local():
    source = (
        "def f(xs):\n"
        "    total = 0\n"
        "    dead = len(xs)\n"
        "    _skip = 1\n"
        "    with open(xs) as fh:\n"
        "        pass\n"
        "    try:\n"
        "        pass\n"
        "    except ValueError as exc:\n"
        "        pass\n"
        "    a, b = xs\n"
        "    def g():\n"
        "        nonlocal total\n"
        "        total += 1\n"
        "    if (n := len(xs)):\n"
        "        return g\n"
    )
    assert _unused_locals(ast.parse(source)) == [
        (3, "dead"), (5, "fh"), (9, "exc"), (15, "n"),
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_locals(path):
    assert unused_locals(path) == []


def _body_bindings(node: ast.stmt) -> list[str]:
    """Names a statement directly in a module or class body binds."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        return [t.id for t in node.targets if isinstance(t, ast.Name)]
    if isinstance(node, ast.AnnAssign) and node.value is not None:
        return [node.target.id] if isinstance(node.target, ast.Name) else []
    return _bound(node)


def _evaluated_first(node: ast.stmt) -> list[ast.AST]:
    """The parts of a binding statement that run before it binds."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        args = node.args
        return [*node.decorator_list, *args.defaults, *args.kw_defaults]
    if isinstance(node, ast.ClassDef):
        return [*node.decorator_list, *node.bases, *node.keywords]
    if isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None:
        return [node.value]
    return []


def _loads(nodes: list[ast.AST]) -> set[str]:
    return {
        n.id
        for node in nodes
        if node is not None
        for n in ast.walk(node)
        if isinstance(n, ast.Name)
    }


def _is_overload(node: ast.stmt) -> bool:
    return isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(
        ast.unparse(d) in ("overload", "typing.overload") for d in node.decorator_list
    )


def _redefined_defs(tree: ast.Module) -> list[tuple[int, str]]:
    """(line, name) of every module- or class-level ``def``/``class``
    rebound later in the same body with no use in between."""
    found = []
    bodies = [tree.body] + [
        node.body for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
    ]
    for body in bodies:
        for k, node in enumerate(body):
            if not isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ) or _is_overload(node):
                continue
            for later in body[k + 1 :]:
                if node.name in _loads(_evaluated_first(later)):
                    break
                if node.name in _body_bindings(later):
                    found.append((node.lineno, node.name))
                    break
                if node.name in _loads([later]):
                    break
    return sorted(found)


def redefined_defs(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return [
        f"{path.relative_to(ROOT)}:{line} `{name}`"
        for line, name in _redefined_defs(tree)
    ]


def test_scanner_flags_a_redefined_def():
    source = (
        "def f():\n"
        "    pass\n"
        "def f():\n"  # 3: f never used in between
        "    pass\n"
        "class C:\n"
        "    def m(self): ...\n"
        "    x = m\n"
        "    def m(self): ...\n"  # used in between: fine
        "    @property\n"
        "    def p(self): ...\n"
        "    @p.setter\n"
        "    def p(self, v): ...\n"  # the decorator uses p
        "    class Inner: ...\n"
        "    Inner = 1\n"  # 14 rebinds the class
        "def g(): ...\n"
        "g = wrap(g)\n"
        "from typing import overload\n"
        "@overload\n"
        "def h(x: int) -> int: ...\n"
        "def h(x): ...\n"
        "if flag:\n"
        "    def k(): ...\n"
        "else:\n"
        "    def k(): ...\n"
    )
    assert _redefined_defs(ast.parse(source)) == [(1, "f"), (13, "Inner")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_redefined_defs(path):
    assert redefined_defs(path) == []


#: names every module can read without binding them
_PREDEFINED = set(dir(builtins)) | {"__file__", "__path__", "__builtins__", "__cached__"}


def _scopes(table: symtable.SymbolTable) -> list[symtable.SymbolTable]:
    """``table`` and every scope nested in it."""
    return [table] + [s for child in table.get_children() for s in _scopes(child)]


def _undefined(source: str, filename: str = "<module>") -> list[tuple[int, str]]:
    """(line of the reading scope, name) of every name read as a global
    that the module never binds and that is no builtin."""
    module = symtable.symtable(source, filename, "exec")
    scopes = _scopes(module)
    bound = {
        sym.get_name()
        for scope in scopes
        for sym in scope.get_symbols()
        if (scope is module or sym.is_declared_global())
        and (sym.is_assigned() or sym.is_imported() or sym.is_namespace())
    }
    return sorted({
        (scope.get_lineno(), sym.get_name())
        for scope in scopes
        for sym in scope.get_symbols()
        if sym.is_referenced()
        and (scope is module or sym.is_global())
        and sym.get_name() not in bound | _PREDEFINED
    })


def undefined_names(path: Path) -> list[str]:
    return [
        f"{path.relative_to(ROOT)}:{line} `{name}`"
        for line, name in _undefined(path.read_text(encoding="utf-8"), str(path))
    ]


def test_scanner_flags_an_undefined_name():
    source = (
        "import os\n"
        "from typing import TYPE_CHECKING\n"
        "if TYPE_CHECKING:\n"
        "    from pathlib import Path\n"
        "try:\n"
        "    import tomllib\n"
        "except ImportError:\n"
        "    tomllib = None\n"
        "print(len(os.sep), at_module)\n"  # read by the module (line 0)
        "def f(x, *args, **kw):\n"
        "    global counter\n"
        "    counter = x\n"
        "    total = sum(y for y in args if y > x) + in_function\n"  # by f (10)
        "    def inner():\n"
        "        return total, kw, __file__, tomllib\n"
        "    return inner, lambda z: z + in_lambda\n"  # by the lambda (16)
        "class C(Base):\n"  # a base is read by the module
        "    size = 3\n"
        "    twice = size * 2 + in_class\n"  # by the class body (17)
        "    def m(self) -> 'Path':\n"
        "        return counter, [q for q in in_method], size_unbound\n"  # by m (20)
        "    def n(self):\n"
        "        return super().__init__(), C, self.size, __name__\n"
    )
    assert _undefined(source) == [
        (0, "Base"),
        (0, "at_module"),
        (10, "in_function"),
        (16, "in_lambda"),
        (17, "in_class"),
        (20, "in_method"),
        (20, "size_unbound"),
    ]


@pytest.mark.parametrize(
    "path",
    sorted(
        p for tree in ("src", "tests") for p in (ROOT / tree).rglob("*.py")
    ),
    ids=lambda p: str(p.relative_to(ROOT)),
)
def test_no_undefined_names(path):
    assert undefined_names(path) == []


def _mentions(tree: ast.Module) -> set[str]:
    """Every name a module mentions: identifiers, attributes, imported
    names, and names inside string constants."""
    found: set[str] = set()
    exprs: list[ast.AST] = [tree]
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                exprs.append(ast.parse(node.value, mode="eval"))
            except SyntaxError:
                continue
    for expr in exprs:
        for node in ast.walk(expr):
            if isinstance(node, ast.Name):
                found.add(node.id)
            elif isinstance(node, ast.Attribute):
                found.add(node.attr)
            elif isinstance(node, ast.alias):
                found.add(node.name.rsplit(".", 1)[-1])
    return found


def _unreferenced(trees: dict[str, ast.Module]) -> list[str]:
    """``where:line `name``` of every top-level, undecorated function no
    module in ``trees`` mentions."""
    mentioned: set[str] = set()
    for tree in trees.values():
        mentioned |= _mentions(tree)
    found = []
    for where, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            name = node.name
            if (
                node.decorator_list
                or name.startswith(("test_", "pytest_"))
                or (name.startswith("__") and name.endswith("__"))
            ):
                continue
            if name not in mentioned:
                found.append(f"{where}:{node.lineno} `{name}`")
    return found


def test_scanner_flags_an_unreferenced_function():
    trees = {
        "a.py": ast.parse(
            "__all__ = ['public']\n"
            "def public(): ...\n"
            "def dead(): ...\n"
            "def called(): ...\n"
            "def by_attribute(): ...\n"
            "def by_string(): ...\n"
            "@register\n"
            "def registered(): ...\n"
            "def test_case(): ...\n"
            "def __getattr__(name): ...\n"
        ),
        "b.py": ast.parse(
            "from a import called\n"
            "import a\n"
            "a.by_attribute()\n"
            "getattr(a, 'by_string')\n"
            "def helper(): dead_too()\n"
        ),
    }
    assert _unreferenced(trees) == ["a.py:3 `dead`", "b.py:5 `helper`"]


def test_no_unreferenced_functions():
    trees = {
        str(path.relative_to(ROOT)): ast.parse(
            path.read_text(encoding="utf-8"), filename=str(path)
        )
        for path in REPO_MODULES
    }
    assert _unreferenced(trees) == []
