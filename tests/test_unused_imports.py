"""No module in ``src/`` or ``tests/`` imports a name it never uses,
imports again inside a function a name it imports at top level, or
assigns a local variable it never reads.

CI's ``ruff check`` (rules ``F401``, ``F811`` and ``F841``) enforces
the same, but only where ruff is installed; these AST scans run with
tier-1 everywhere.  A name counts as used when it appears as an identifier
anywhere in its module, inside a string annotation, or in ``__all__``.
Package ``__init__`` modules re-export what they import and are exempt,
as is any import line carrying ``noqa: F401`` (unused) or ``noqa: F811``
(redefined).  A top-level import under ``if TYPE_CHECKING:`` binds
nothing at run time, so a function may import the same name.  A local
is a name a function binds by assignment, walrus, ``with ... as`` or
``except ... as``; it counts as read when the function (or a function
nested in it) loads it, and names starting with ``_`` or declared
``global``/``nonlocal`` are exempt.  Tuple unpacking is not checked.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(
    path
    for tree in ("src", "tests")
    for path in (ROOT / tree).rglob("*.py")
    if path.name != "__init__.py"
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
