"""No module in ``src/`` or ``tests/`` imports a name it never uses.

CI's ``ruff check`` (rule ``F401``) enforces the same, but only where
ruff is installed; this AST scan runs with tier-1 everywhere.  A name
counts as used when it appears as an identifier anywhere in its module,
inside a string annotation, or in ``__all__``.  Package ``__init__``
modules re-export what they import and are exempt, as is any import
line carrying ``noqa: F401``.
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


def _imported(tree: ast.Module, lines: list[str]) -> dict[str, int]:
    """Bound name → line of every import in ``tree`` not marked noqa."""
    bound: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [(a.asname or a.name.split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names = [a.asname or a.name for a in node.names if a.name != "*"]
        else:
            continue
        statement = "\n".join(lines[node.lineno - 1 : node.end_lineno])
        if "noqa: F401" not in statement:
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
