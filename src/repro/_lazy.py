"""Package exports resolved on first access (PEP 562).

A package whose ``__init__`` imports every submodule makes each process
pay for all of them, although most processes run one.  Instead the
package names where each public name lives and binds the result of
:func:`lazy_exports` as its module-level ``__getattr__``::

    __getattr__ = lazy_exports(__name__, {"Task": "model", ...})

The first ``pkg.Task`` (or ``from pkg import Task``) imports
``pkg.model`` and caches ``Task`` in the package namespace, so later
lookups never reach ``__getattr__``.  A submodule the table names
resolves as an attribute too, as it would after an eager import.  An
``if TYPE_CHECKING:`` block of the real imports keeps the names visible
to type checkers and IDEs.

A package may not do this when one of its exports shares its name with
a submodule that defines it: ``repro.core`` exports the functions
``dbf`` and ``partition`` from the submodules ``dbf`` and
``partition``.  Its eager ``from .dbf import dbf`` rebinds the name to
the function after the submodule import binds the module; resolved
lazily, ``repro.core.dbf`` would be the module or the function
depending on import order.  So ``repro.core`` stays eager.
"""

from __future__ import annotations

import sys
from importlib import import_module
from typing import Any, Callable, Mapping

__all__ = ["lazy_exports"]


def lazy_exports(package: str, exports: Mapping[str, str]) -> Callable[[str], Any]:
    """A module ``__getattr__`` for ``package``: each name in ``exports``
    is fetched from the submodule it maps to, each of those submodules
    resolves to itself, and any other name raises ``AttributeError``
    (which is also how ``from package import other_submodule`` falls
    back to importing it)."""
    submodules = frozenset(exports.values())

    def __getattr__(name: str) -> Any:
        module = exports.get(name)
        if module is not None:
            value = getattr(import_module(f".{module}", package), name)
        elif name in submodules:
            value = import_module(f".{name}", package)
        else:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        setattr(sys.modules[package], name, value)
        return value

    return __getattr__
