"""REP009 — registry member module unreachable from its registry.

A plugin surface such as the lint rule set registers by import side
effect: a module calls ``@register`` at import time, and the package
``__init__`` imports every member so the registrations run.  The
failure mode is silent: a new ``rep*.py`` that never gets added to the
``__init__`` import list simply does not exist.  No error, no test
failure, just a rule that never runs.  (``repro.experiments`` is not a
registry in this sense: it names its modules in a static table and
imports one on demand, and a test holds the table to the files on
disk.)

Phase 2 walks the project import graph from each registry package's
``__init__`` and flags member modules (direct children matching the
registry's filename pattern) that no reachable module imports.  The
rule stays silent when the registry ``__init__`` itself is outside the
analyzed file set, so linting a single file never fabricates orphans.
Registries default to the lint rule set and extend via
``[tool.repro-lint.registries]`` in pyproject.
"""

from __future__ import annotations

import fnmatch
from typing import TYPE_CHECKING, Iterator

from ..findings import Finding
from ..registry import ProgramRule, register

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..callgraph import ProjectGraph

__all__ = ["OrphanedRegistration", "DEFAULT_REGISTRIES"]

#: registry package → fnmatch pattern of member module filenames
DEFAULT_REGISTRIES: dict[str, str] = {"repro.lint.rules": "rep*"}


@register
class OrphanedRegistration(ProgramRule):
    id = "REP009"
    name = "orphaned-registration"
    summary = (
        "Registry member module on disk but unreachable from its "
        "registry __init__"
    )
    rationale = (
        "Registration-by-import means a plugin module the "
        "registry package never imports silently does not exist: its "
        "@register decorator never runs.  Reachability from the "
        "registry __init__ over project import edges is the ground "
        "truth for 'will this plugin load'."
    )
    default_paths = ()

    def check_program(self, program: "ProjectGraph") -> Iterator[Finding]:
        for package, pattern in sorted(program.registries.items()):
            if package not in program.modules:
                continue  # registry not in the analyzed set: no verdict
            reachable = program.reachable_from(package)
            prefix = package + "."
            for module in sorted(program.modules):
                if not module.startswith(prefix):
                    continue
                summary = program.modules[module]
                basename = module[len(prefix) :]
                if (
                    "." in basename
                    or summary.is_package
                    or not fnmatch.fnmatch(basename, pattern)
                    or module in reachable
                ):
                    continue
                yield Finding(
                    path=summary.path,
                    line=1,
                    col=1,
                    rule=self.id,
                    message=(
                        f"module `{module}` matches registry pattern "
                        f"`{pattern}` of `{package}` but is unreachable "
                        "from the registry __init__; its registrations "
                        "never run"
                    ),
                    snippet=summary.first_line,
                )
