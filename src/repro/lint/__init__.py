"""``repro.lint`` — AST-based reproducibility lint for this codebase.

A ``ruff``-style static analyzer whose rules encode the numerical- and
determinism-discipline invariants the repository's empirical methodology
depends on (bit-reproducible acceptance-ratio campaigns, tolerance-
unified feasibility verdicts, lock-disciplined service state).  Every
rule is grounded in a bug class this repo has actually had; see
``docs/lint.md`` for the catalogue.

Layers
------
:mod:`~repro.lint.findings`
    The :class:`~repro.lint.findings.Finding` record and its
    line-drift-surviving fingerprint.
:mod:`~repro.lint.typeinfer`
    Heuristic per-scope type inference (float / float-sequence / set)
    that the rules query instead of guessing from spellings.
:mod:`~repro.lint.registry`
    The rule protocol (per-file and whole-program) and the ``REPxxx``
    registry.
:mod:`~repro.lint.summaries`
    Phase 1's interprocedural output: per-module summaries of imports,
    function facts (produces-float, derives-from-trial-seed, effects
    and mutations), and the pending sites phase 2 judges.
:mod:`~repro.lint.callgraph`
    Phase 2's project graph: import edges, cross-module call
    resolution, the float/seed/effect/unit fixpoints, the caller
    index, registry reachability.
:mod:`~repro.lint.cache`
    The incremental cache — content-hash keyed, invalidated
    transitively along the import graph.
:mod:`~repro.lint.rules`
    The fourteen domain rules, one per bug class: REP002-REP005 per
    file, the rest whole-program.
:mod:`~repro.lint.noqa`
    ``# repro: noqa[REPxxx]`` line suppressions and
    ``# repro: noqa-file[REPxxx]`` file pragmas, with unused-suppression
    tracking — the one way to accept a finding.
:mod:`~repro.lint.engine`
    Two-phase orchestration: the parallelizable, cacheable per-file
    phase, then the whole-program phase over the project graph, then
    suppressions on the merged findings.
:mod:`~repro.lint.reporters`
    text / JSON / SARIF 2.1.0 output.
:mod:`~repro.lint.selftest`
    Fault injection: plant one violation per rule, assert it is caught
    at the right file/line.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .callgraph import ProjectGraph
    from .config import LintConfig
    from .engine import (
        EngineStats,
        LintResult,
        lint_changed,
        lint_paths,
        lint_source,
        lint_sources,
    )
    from .findings import Finding
    from .registry import ProgramRule, Rule, all_rules, get_rule
    from .selftest import run_self_test

#: Names resolved on first access, so a process that only builds the
#: ``repro`` argument parser (``repro.lint.cli`` needs the format names)
#: never loads the analysis itself.
_LAZY = {
    "EngineStats": "engine",
    "Finding": "findings",
    "LintConfig": "config",
    "LintResult": "engine",
    "ProgramRule": "registry",
    "ProjectGraph": "callgraph",
    "Rule": "registry",
    "all_rules": "registry",
    "get_rule": "registry",
    "lint_changed": "engine",
    "lint_paths": "engine",
    "lint_source": "engine",
    "lint_sources": "engine",
    "run_self_test": "selftest",
}
__getattr__ = lazy_exports(__name__, _LAZY)

__all__ = [
    "EngineStats",
    "Finding",
    "LintConfig",
    "LintResult",
    "ProgramRule",
    "ProjectGraph",
    "Rule",
    "all_rules",
    "get_rule",
    "lint_changed",
    "lint_paths",
    "lint_source",
    "lint_sources",
    "run_self_test",
]
