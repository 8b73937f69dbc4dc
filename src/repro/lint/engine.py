"""Two-phase lint orchestration.

Phase 1 — per file, embarrassingly parallel, cacheable:
parse → attach parents → type inference → per-file rules → noqa scan →
module summary.  The complete output for one file is a picklable
:class:`FileAnalysis`, which makes three execution strategies
interchangeable without changing results:

* in-process (``jobs=1``, the default — zero pool overhead);
* a process pool via :func:`repro.runner.executor.run_trials`, whose
  positional reduction guarantees the parallel run is bit-identical to
  the serial one;
* the incremental cache (:mod:`repro.lint.cache`), which replays a
  prior run's ``FileAnalysis`` for content-identical modules whose
  transitive project imports are also unchanged.

Phase 2 — whole program, always fresh: build the
:class:`~repro.lint.callgraph.ProjectGraph` from every module summary
and run the :class:`~repro.lint.registry.ProgramRule` set (REP001,
REP006, REP008-016) over it.  Phase 2 is a pure function of the
summaries — including the float, effect and unit fixpoints — so
caching phase 1 can never change interprocedural findings.

Suppression and sorting happen last, on the merged per-file + program
findings.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Mapping, Sequence

from .cache import LintCache, content_hash
from .callgraph import ProjectGraph
from .config import LintConfig
from .findings import Finding
from .noqa import NoqaScanner, Suppression, apply_suppressions
from .registry import FileContext, ProgramRule, Rule, all_rules, resolve_selection
from .summaries import ModuleSummary, build_module_summary

__all__ = [
    "EngineStats",
    "FileAnalysis",
    "LintResult",
    "lint_changed",
    "lint_paths",
    "lint_source",
    "lint_sources",
    "iter_python_files",
]

#: directories never descended into
_SKIP_DIRS = frozenset(
    {"__pycache__", ".git", ".venv", "venv", "node_modules", ".eggs", "build"}
)


@dataclass
class EngineStats:
    """How phase 1 was executed (the cache/parallelism audit trail)."""

    #: files in the run
    files: int = 0
    #: files actually analyzed this run
    analyzed: int = 0
    #: files replayed from the incremental cache
    cache_hits: int = 0
    #: files whose own content was unchanged but re-analyzed because a
    #: transitive project import changed
    cache_invalidated: int = 0
    #: worker processes used for the analyzed files
    jobs: int = 1
    #: rounds the phase-2 effect fixpoint took to converge (deterministic
    #: for a given program, so safe to expose in machine-readable output)
    fixpoint_iterations: int = 0
    #: rounds the phase-2 unit (return-dimension) fixpoint took — also
    #: a pure function of the summaries, deterministic across jobs/cache
    unit_fixpoint_iterations: int = 0
    #: wall-clock seconds per program rule, keyed by rule id — timing
    #: noise, so surfaced only by the CLI ``--stats`` line and kept out
    #: of :meth:`as_dict` (JSON output stays bit-identical across runs)
    rule_timings: dict[str, float] = field(default_factory=dict)

    def as_dict(self) -> dict[str, int]:
        return {
            "files": self.files,
            "analyzed": self.analyzed,
            "cache_hits": self.cache_hits,
            "cache_invalidated": self.cache_invalidated,
            "jobs": self.jobs,
            "fixpoint_iterations": self.fixpoint_iterations,
            "unit_fixpoint_iterations": self.unit_fixpoint_iterations,
        }


@dataclass
class FileAnalysis:
    """Phase 1's complete output for one file (picklable, cacheable)."""

    path: str
    #: sorted raw per-file-rule findings (pre-noqa)
    findings: list[Finding] = field(default_factory=list)
    #: pristine suppressions (``used`` flags are applied on fresh copies)
    suppressions: list[Suppression] = field(default_factory=list)
    summary: ModuleSummary | None = None
    #: parse/decode error message, mutually exclusive with the rest
    error: str | None = None


@dataclass
class LintResult:
    """Everything one lint run produced."""

    #: findings still active after noqa
    findings: list[Finding] = field(default_factory=list)
    #: findings silenced by inline/file noqa comments
    suppressed: int = 0
    #: noqa comments that matched nothing
    unused_suppressions: list[Suppression] = field(default_factory=list)
    #: files that failed to parse: (path, message)
    parse_errors: list[tuple[str, str]] = field(default_factory=list)
    #: number of files linted
    files: int = 0
    #: phase-1 execution accounting
    stats: EngineStats = field(default_factory=EngineStats)

    def exit_code(self, *, fail_on_unused: bool = False) -> int:
        if self.findings or self.parse_errors:
            return 1
        if fail_on_unused and self.unused_suppressions:
            return 1
        return 0


def attach_parents(tree: ast.AST) -> None:
    """Give every node a ``_repro_parent`` link (rules walk ancestry)."""
    for parent in ast.walk(tree):
        for child in ast.iter_child_nodes(parent):
            child._repro_parent = parent  # type: ignore[attr-defined]


def iter_python_files(paths: Sequence[Path], root: Path) -> list[Path]:
    """All ``.py`` files under ``paths`` (resolved against ``root``),
    sorted for deterministic report order."""
    out: set[Path] = set()
    for raw in paths:
        path = raw if raw.is_absolute() else root / raw
        if path.is_file() and path.suffix == ".py":
            out.add(path)
        elif path.is_dir():
            for sub in sorted(path.rglob("*.py")):
                if not any(part in _SKIP_DIRS for part in sub.parts):
                    out.add(sub)
    return sorted(out)


def _relpath(path: Path, root: Path) -> str:
    try:
        return path.resolve().relative_to(root.resolve()).as_posix()
    except ValueError:
        return path.as_posix()


# ---------------------------------------------------------------------------
# phase 1
# ---------------------------------------------------------------------------


def _file_rules(rules: Sequence[Rule]) -> list[Rule]:
    return [r for r in rules if not isinstance(r, ProgramRule)]


def _analyze_file(rel_path: str, source: str, config: LintConfig) -> FileAnalysis:
    """Run phase 1 on one file.  Never raises: errors become records."""
    try:
        tree = ast.parse(source)
    except SyntaxError as exc:
        return FileAnalysis(path=rel_path, error=str(exc))
    attach_parents(tree)
    ctx = FileContext(rel_path, source, tree)
    rules = _file_rules(list(resolve_selection(config.select, config.ignore).values()))
    findings: list[Finding] = []
    for rule in rules:
        if not rule.applies_to(rel_path, config.include_for(rule.id)):
            continue
        findings.extend(rule.check(ctx))
    return FileAnalysis(
        path=rel_path,
        findings=sorted(findings),
        suppressions=NoqaScanner(rel_path, source).suppressions,
        summary=build_module_summary(ctx),
    )


def _pool_analyze(item: tuple[str, str, LintConfig]) -> FileAnalysis:
    """Module-level per-trial function for the process pool."""
    rel_path, source, config = item
    return _analyze_file(rel_path, source, config)


def _run_phase1(
    sources: Mapping[str, str], config: LintConfig, jobs: int
) -> dict[str, FileAnalysis]:
    """Analyze every file, serially or over the runner's process pool.

    The pool path reuses :func:`repro.runner.executor.run_trials`, whose
    positional reduction makes worker completion order irrelevant — the
    parallel analyses land in the same order the serial loop would
    produce them, so downstream merging is bit-identical.
    """
    items = [(rel, sources[rel], config) for rel in sorted(sources)]
    if jobs == 1 or len(items) <= 1:
        return {rel: _analyze_file(rel, src, cfg) for rel, src, cfg in items}
    from repro.runner.executor import run_trials

    run = run_trials(_pool_analyze, items, jobs=jobs, label="lint-phase1")
    return {item[0]: analysis for item, analysis in zip(items, run.records)}


# ---------------------------------------------------------------------------
# phase 2
# ---------------------------------------------------------------------------


def _run_phase2(
    analyses: Mapping[str, FileAnalysis],
    config: LintConfig,
    stats: EngineStats | None = None,
) -> dict[str, list[Finding]]:
    """Program-rule findings grouped by path.

    Always computed fresh: the project graph is rebuilt from the (new or
    cached) summaries every run, so interprocedural verdicts can never
    go stale even when every file was a cache hit.  When ``stats`` is
    given, per-rule wall time and the effect fixpoint's iteration count
    are recorded on it for the ``--stats`` report.
    """
    from time import perf_counter

    summaries = [a.summary for a in analyses.values() if a.summary is not None]
    graph = ProjectGraph(summaries, config.registry_map())
    rules = resolve_selection(config.select, config.ignore).values()
    by_path: dict[str, list[Finding]] = {}
    for rule in rules:
        if not isinstance(rule, ProgramRule):
            continue
        started = perf_counter()
        for finding in rule.check_program(graph):
            if finding.path not in analyses:
                continue
            if not rule.applies_to(
                finding.path, config.include_for(rule.id)
            ):
                continue
            by_path.setdefault(finding.path, []).append(finding)
        if stats is not None:
            stats.rule_timings[rule.id] = perf_counter() - started
    if stats is not None:
        stats.fixpoint_iterations = graph.effect_iterations
        stats.unit_fixpoint_iterations = graph.unit_iterations
    return by_path


def _build_graph(
    analyses: Mapping[str, FileAnalysis], config: LintConfig
) -> ProjectGraph:
    summaries = [a.summary for a in analyses.values() if a.summary is not None]
    return ProjectGraph(summaries, config.registry_map())


# ---------------------------------------------------------------------------
# public entry points
# ---------------------------------------------------------------------------


def lint_source(
    source: str,
    virtual_path: str,
    config: LintConfig | None = None,
    *,
    apply_noqa: bool = True,
) -> list[Finding]:
    """Lint a source string as a one-module program.

    The backbone of the single-file fixture tests and the single-module
    half of the fault-injection self-test: both phases run, rule path
    scoping applies to the virtual path, no filesystem involved.  Calls into other modules stay unresolved — use
    :func:`lint_sources` for multi-module programs.
    """
    return lint_sources({virtual_path: source}, config, apply_noqa=apply_noqa)


def lint_sources(
    files: Mapping[str, str],
    config: LintConfig | None = None,
    *,
    apply_noqa: bool = True,
) -> list[Finding]:
    """Lint a set of in-memory modules as one whole program.

    Runs both phases — per-file rules and the whole-program rules —
    exactly like :func:`lint_paths`, but with no filesystem or cache.  This is how the multi-module fixtures and the
    planted-program self-test drive the analyzer.
    """
    config = config or LintConfig()
    analyses = {
        path: _analyze_file(path, source, config)
        for path, source in files.items()
    }
    for path, analysis in analyses.items():
        if analysis.error is not None:
            raise SyntaxError(f"{path}: {analysis.error}")
    program = _run_phase2(analyses, config)
    out: list[Finding] = []
    for path in sorted(analyses):
        analysis = analyses[path]
        findings = sorted(analysis.findings + program.get(path, []))
        if apply_noqa:
            findings = apply_suppressions(findings, analysis.suppressions)
        out.extend(findings)
    return sorted(out)


def _config_key(config: LintConfig) -> str:
    """Rule-selection fingerprint for the cache (see LintCache)."""
    return repr(
        (
            tuple(config.select) if config.select is not None else None,
            tuple(config.ignore) if config.ignore is not None else None,
            tuple(sorted((k, v) for k, v in config.rule_paths.items())),
        )
    )


def _gather_sources(
    paths: Sequence[Path | str], config: LintConfig
) -> tuple[dict[str, str], list[tuple[str, str]]]:
    """Read every file under ``paths``: (sources by rel path, read errors)."""
    sources: dict[str, str] = {}
    errors: list[tuple[str, str]] = []
    for path in iter_python_files([Path(p) for p in paths], config.root):
        rel_path = _relpath(path, config.root)
        try:
            sources[rel_path] = path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            errors.append((rel_path, str(exc)))
    return sources, errors


def _analyze_with_cache(
    sources: Mapping[str, str], config: LintConfig
) -> tuple[dict[str, FileAnalysis], EngineStats]:
    """Phase 1 over ``sources``, consulting the incremental cache."""
    from repro.runner.executor import resolve_jobs

    jobs = resolve_jobs(config.jobs)
    stats = EngineStats(files=len(sources), jobs=jobs)
    hashes = {rel: content_hash(src) for rel, src in sources.items()}
    cache = (
        LintCache(config.cache_path, _config_key(config))
        if config.cache_path is not None
        else None
    )
    analyses: dict[str, FileAnalysis] = {}
    if cache is not None:
        valid, invalidated = cache.partition(hashes)
        stats.cache_hits = len(valid)
        stats.cache_invalidated = len(invalidated)
        for rel in valid:
            analyses[rel] = cache.payload(rel)
    to_analyze = {rel: src for rel, src in sources.items() if rel not in analyses}
    stats.analyzed = len(to_analyze)
    fresh = _run_phase1(to_analyze, config, jobs)
    analyses.update(fresh)
    if cache is not None:
        for rel, analysis in fresh.items():
            imports = (
                analysis.summary.imports if analysis.summary is not None else ()
            )
            cache.store(rel, hashes[rel], imports, analysis)
        cache.prune(set(hashes))
        cache.save()
    return analyses, stats


def _merge_result(
    analyses: Mapping[str, FileAnalysis],
    program: Mapping[str, list[Finding]],
    stats: EngineStats,
    read_errors: Sequence[tuple[str, str]] = (),
) -> LintResult:
    """Noqa + sort over the merged two-phase findings."""
    result = LintResult(stats=stats)
    result.parse_errors.extend(read_errors)
    known = set(all_rules())
    for rel in sorted(analyses):
        analysis = analyses[rel]
        if analysis.error is not None:
            result.parse_errors.append((rel, analysis.error))
            continue
        result.files += 1
        raw = sorted(analysis.findings + program.get(rel, []))
        # fresh copies: cached suppressions must not carry `used` flags
        # from a previous run into this one
        suppressions = [replace(s, used=False) for s in analysis.suppressions]
        active = apply_suppressions(raw, suppressions)
        result.suppressed += len(raw) - len(active)
        result.findings.extend(active)
        for supp in suppressions:
            # a code no rule has can never match, even inside a
            # multi-code suppression that some other code put to use
            unknown = tuple(c for c in supp.codes or () if c not in known)
            if not supp.used:
                result.unused_suppressions.append(supp)
            elif unknown:
                result.unused_suppressions.append(replace(supp, codes=unknown))
    result.findings.sort()
    return result


def lint_paths(
    paths: Sequence[Path | str],
    config: LintConfig | None = None,
) -> LintResult:
    """Lint files/directories: both phases, cache, noqa."""
    config = config or LintConfig()
    resolve_selection(config.select, config.ignore)  # typo'd ids fail loudly
    sources, read_errors = _gather_sources(paths, config)
    analyses, stats = _analyze_with_cache(sources, config)
    program = _run_phase2(analyses, config, stats)
    return _merge_result(analyses, program, stats, read_errors)


def lint_changed(
    changed: Sequence[Path | str],
    config: LintConfig | None = None,
    *,
    search_paths: Sequence[Path | str] = ("src",),
) -> tuple[LintResult, str | None]:
    """Pre-commit mode: whole-program analysis, change-scoped reporting.

    The analysis itself is never narrowed — interprocedural verdicts
    need every summary, and with a warm cache only the changed files are
    re-analyzed anyway.  What is scoped is the *report*: findings are
    filtered to the changed files when the import graph proves the
    change is local (no other project module imports a changed one, and
    no registry package is touched).  Otherwise the full whole-program
    report is returned, with the fallback reason as the second element.
    """
    config = config or LintConfig()
    resolve_selection(config.select, config.ignore)
    sources, read_errors = _gather_sources(search_paths, config)
    analyses, stats = _analyze_with_cache(sources, config)
    program = _run_phase2(analyses, config, stats)
    result = _merge_result(analyses, program, stats, read_errors)

    changed_rel = {
        _relpath(Path(p) if Path(p).is_absolute() else config.root / Path(p), config.root)
        for p in changed
    }
    graph = _build_graph(analyses, config)
    reason: str | None = None
    registries = config.registry_map()
    for rel in sorted(changed_rel):
        analysis = analyses.get(rel)
        if analysis is None or analysis.summary is None:
            continue
        module = analysis.summary.module
        for package in registries:
            if module == package or module.startswith(package + "."):
                reason = (
                    f"{rel} is inside registry package {package}; "
                    "registration reachability needs the whole program"
                )
                break
        if reason:
            break
        importers = graph.importers_of(module)
        if importers:
            reason = (
                f"{module} is imported by {len(importers)} other project "
                "module(s); the change is non-local"
            )
            break
    if reason is not None:
        return result, reason

    scoped = LintResult(
        findings=[f for f in result.findings if f.path in changed_rel],
        suppressed=result.suppressed,
        unused_suppressions=[
            s for s in result.unused_suppressions if s.path in changed_rel
        ],
        parse_errors=[
            (p, msg) for p, msg in result.parse_errors if p in changed_rel
        ],
        files=len(changed_rel & set(analyses)),
        stats=result.stats,
    )
    return scoped, None
