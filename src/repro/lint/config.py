"""Lint configuration: CLI flags layered over ``[tool.repro-lint]``.

``pyproject.toml`` may carry project defaults::

    [tool.repro-lint]
    select = ["REP001", "REP004"]   # default: every rule
    ignore = ["REP005"]

    [tool.repro-lint.rules.REP003]
    include = ["repro/experiments/", "repro/oracle/"]

    [tool.repro-lint.registries]          # REP009 surfaces beyond the
    "repro.plugins" = "p*"                # built-in defaults

CLI flags override file values.  Any other key in the section is a
configuration error, so a typo such as ``selct`` fails loudly instead
of silently running every rule.  ``tomllib`` ships with Python 3.11+;
on 3.10 the pyproject section is skipped (flags still work) — the
repository pins nothing on it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

__all__ = ["LintConfig", "load_pyproject_config"]

#: the keys ``[tool.repro-lint]`` may carry
CONFIG_KEYS = ("select", "ignore", "rules", "registries")


@dataclass
class LintConfig:
    """Resolved configuration for one lint run."""

    #: directory paths are resolved against (repo root in CI/tests)
    root: Path = field(default_factory=Path.cwd)
    #: rule ids to run (None = all registered)
    select: tuple[str, ...] | None = None
    #: rule ids to drop after selection
    ignore: tuple[str, ...] | None = None
    #: per-rule include-path overrides (rule id → path fragments)
    rule_paths: dict[str, tuple[str, ...]] = field(default_factory=dict)
    #: report unused noqa suppressions as errors
    show_unused_noqa: bool = False
    #: phase-1 worker processes (1 = in-process; 0/None = all cores)
    jobs: int = 1
    #: incremental-cache file, or None to run cache-free
    cache_path: Path | None = None
    #: extra registry packages for REP009 (package → fnmatch pattern),
    #: merged over the rule's built-in defaults
    registries: dict[str, str] = field(default_factory=dict)

    def include_for(self, rule_id: str) -> tuple[str, ...] | None:
        return self.rule_paths.get(rule_id)

    def registry_map(self) -> dict[str, str]:
        """Built-in REP009 registries merged with configured extras."""
        from .rules.rep009_orphaned_registration import DEFAULT_REGISTRIES

        merged = dict(DEFAULT_REGISTRIES)
        merged.update(self.registries)
        return merged


def load_pyproject_config(root: Path) -> dict[str, Any]:
    """``[tool.repro-lint]`` from ``root/pyproject.toml`` (or ``{}``).

    Returns ``{}`` when the file or section is absent — and on Python
    3.10, where stdlib ``tomllib`` does not exist (the section is a
    convenience, not a correctness dependency).
    """
    pyproject = root / "pyproject.toml"
    if not pyproject.is_file():
        return {}
    try:
        import tomllib
    except ImportError:  # pragma: no cover - Python 3.10
        return {}
    try:
        data = tomllib.loads(pyproject.read_text())
    except tomllib.TOMLDecodeError:
        return {}
    section = data.get("tool", {}).get("repro-lint", {})
    return section if isinstance(section, dict) else {}


def config_from_sources(
    root: Path,
    *,
    select: tuple[str, ...] | None = None,
    ignore: tuple[str, ...] | None = None,
    show_unused_noqa: bool = False,
    jobs: int = 1,
    cache: Path | None = None,
) -> LintConfig:
    """Layer CLI arguments over the pyproject section.

    Raises :class:`ValueError` naming every key of the section that is
    not one of :data:`CONFIG_KEYS`.
    """
    file_cfg = load_pyproject_config(root)
    unknown = sorted(set(file_cfg) - set(CONFIG_KEYS))
    if unknown:
        raise ValueError(
            f"unknown [tool.repro-lint] key(s) {', '.join(map(repr, unknown))} "
            f"in {root / 'pyproject.toml'}; known keys: {', '.join(CONFIG_KEYS)}"
        )
    if select is None and isinstance(file_cfg.get("select"), list):
        select = tuple(str(r) for r in file_cfg["select"])
    if ignore is None and isinstance(file_cfg.get("ignore"), list):
        ignore = tuple(str(r) for r in file_cfg["ignore"])
    rule_paths: dict[str, tuple[str, ...]] = {}
    rules_cfg = file_cfg.get("rules")
    if isinstance(rules_cfg, dict):
        for rid, sub in rules_cfg.items():
            if isinstance(sub, dict) and isinstance(sub.get("include"), list):
                rule_paths[str(rid)] = tuple(str(p) for p in sub["include"])
    registries: dict[str, str] = {}
    registries_cfg = file_cfg.get("registries")
    if isinstance(registries_cfg, dict):
        for pkg, pattern in registries_cfg.items():
            if isinstance(pattern, str):
                registries[str(pkg)] = pattern
    return LintConfig(
        root=root,
        select=select,
        ignore=ignore,
        rule_paths=rule_paths,
        show_unused_noqa=show_unused_noqa,
        jobs=jobs,
        cache_path=cache,
        registries=registries,
    )
