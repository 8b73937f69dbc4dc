"""Render a :class:`LintResult` as text, JSON, SARIF 2.1.0, or GitHub
workflow commands (``::error`` annotations on the PR diff)."""

from __future__ import annotations

import json
from typing import TYPE_CHECKING

from .._hashing import sha256

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .engine import LintResult

__all__ = [
    "render",
    "render_text",
    "render_json",
    "render_sarif",
    "render_github",
    "FORMATS",
]

_SARIF_SCHEMA = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)
_TOOL_NAME = "repro-lint"
_TOOL_VERSION = "1.0.0"
_INFO_URI = "https://github.com/repro/repro/blob/main/docs/lint.md"


def render_text(result: LintResult, *, show_unused: bool = False) -> str:
    lines: list[str] = []
    for path, message in result.parse_errors:
        lines.append(f"{path}: parse error: {message}")
    for finding in result.findings:
        lines.append(finding.render())
    if show_unused:
        for supp in result.unused_suppressions:
            lines.append(supp.render())
    summary = (
        f"{len(result.findings)} finding(s) in {result.files} file(s)"
        f" ({result.suppressed} suppressed"
    )
    if result.unused_suppressions:
        summary += f", {len(result.unused_suppressions)} unused noqa(s)"
    summary += ")"
    lines.append(summary)
    return "\n".join(lines)


def render_json(result: LintResult) -> str:
    payload = {
        "files": result.files,
        "findings": [f.as_dict() for f in result.findings],
        "suppressed": result.suppressed,
        "unused_suppressions": [
            {
                "path": s.path,
                "line": s.line,
                "codes": list(s.codes) if s.codes else None,
                "file_level": s.file_level,
            }
            for s in result.unused_suppressions
        ],
        "parse_errors": [
            {"path": p, "message": m} for p, m in result.parse_errors
        ],
        "stats": result.stats.as_dict(),
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def _partial_fingerprint(finding) -> str:
    """Stable line-drift-surviving identity for SARIF result matching.

    Built from :attr:`Finding.fingerprint`, the ``(path, rule, snippet)``
    triple, so GitHub code scanning keeps tracking a finding across
    unrelated edits that shift its line number — and re-opens it the
    moment the offending line itself changes.
    """
    digest = sha256("|".join(finding.fingerprint).encode("utf-8")).hexdigest()
    return digest[:20]


def render_sarif(result: LintResult) -> str:
    """SARIF 2.1.0 for GitHub code scanning upload."""
    from .registry import all_rules

    rules = list(all_rules().values())
    rule_index = {rule.id: i for i, rule in enumerate(rules)}
    results = []
    for finding in result.findings:
        results.append(
            {
                "ruleId": finding.rule,
                "ruleIndex": rule_index.get(finding.rule, -1),
                "level": "error",
                "message": {"text": finding.message},
                "locations": [
                    {
                        "physicalLocation": {
                            "artifactLocation": {
                                "uri": finding.path,
                                "uriBaseId": "%SRCROOT%",
                            },
                            "region": {
                                "startLine": finding.line,
                                "endLine": finding.last_line,
                                # Finding.col is already 1-based — the
                                # SARIF contract, no conversion
                                "startColumn": finding.col,
                            },
                        }
                    }
                ],
                "partialFingerprints": {
                    "reproLintFingerprint/v1": _partial_fingerprint(finding)
                },
            }
        )
    document = {
        "$schema": _SARIF_SCHEMA,
        "version": "2.1.0",
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": _TOOL_NAME,
                        "version": _TOOL_VERSION,
                        "informationUri": _INFO_URI,
                        "rules": [
                            {
                                "id": rule.id,
                                "name": rule.name,
                                "shortDescription": {"text": rule.summary},
                                "fullDescription": {"text": rule.rationale},
                                "defaultConfiguration": {"level": "error"},
                                "helpUri": f"{_INFO_URI}#{rule.id.lower()}",
                            }
                            for rule in rules
                        ],
                    }
                },
                "results": results,
            }
        ],
    }
    return json.dumps(document, indent=2)


def _gh_escape_data(value: str) -> str:
    """Escape a workflow-command message (the part after ``::``)."""
    return value.replace("%", "%25").replace("\r", "%0D").replace("\n", "%0A")


def _gh_escape_property(value: str) -> str:
    """Escape a workflow-command property value (``file=``, ``title=``)."""
    return (
        _gh_escape_data(value).replace(":", "%3A").replace(",", "%2C")
    )


def render_github(result: LintResult) -> str:
    """GitHub Actions ``::error`` workflow commands, one per finding.

    Printed to an Actions job log these become inline annotations on
    the pull-request diff — no SARIF upload round-trip needed.  The
    final summary line is plain text, which Actions passes through.
    """
    lines: list[str] = []
    for path, message in result.parse_errors:
        lines.append(
            f"::error file={_gh_escape_property(path)}::"
            + _gh_escape_data(f"parse error: {message}")
        )
    for finding in result.findings:
        props = (
            f"file={_gh_escape_property(finding.path)}"
            f",line={finding.line}"
            f",endLine={finding.last_line}"
            f",col={finding.col}"
            f",title={_gh_escape_property(finding.rule)}"
        )
        lines.append(
            f"::error {props}::"
            + _gh_escape_data(f"[{finding.rule}] {finding.message}")
        )
    lines.append(
        f"{len(result.findings)} finding(s) in {result.files} file(s)"
    )
    return "\n".join(lines)


FORMATS = {
    "text": render_text,
    "json": lambda result, **_: render_json(result),
    "sarif": lambda result, **_: render_sarif(result),
    "github": lambda result, **_: render_github(result),
}


def render(result: LintResult, fmt: str, *, show_unused: bool = False) -> str:
    try:
        renderer = FORMATS[fmt]
    except KeyError:
        raise ValueError(f"unknown lint format {fmt!r}") from None
    return renderer(result, show_unused=show_unused)
