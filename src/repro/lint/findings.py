"""The finding record every rule emits and reporters consume."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

__all__ = ["Finding"]


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at one source location.

    Ordering is (path, line, col, rule) so reports are stable regardless
    of rule execution order.
    """

    #: posix path relative to the lint root
    path: str
    #: 1-based source line
    line: int
    #: 1-based source column
    col: int
    #: rule identifier, e.g. ``REP001``
    rule: str
    #: human-readable description of this violation
    message: str = field(compare=False)
    #: the stripped source line (part of :attr:`fingerprint`)
    snippet: str = field(compare=False, default="")
    #: last line of the enclosing statement (``0`` means "same as line");
    #: noqa suppressions anywhere in ``line..end_line`` match
    end_line: int = field(compare=False, default=0)

    @property
    def last_line(self) -> int:
        """End of the suppression span (at least the anchor line)."""
        return max(self.line, self.end_line)

    @property
    def fingerprint(self) -> tuple[str, str, str]:
        """Line-number-free identity behind SARIF ``partialFingerprints``.

        Keyed on (path, rule, stripped source text) so a finding keeps
        its identity when unrelated edits shift line numbers, but gets a
        new one the moment the offending line itself changes.
        """
        return (self.path, self.rule, self.snippet)

    def as_dict(self) -> dict[str, Any]:
        return {
            "path": self.path,
            "line": self.line,
            "end_line": self.last_line,
            "col": self.col,
            "rule": self.rule,
            "message": self.message,
            "snippet": self.snippet,
        }

    def render(self) -> str:
        """``path:line:col: REPxxx message`` (the text reporter line)."""
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"
