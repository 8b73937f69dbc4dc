"""REP001 — bare float comparison in verdict-bearing modules.

Feasibility conditions in this repo are closed inequalities whose
verdicts must not flip on floating-point noise; every such comparison
must go through :func:`repro.core.model.leq`/``geq``/``close`` or the
LP-side :func:`repro.core.lp.tol_leq`/``tol_geq``.  PR 3's fuzzing
campaign caught raw comparisons bypassing the helpers (the hyperbolic
early exit in ``core/bounds.py``, LP-side checks in ``core/lp.py``) —
this rule catches the pattern statically.

Flagged: ``<=`` / ``>=`` / ``==`` where both operands are
float-bearing — inferred as floats locally (including hand-rolled
``x <= y * (1.0 + EPS)`` tolerances, which the repo unifies on the
helpers), or a call to a project function that produces a float.  The
second case is why the rule runs over the whole program:
``demand(ts, t) <= capacity`` is invisible to one file when ``demand``
lives in another module, so phase 1 records every candidate comparison
and phase 2 asks the project graph whether the callee returns a float
(directly, by annotation, or through ``return helper(...)`` chains — a
pessimistic fixpoint, so recursion without float evidence never
flags).  Exempt, at summary-extraction time:

* comparisons against a zero or integer literal (sign tests and
  sentinels, which the tolerance helpers do not address);
* the test of an ``if`` whose body is a single ``raise`` (argument
  validation, not a feasibility verdict);
* ``assert`` conditions (crash-on-violation invariants).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator

from ..findings import Finding
from ..registry import ProgramRule, register

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..callgraph import ProjectGraph
    from ..summaries import ComparisonSite

__all__ = ["BareFloatComparison"]

_HELPER = {"==": "close", "<=": "leq", ">=": "geq"}


@register
class BareFloatComparison(ProgramRule):
    id = "REP001"
    name = "bare-float-comparison"
    summary = (
        "Raw <=/>=/== between float expressions; use leq/geq/close or "
        "tol_leq/tol_geq"
    )
    rationale = (
        "Schedulability conditions are closed inequalities; a raw float "
        "comparison can flip a boundary instance on rounding noise and "
        "make two oracles disagree about the same instance.  All "
        "verdict-bearing comparisons go through the tolerance helpers "
        "so every module agrees on what 'on the boundary' means — "
        "including when the float was produced by a function in "
        "another module."
    )
    default_paths = ("repro/core/", "repro/baselines/", "repro/analysis/")

    def check_program(self, program: "ProjectGraph") -> Iterator[Finding]:
        for summary in program.modules.values():
            for site in summary.comparisons:
                calls = [
                    (module, name)
                    for kind, module, name in (site.left, site.right)
                    if kind == "call"
                ]
                if all(program.returns_float(*call) for call in calls):
                    yield self._finding(program, summary.path, site, calls)

    def _finding(
        self,
        program: "ProjectGraph",
        path: str,
        site: "ComparisonSite",
        calls: list[tuple[str, str]],
    ) -> Finding:
        helper = _HELPER[site.op_text]
        if calls:
            who = " and ".join(
                "`{1}()` (defined in {0})".format(
                    *(program.resolve(*call) or call)
                )
                for call in calls
            )
            message = (
                f"{who} returns a float; bare `{site.op_text}` at this "
                "call site escapes the tolerance helpers — route through "
                f"`{helper}` (or `tol_leq`/`tol_geq` on the LP side)"
            )
        else:
            message = (
                f"bare float comparison `{site.op_text}`; route through "
                f"`{helper}` (or `tol_leq`/`tol_geq` on the LP side) so "
                "boundary verdicts cannot flip on rounding noise"
            )
        return Finding(
            path=path,
            line=site.line,
            col=site.col,
            rule=self.id,
            message=message,
            snippet=site.snippet,
            end_line=site.end_line,
        )
