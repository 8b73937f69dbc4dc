"""REP014 — mixed-dimension arithmetic/comparison.

Everything this repo computes is arithmetic over typed quantities:
work (``wcet`` at unit speed), time (``period``, ``deadline``, QPA
test points), speed and rate (both work/time).  Adding a utilization
to a deadline, or comparing a demand bound against a machine speed,
is meaningless no matter how the floats round — yet Python happily
evaluates it, and the result only shows up as a subtly wrong campaign
curve.

Phase 1 records every ``+``/``-``/comparison whose operands both carry
unit information (a concrete dimension inferred from domain-model
attributes, parameter names and arithmetic propagation, or a term
depending on a project function's return dimension).  Phase 2 closes
return dimensions over the call graph with a Kleene fixpoint and flags
the sites where two *concrete* dimensions with different exponent
vectors meet.  ``unknown`` never fires, and ``speed`` vs ``rate``
(same work/time vector) is the core feasibility test — always allowed.

The work-vs-time pair gets its own message.  On a unit-speed machine,
demand (work) and interval length (time) are numerically
interchangeable — ``dbf(tasks, t) <= t`` looks right and *is* right for
speed 1.  On a heterogeneous platform it is the classic porting bug:
the feasibility test is ``demand <= speed * t`` (or ``demand / speed <=
t``), and the unnormalized form silently admits task sets that overload
slow machines.  The fix is specific and mechanical, so the message
names it: divide the work by the machine ``speed`` (or multiply the
interval by it) before comparing.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator

from ..findings import Finding
from ..registry import ProgramRule, register
from ..unitinfer import TIME, WORK

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..callgraph import ProjectGraph

__all__ = ["MixedDimension"]


@register
class MixedDimension(ProgramRule):
    id = "REP014"
    name = "mixed-dimension"
    summary = (
        "Arithmetic or comparison between quantities of different "
        "dimensions (e.g. time vs rate)"
    )
    rationale = (
        "Adding a utilization to a deadline or comparing demand to a "
        "speed type-checks as float arithmetic but is dimensionally "
        "meaningless; the unit fixpoint proves both operand dimensions, "
        "including through cross-module return values, so the mix is a "
        "lint-time error instead of a wrong curve in a campaign plot.  "
        "Work against time is the missing speed normalization: demand "
        "<= t is only correct at unit speed, the test is demand <= "
        "speed * t."
    )
    default_paths = ("repro/core/", "repro/baselines/", "repro/kernels/")

    def check_program(self, program: "ProjectGraph") -> Iterator[Finding]:
        for summary, site, left, right in program.unit_mismatches():
            if {left, right} == {WORK, TIME}:
                work, time = (
                    (site.left_display, site.right_display)
                    if left == WORK
                    else (site.right_display, site.left_display)
                )
                message = (
                    f"`{work}` is work but `{time}` is time; normalize by "
                    "the machine speed first (`work / speed` vs time, or "
                    "work vs `speed * t`)"
                )
            else:
                action = (
                    "mixed in arithmetic"
                    if site.context == "arith"
                    else f"compared with `{site.op_text}`"
                )
                message = (
                    f"`{site.left_display}` is {left}-dimensioned but "
                    f"`{site.right_display}` is {right}-dimensioned; "
                    f"quantities of different dimensions cannot be "
                    f"{action}"
                )
            yield Finding(
                path=summary.path,
                line=site.line,
                col=site.col,
                rule=self.id,
                message=message,
                snippet=site.snippet,
                end_line=site.end_line,
            )
