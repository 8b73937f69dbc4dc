"""REP012 — blocking call reachable from an ``async def``.

The sharded front end runs one event loop (:mod:`repro.service.loop`,
one ``selectors`` selector driving ``async def`` handlers) that
multiplexes every client connection and every shard pipe.  A single synchronous
block anywhere under a coroutine — ``time.sleep``, a subprocess wait,
file IO, a held ``threading.Lock`` — freezes the whole loop: all
shards, all clients, the health endpoint, for the full duration.  It
shows up in production as tail-latency cliffs and in tests as nothing,
because a serial test never has a second connection waiting.

Phase 1 records each function's own blocking-family effects and its
resolved calls; phase 2's fixpoint makes the *transitive* set
available.  This rule walks every ``async def`` in scope and flags

* its own blocking effect sites (the direct ``time.sleep(...)`` in a
  coroutine), and
* call sites whose resolved target is a **sync** function whose
  transitive effect set contains a blocking tag — with the call chain
  to the offending primitive named in the message.

Calls to other ``async def`` functions are skipped (the callee is
awaited and reported at its own site if guilty), as are unresolvable
calls (no speculation).  Legitimate blocking must move to the
worker processes or carry a ``# repro: noqa[REP012]`` with the reason
(e.g. a fork, or startup-only paths before the loop serves traffic).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator

from ..findings import Finding
from ..registry import ProgramRule, register

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..callgraph import ProjectGraph

__all__ = ["BlockingCallInAsync"]


@register
class BlockingCallInAsync(ProgramRule):
    id = "REP012"
    name = "blocking-call-in-async"
    summary = "blocking IO/sleep/subprocess/lock reachable from async def"
    rationale = (
        "The dispatcher is a single event loop over every shard and "
        "client; one synchronous block freezes them all for its whole "
        "duration.  Serial tests never catch it — only concurrent "
        "traffic does, as a tail-latency cliff.  The call graph makes "
        "the blocking primitive visible even when it hides two sync "
        "calls deep."
    )
    default_paths = ("repro/service/",)

    def check_program(self, program: "ProjectGraph") -> Iterator[Finding]:
        from ..callgraph import BLOCKING_TAGS

        for summary in program.modules.values():
            for fn in summary.functions:
                if not fn.is_async:
                    continue
                for site in fn.effects:
                    if site.tag not in BLOCKING_TAGS:
                        continue
                    yield Finding(
                        path=summary.path,
                        line=site.line,
                        col=site.col,
                        rule=self.id,
                        message=(
                            f"async `{fn.qualname}` blocks the event "
                            f"loop: {site.detail}; move it to "
                            "`loop.run_in_executor(...)` or an async "
                            "equivalent"
                        ),
                        snippet=site.snippet,
                        end_line=site.end_line,
                    )
                reported: set[tuple[str, str]] = set()
                for call in fn.calls:
                    target = program.resolve(call.module, call.name)
                    if target is None or target in reported:
                        continue
                    callee = program.function(*target)
                    if callee is None or callee.is_async:
                        continue
                    effects = program.effects(*target)
                    tags = sorted(set(effects) & BLOCKING_TAGS)
                    if not tags:
                        continue
                    reported.add(target)
                    detail, chain = effects[tags[0]]
                    hops = " -> ".join(
                        f"`{hop}`"
                        for hop in (f"{target[0]}.{target[1]}",) + chain
                    )
                    yield Finding(
                        path=summary.path,
                        line=call.line,
                        col=call.col,
                        rule=self.id,
                        message=(
                            f"async `{fn.qualname}` calls {hops}, which "
                            f"blocks the event loop ({detail}); await "
                            "an async path or dispatch via "
                            "`loop.run_in_executor(...)`"
                        ),
                        snippet=call.snippet,
                        end_line=call.line,
                    )
