"""REP006 — shared state mutated outside a held lock.

Some state in this repo is shared between threads and guarded by one
``threading.Lock`` per object: the lock-carrying classes such as
:class:`~repro.service.cache.LRUCache` and
:class:`~repro.service.metrics.MetricsRegistry`, and any threaded state
added later.  A mutation that slips outside the ``with self._lock:``
block is a data race the test suite will almost never catch (races hide
behind the GIL until a resize or preemption lands mid-update).  The
front end, its event loop and the shard worker are single-threaded by
construction and carry a file pragma instead.

Phase 1 records every mutation of ``self._x`` (assignment, ``+=``,
``del``, or a mutating method such as ``append``/``pop``/``move_to_end``
on it or an element of it) and of module globals, with whether it sits
inside a ``with`` whose context expression mentions a lock attribute
(any name containing ``lock``) or calls a same-file ``@contextmanager``
**lock helper** that enters one.  ``self._lock`` itself and
``__init__``/``__new__``/``__post_init__`` construction are exempt.
An unlocked site is flagged

* directly, in a public (or dunder) method — a request thread calls it,
  so the mutation must be lexically under the lock;
* in a private method (``_name``), or as a module-global mutation in a
  module-level function, unless every resolved caller chain provably
  holds the lock at the call site — lexically (``with self._lock:
  self._evict()``) or because the caller is itself proven locked-only.

The caller-chain proof is pessimistic in every direction a race could
hide: a function with no resolved callers is unproven (dead code
included: a future caller inherits the obligation), a call cycle with
no locked entry is unproven, and an unresolvable call site never adds
safety.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator

from ..findings import Finding
from ..registry import ProgramRule, register

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..callgraph import ProjectGraph
    from ..summaries import FunctionSummary, MutationSite

__all__ = ["UnlockedServiceMutation"]

_EXEMPT_METHODS = frozenset({"__init__", "__new__", "__post_init__"})


def _locked_only(
    program: "ProjectGraph",
    key: tuple[str, str],
    stack: tuple[tuple[str, str], ...],
    memo: dict[tuple[str, str], bool],
) -> bool:
    """Is every caller chain reaching ``key`` proven to hold a lock?"""
    if key in memo:
        return memo[key]
    if key in stack:
        return False  # cycle with no locked entry above it
    callers = program.callers_of(*key)
    if not callers:
        memo[key] = False
        return False
    for caller_key, site in callers:
        if site.under_lock:
            continue
        # the call site itself is unlocked: safe only if the caller's
        # whole body provably runs under a lock its own callers hold
        if not _locked_only(program, caller_key, stack + (key,), memo):
            memo[key] = False
            return False
    memo[key] = True
    return True


def _unlocked(fn: "FunctionSummary", kind: str) -> list["MutationSite"]:
    return [m for m in fn.mutations if m.kind == kind and not m.under_lock]


@register
class UnlockedServiceMutation(ProgramRule):
    id = "REP006"
    name = "unlocked-service-mutation"
    summary = (
        "self._* or module-global state mutated outside a held "
        "threading.Lock context"
    )
    rationale = (
        "Lock-carrying classes such as LRUCache and MetricsRegistry "
        "guard their state with one threading.Lock each, and any future "
        "threaded state must do the same.  A mutation outside `with "
        "self._lock:` — in the method itself, or in a private helper "
        "some caller chain reaches without the lock — is a data race "
        "that stays invisible under the GIL until a dict resize or "
        "thread preemption lands mid-update and corrupts counters or "
        "evicts the wrong entry.  The whole-program call graph proves "
        "(or refutes) the 'caller holds the lock' contract."
    )
    default_paths = ("repro/service/",)

    def check_program(self, program: "ProjectGraph") -> Iterator[Finding]:
        memo: dict[tuple[str, str], bool] = {}
        for summary in program.modules.values():
            for fn in summary.functions:
                name = fn.qualname.rsplit(".", 1)[-1]
                if fn.is_method and name not in _EXEMPT_METHODS:
                    sites = _unlocked(fn, "attr")
                    private = name.startswith("_") and not name.startswith("__")
                    if not private:
                        for site in sites:
                            yield self._finding(
                                summary.path,
                                site,
                                f"{site.detail} `self.{site.target}` "
                                "outside a held lock; wrap the mutation "
                                "in `with self._lock:` (the state is "
                                "shared between threads)",
                            )
                        continue
                    what = f"`self.{{}}` in private method `{fn.qualname}`"
                elif "." not in fn.qualname:
                    sites = _unlocked(fn, "global")
                    what = f"module global `{{}}` in `{fn.qualname}`"
                else:
                    continue
                if not sites or _locked_only(
                    program, (summary.module, fn.qualname), (), memo
                ):
                    continue
                for site in sites:
                    yield self._finding(
                        summary.path,
                        site,
                        f"{site.detail} {what.format(site.target)} mutated "
                        "without a proven lock-holding caller chain; every "
                        "resolved caller must wrap the call in `with "
                        "self._lock:` (or the lock must be taken here)",
                    )

    def _finding(
        self, path: str, site: "MutationSite", message: str
    ) -> Finding:
        return Finding(
            path=path,
            line=site.line,
            col=site.col,
            rule=self.id,
            message=message,
            snippet=site.snippet,
            end_line=site.end_line,
        )
