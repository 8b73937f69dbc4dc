"""REP011 — memoization wrapped around a function with inferred effects.

A memo cache (``functools.lru_cache``, the service LRU, a hand-rolled
``_CACHE[key] = value`` table) is a semantic claim: *same arguments,
same value, no observable side effects worth repeating*.  The claim is
silently wrong the moment the wrapped function — or anything it calls,
transitively — draws randomness, reads a clock, touches a file, blocks,
or mutates shared state.  The first call's environment is frozen into
the cache and every later call replays it: verdicts stop being a
function of the instance and start being a function of *history*, which
is exactly the bit-identity guarantee this system sells.

Phase 2's effect fixpoint supplies the transitive effect set; this rule
flags

* any function carrying a memoizing decorator whose effect set
  intersects the impure tags, and
* any function that both writes a memo-named module global or
  parameter (its own ``memo-write`` effect) *and* carries an impure
  tag — the hand-rolled cache filling itself from an impure computation.

``lock`` and ``memo-write`` alone are not impurity (guarding or filling
a cache is the point); everything else on the lattice is.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator

from ..findings import Finding
from ..registry import ProgramRule, register

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..callgraph import ProjectGraph

__all__ = ["ImpureMemoization"]


def _chain_text(chain: tuple[str, ...]) -> str:
    if not chain:
        return ""
    return " via " + " -> ".join(f"`{hop}`" for hop in chain)


@register
class ImpureMemoization(ProgramRule):
    id = "REP011"
    name = "impure-memoization"
    summary = "memo cache wraps a function with inferred side effects"
    rationale = (
        "Caching an impure function freezes one call's environment "
        "(clock reading, RNG draw, file contents, global state) into "
        "every later result.  Verdicts then depend on call history "
        "instead of the instance — the exact failure mode the "
        "bit-identity guarantee exists to prevent, and one no test "
        "catches because each individual call looks right."
    )
    default_paths = ()  # everywhere outside tests

    def check_program(self, program: "ProjectGraph") -> Iterator[Finding]:
        from ..callgraph import IMPURE_TAGS

        for summary in program.modules.values():
            for fn in summary.functions:
                effects = program.effects(summary.module, fn.qualname)
                impure = sorted(set(effects) & IMPURE_TAGS)
                if not impure:
                    continue
                tag = impure[0]
                detail, chain = effects[tag]
                why = (
                    f"inferred effect `{tag}` ({detail}"
                    f"{_chain_text(chain)})"
                )
                if fn.memoized:
                    yield Finding(
                        path=summary.path,
                        line=fn.line,
                        col=1,
                        rule=self.id,
                        message=(
                            f"`@{fn.memoized}` memoizes `{fn.qualname}`, "
                            f"which is not pure: {why}; a memo freezes "
                            "the first call's environment into every "
                            "later result"
                        ),
                        snippet=fn.snippet,
                        end_line=fn.line,
                    )
                elif "memo-write" in effects and not effects["memo-write"][1]:
                    # hand-rolled cache: this function itself writes a
                    # memo-named global or parameter while carrying an
                    # impure effect
                    site = next(
                        (e for e in fn.effects if e.tag == "memo-write"),
                        None,
                    )
                    if site is None:  # pragma: no cover - defensive
                        continue
                    yield Finding(
                        path=summary.path,
                        line=site.line,
                        col=site.col,
                        rule=self.id,
                        message=(
                            f"`{fn.qualname}` fills a memo table "
                            f"({site.detail}) but is not pure: {why}; "
                            "cached entries will replay that effect's "
                            "first outcome forever"
                        ),
                        snippet=site.snippet,
                        end_line=site.end_line,
                    )
