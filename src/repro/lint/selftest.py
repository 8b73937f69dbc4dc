"""Fault-injection self-test: plant one violation per rule, confirm it fires.

``repro lint --self-test`` (and the CI lint job) runs every registered
rule against a tiny synthetic module that contains exactly one known
violation at a known line, under a virtual path inside the rule's
default scope.  If the rule reports anything other than exactly that
``rule@line``, the analyzer itself is broken — a linter that silently
stops firing is worse than no linter.

Single-module cases run through :func:`lint_source` (both phases over
one module).  *Program* cases split the violation across two or more
modules so that detecting it requires the call graph, and run through
:func:`lint_sources`.  A rule whose bug class has both a local and a
cross-module shape (REP001, REP006, REP014) is planted once per shape.
A registered rule with no planted case fails the self-test outright.
"""

from __future__ import annotations

import textwrap
from dataclasses import dataclass, field

from .config import LintConfig
from .engine import lint_source, lint_sources
from .registry import all_rules

__all__ = [
    "PlantedCase",
    "PlantedProgram",
    "SelfTestResult",
    "run_self_test",
    "PLANTED_CASES",
    "PLANTED_PROGRAMS",
]


@dataclass(frozen=True)
class PlantedCase:
    """One synthetic module with a single known violation."""

    rule: str
    #: virtual path inside the rule's default scope
    path: str
    #: module source (dedented at construction)
    source: str
    #: 1-based line the violation must be reported on
    line: int


PLANTED_CASES: tuple[PlantedCase, ...] = (
    PlantedCase(
        rule="REP001",
        path="src/repro/core/planted_rep001.py",
        source=textwrap.dedent(
            """\
            def admit(utilization: float, capacity: float) -> bool:
                slack = capacity - utilization
                return utilization <= capacity
            """
        ),
        line=3,
    ),
    PlantedCase(
        rule="REP002",
        path="src/repro/workloads/planted_rep002.py",
        source=textwrap.dedent(
            """\
            import numpy as np


            def draw():
                rng = np.random.default_rng()
                return rng.random()
            """
        ),
        line=5,
    ),
    PlantedCase(
        rule="REP003",
        path="src/repro/experiments/planted_rep003.py",
        source=textwrap.dedent(
            """\
            import time


            def stamp() -> float:
                return time.time()
            """
        ),
        line=5,
    ),
    PlantedCase(
        rule="REP004",
        path="src/repro/core/planted_rep004.py",
        source=textwrap.dedent(
            """\
            def total_load(utilizations):
                load = 0.0
                for u in utilizations:
                    load += u
                return load
            """
        ),
        line=4,
    ),
    PlantedCase(
        rule="REP005",
        path="src/repro/io_/planted_rep005.py",
        source=textwrap.dedent(
            """\
            def digest_ids(task_ids: set):
                out = []
                for tid in task_ids:
                    out.append(tid)
                return out
            """
        ),
        line=3,
    ),
    PlantedCase(
        rule="REP006",
        path="src/repro/service/planted_rep006.py",
        source=textwrap.dedent(
            """\
            class Cache:
                def __init__(self):
                    self._entries = {}

                def put(self, key, value):
                    self._entries[key] = value
            """
        ),
        line=6,
    ),
)


@dataclass(frozen=True)
class PlantedProgram:
    """A multi-module program with a single cross-module violation."""

    rule: str
    #: virtual path → module source, every module needed for detection
    files: tuple[tuple[str, str], ...]
    #: path the violation must be reported in
    path: str
    #: 1-based line the violation must be reported on
    line: int
    #: extra REP009 registries the case needs (package → pattern)
    registries: tuple[tuple[str, str], ...] = ()


PLANTED_PROGRAMS: tuple[PlantedProgram, ...] = (
    # REP001 across modules: the float is produced in one module,
    # compared bare in another — invisible to one file by construction.
    PlantedProgram(
        rule="REP001",
        files=(
            (
                "src/repro/core/planted_demand.py",
                textwrap.dedent(
                    """\
                    def demand(tasks, horizon) -> float:
                        return 0.5 * horizon
                    """
                ),
            ),
            (
                "src/repro/core/planted_rep001_call.py",
                textwrap.dedent(
                    """\
                    from repro.core.planted_demand import demand


                    def admits(tasks, horizon, capacity: float) -> bool:
                        return demand(tasks, horizon) <= capacity
                    """
                ),
            ),
        ),
        path="src/repro/core/planted_rep001_call.py",
        line=5,
    ),
    # REP008: the taint (PYTHONHASHSEED-dependent hash) is two calls
    # away from the RNG construction, in a different module.
    PlantedProgram(
        rule="REP008",
        files=(
            (
                "src/repro/workloads/planted_label_seed.py",
                textwrap.dedent(
                    """\
                    def label_seed(label):
                        return hash(label)
                    """
                ),
            ),
            (
                "src/repro/workloads/planted_rep008.py",
                textwrap.dedent(
                    """\
                    import numpy as np

                    from repro.workloads.planted_label_seed import label_seed


                    def make_rng(label):
                        return np.random.default_rng(label_seed(label))
                    """
                ),
            ),
        ),
        path="src/repro/workloads/planted_rep008.py",
        line=7,
    ),
    # REP009: two member modules match the registry pattern, the
    # __init__ imports only one — the other's registration never runs.
    PlantedProgram(
        rule="REP009",
        files=(
            (
                "src/repro/plugins/__init__.py",
                "from . import p01_alpha  # noqa: F401 - registration\n",
            ),
            (
                "src/repro/plugins/p01_alpha.py",
                "REGISTERED = True\n",
            ),
            (
                "src/repro/plugins/p02_beta.py",
                "REGISTERED = True\n",
            ),
        ),
        path="src/repro/plugins/p02_beta.py",
        line=1,
        registries=(("repro.plugins", "p*"),),
    ),
    # REP006 across modules: the defining module alone is safe — its
    # only caller wraps the call in `with _LOCK:` — so the finding only
    # appears because a *second* module calls the mutator unlocked.
    # Detecting it genuinely requires the cross-module caller index.
    PlantedProgram(
        rule="REP006",
        files=(
            (
                "src/repro/service/planted_state.py",
                textwrap.dedent(
                    """\
                    import threading

                    _LOCK = threading.Lock()
                    _STATE = {}


                    def bump(key):
                        _STATE[key] = _STATE.get(key, 0) + 1


                    def locked_bump(key):
                        with _LOCK:
                            bump(key)
                    """
                ),
            ),
            (
                "src/repro/service/planted_rep006_caller.py",
                textwrap.dedent(
                    """\
                    from repro.service.planted_state import bump


                    def handle(key):
                        bump(key)
                    """
                ),
            ),
        ),
        path="src/repro/service/planted_state.py",
        line=8,
    ),
    # REP011: the impurity (a module-global append) lives one module
    # away from the `@lru_cache` that freezes it.
    PlantedProgram(
        rule="REP011",
        files=(
            (
                "src/repro/core/planted_effects.py",
                textwrap.dedent(
                    """\
                    _TALLY = []


                    def record(value):
                        _TALLY.append(value)
                        return value
                    """
                ),
            ),
            (
                "src/repro/core/planted_rep011.py",
                textwrap.dedent(
                    """\
                    from functools import lru_cache

                    from repro.core.planted_effects import record


                    @lru_cache(maxsize=None)
                    def cached_record(value):
                        return record(value)
                    """
                ),
            ),
        ),
        path="src/repro/core/planted_rep011.py",
        line=7,
    ),
    # REP012: the blocking primitive (`time.sleep`) hides inside a sync
    # helper in another module; only the transitive effect set reveals
    # that awaiting nothing, the coroutine stalls the whole event loop.
    PlantedProgram(
        rule="REP012",
        files=(
            (
                "src/repro/service/planted_pause.py",
                textwrap.dedent(
                    """\
                    import time


                    def pause():
                        time.sleep(0.01)
                    """
                ),
            ),
            (
                "src/repro/service/planted_rep012.py",
                textwrap.dedent(
                    """\
                    from repro.service.planted_pause import pause


                    async def poll():
                        pause()
                    """
                ),
            ),
        ),
        path="src/repro/service/planted_rep012.py",
        line=5,
    ),
    # REP013: the fanned-out trial function mutates a module global in
    # its home module — each pool worker would mutate a private copy,
    # so results diverge between --jobs values.
    PlantedProgram(
        rule="REP013",
        files=(
            (
                "src/repro/analysis/planted_trial.py",
                textwrap.dedent(
                    """\
                    _TALLY = []


                    def trial(point):
                        _TALLY.append(point)
                        return point
                    """
                ),
            ),
            (
                "src/repro/analysis/planted_rep013.py",
                textwrap.dedent(
                    """\
                    from repro.analysis.planted_trial import trial
                    from repro.runner.executor import run_trials


                    def campaign(points):
                        return run_trials(trial, points)
                    """
                ),
            ),
        ),
        path="src/repro/analysis/planted_rep013.py",
        line=6,
    ),
    # REP014: the subtraction mixes time with a *rate* — but the rate
    # arrives as another module's return value, so only the unit
    # fixpoint over the call graph can prove the mismatch.
    PlantedProgram(
        rule="REP014",
        files=(
            (
                "src/repro/core/planted_totals.py",
                textwrap.dedent(
                    """\
                    def total_utilization(tasks):
                        return sum(t.utilization for t in tasks)
                    """
                ),
            ),
            (
                "src/repro/core/planted_rep014.py",
                textwrap.dedent(
                    """\
                    from repro.core.planted_totals import total_utilization


                    def remaining(tasks, deadline):
                        return deadline - total_utilization(tasks)
                    """
                ),
            ),
        ),
        path="src/repro/core/planted_rep014.py",
        line=5,
    ),
    # REP015: the pre-PR-8 dbf() bug shape — an absolute epsilon against
    # a time-scale value.  The time dimension is only known through the
    # callee's return term, one module away.
    PlantedProgram(
        rule="REP015",
        files=(
            (
                "src/repro/core/planted_horizon.py",
                textwrap.dedent(
                    """\
                    def busy_horizon(tasks):
                        return max(t.deadline for t in tasks)
                    """
                ),
            ),
            (
                "src/repro/core/planted_rep015.py",
                textwrap.dedent(
                    """\
                    from repro.core.planted_horizon import busy_horizon


                    def within(tasks, x):
                        return x < busy_horizon(tasks) - 1e-9
                    """
                ),
            ),
        ),
        path="src/repro/core/planted_rep015.py",
        line=5,
    ),
    # REP016: the caller passes a period (time) into a parameter whose
    # name marks it as a utilization (rate) — parameter expectation and
    # argument dimension live in different modules.
    PlantedProgram(
        rule="REP016",
        files=(
            (
                "src/repro/core/planted_admit.py",
                textwrap.dedent(
                    """\
                    def admit(utilization, speed):
                        return utilization <= speed
                    """
                ),
            ),
            (
                "src/repro/core/planted_rep016.py",
                textwrap.dedent(
                    """\
                    from repro.core.planted_admit import admit


                    def check(task):
                        return admit(task.period, 1.0)
                    """
                ),
            ),
        ),
        path="src/repro/core/planted_rep016.py",
        line=5,
    ),
    # REP014, work against time: total demand compared straight against
    # a horizon — the missing speed normalization only provable once
    # the callee's work dimension crosses the module boundary.
    PlantedProgram(
        rule="REP014",
        files=(
            (
                "src/repro/core/planted_total_demand.py",
                textwrap.dedent(
                    """\
                    def total_demand(tasks):
                        return sum(t.wcet for t in tasks)
                    """
                ),
            ),
            (
                "src/repro/core/planted_rep014_speed.py",
                textwrap.dedent(
                    """\
                    from repro.core.planted_total_demand import total_demand


                    def fits(tasks, horizon):
                        return total_demand(tasks) < horizon
                    """
                ),
            ),
        ),
        path="src/repro/core/planted_rep014_speed.py",
        line=5,
    ),
)


@dataclass
class SelfTestResult:
    """Outcome of the fault-injection pass."""

    #: (case, human-readable problem) for every failed case
    failures: list[tuple[PlantedCase, str]] = field(default_factory=list)
    checked: int = 0

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        if self.ok:
            return f"self-test OK: all {self.checked} planted violations detected"
        lines = [
            f"self-test FAILED: {len(self.failures)}/{self.checked} planted "
            "violations not detected correctly"
        ]
        for case, problem in self.failures:
            lines.append(f"  {case.rule} @ {case.path}:{case.line}: {problem}")
        return "\n".join(lines)


def run_self_test() -> SelfTestResult:
    """Plant one violation per rule and assert it is the only report."""
    result = SelfTestResult()
    config = LintConfig()  # every rule, defaults only
    covered = {case.rule for case in PLANTED_CASES}
    covered |= {program.rule for program in PLANTED_PROGRAMS}
    uncovered = [rid for rid in all_rules() if rid not in covered]
    for rid in uncovered:
        result.failures.append(
            (
                PlantedCase(rule=rid, path="<missing>", source="", line=0),
                "registered rule has no planted self-test case",
            )
        )
    result.checked = len(PLANTED_CASES) + len(PLANTED_PROGRAMS) + len(uncovered)
    for case in PLANTED_CASES:
        findings = lint_source(case.source, case.path, config)
        hits = [
            (f.rule, f.line)
            for f in findings
            if f.rule == case.rule and f.line == case.line
        ]
        extras = [
            f"{f.rule}@{f.line}"
            for f in findings
            if (f.rule, f.line) != (case.rule, case.line)
        ]
        if not hits:
            got = ", ".join(f"{f.rule}@{f.line}" for f in findings) or "nothing"
            result.failures.append(
                (case, f"expected {case.rule}@{case.line}, got {got}")
            )
        elif extras:
            result.failures.append(
                (case, f"unexpected extra findings: {', '.join(extras)}")
            )
    for program in PLANTED_PROGRAMS:
        facade = PlantedCase(
            rule=program.rule, path=program.path, source="", line=program.line
        )
        program_config = LintConfig(registries=dict(program.registries))
        findings = lint_sources(dict(program.files), program_config)
        hits = [
            f
            for f in findings
            if f.rule == program.rule
            and f.path == program.path
            and f.line == program.line
        ]
        extras = [
            f"{f.rule}@{f.path}:{f.line}"
            for f in findings
            if (f.rule, f.path, f.line)
            != (program.rule, program.path, program.line)
        ]
        if not hits:
            got = (
                ", ".join(f"{f.rule}@{f.path}:{f.line}" for f in findings)
                or "nothing"
            )
            result.failures.append(
                (
                    facade,
                    f"expected {program.rule}@{program.path}:{program.line}, "
                    f"got {got}",
                )
            )
        elif extras:
            result.failures.append(
                (facade, f"unexpected extra findings: {', '.join(extras)}")
            )
    return result
