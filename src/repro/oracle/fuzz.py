"""Differential fuzzing campaigns over the oracle invariant lattice.

One *trial* = draw an instance from a generator profile, evaluate it
through every oracle pair, check the configured invariants.  Trials fan
out through :func:`repro.runner.run_trials`, inheriting its determinism
guarantee: per-trial seeds come from the campaign machinery (crc32 +
``SeedSequence``) and the reduction is positional, so a campaign's
findings are bit-identical at any ``--jobs``.

Violations are delta-debugged (:mod:`repro.oracle.shrink`) in the parent
process to minimal counterexamples and persisted as JSON repro cases
under ``results/counterexamples/``; :func:`replay_counterexample` (and
``repro fuzz --replay``) re-runs the recorded invariant on the recorded
instance.

:func:`self_test` closes the loop on the harness itself: it injects a
deliberately broken Liu–Layland test (the ``n`` factor dropped from the
bound) and asserts the lattice catches it and the shrinker reduces the
finding to a ≤3-task, single-machine counterexample.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping, Sequence

from ..core.bounds import ADMISSION_TEST_NAMES, AdmissionTest, MachineState
from ..core.model import Platform, Task, TaskSet, leq
from ..io_.serialize import (
    FieldError,
    ValidationError,
    instance_digest,
    instance_from_dict,
    load_json,
    platform_to_dict,
    save_json,
    taskset_to_dict,
)
from ..runner import run_trials
from ..workloads.campaigns import Campaign, Trial
from .generators import PROFILES, draw_instance
from .invariants import CHECKS, OracleConfig, Violation, check_instance
from .shrink import shrink_instance

__all__ = [
    "COUNTEREXAMPLE_SCHEMA",
    "Counterexample",
    "FuzzReport",
    "run_fuzz",
    "replay_counterexample",
    "SelfTestResult",
    "self_test",
]

#: Schema tag stamped into every persisted counterexample.
COUNTEREXAMPLE_SCHEMA = "repro.oracle.counterexample/v1"


@dataclass(frozen=True)
class _FuzzItem:
    """Picklable unit of fuzz work (crosses the runner's process pool)."""

    trial: Trial
    profiles: tuple[str, ...]
    config: OracleConfig


def _evaluate_trial(item: _FuzzItem) -> dict[str, Any]:
    """One trial: draw, check, report (a plain picklable dict)."""
    rng = item.trial.rng()
    profile = item.profiles[int(rng.integers(0, len(item.profiles)))]
    taskset, platform = draw_instance(rng, profile)
    violations = check_instance(taskset, platform, item.config)
    record: dict[str, Any] = {
        "seed": item.trial.seed,
        "profile": profile,
        "n_tasks": len(taskset),
        "n_machines": len(platform),
        "violations": [v.as_dict() for v in violations],
    }
    if violations:
        record["taskset"] = taskset_to_dict(taskset)
        record["platform"] = platform_to_dict(platform)
    return record


@dataclass(frozen=True)
class Counterexample:
    """One shrunk, persisted lattice violation."""

    invariant: str
    detail: str
    seed: int
    profile: str
    digest: str
    n_tasks: int
    n_machines: int
    path: str | None


@dataclass(frozen=True)
class FuzzReport:
    """Outcome of a fuzz campaign.

    ``summary()`` is a pure function of the findings (no timing, no
    paths' mtimes), so two runs of the same campaign print identical
    text regardless of ``--jobs``.
    """

    seed: int
    trials: int
    violation_trials: int
    profiles: tuple[str, ...]
    checks: tuple[str, ...]
    by_profile: Mapping[str, int]
    counterexamples: tuple[Counterexample, ...]

    @property
    def ok(self) -> bool:
        return self.violation_trials == 0

    def summary(self) -> str:
        lines = [
            f"fuzz campaign: seed={self.seed} trials={self.trials} "
            f"profiles={','.join(self.profiles)}",
            f"checks: {', '.join(self.checks)}",
            "trials per profile: "
            + ", ".join(f"{p}={self.by_profile.get(p, 0)}" for p in self.profiles),
        ]
        if self.ok:
            lines.append("no invariant violations")
        else:
            lines.append(
                f"VIOLATIONS: {self.violation_trials} trial(s) broke the lattice"
            )
            for ce in self.counterexamples:
                lines.append(
                    f"  [{ce.invariant}] seed={ce.seed} profile={ce.profile} "
                    f"shrunk to {ce.n_tasks} task(s) x {ce.n_machines} "
                    f"machine(s) digest={ce.digest[:12]}"
                )
                lines.append(f"    {ce.detail}")
                if ce.path:
                    lines.append(f"    saved: {ce.path}")
        return "\n".join(lines)


def _shrink_predicate(invariant: str, config: OracleConfig):
    """Predicate preserving 'this specific invariant still fails'."""
    narrowed = OracleConfig(
        tests=config.tests,
        overrides=config.overrides,
        checks=(invariant,),
        margin=config.margin,
        edf_node_limit=config.edf_node_limit,
        rms_node_limit=config.rms_node_limit,
    )

    def predicate(taskset: TaskSet, platform: Platform) -> bool:
        return any(
            v.invariant == invariant
            for v in check_instance(taskset, platform, narrowed)
        )

    return predicate, narrowed


def _config_to_dict(config: OracleConfig) -> dict[str, Any]:
    return {
        "tests": list(config.tests),
        "checks": list(config.active_checks()),
        "margin": config.margin,
        "edf_node_limit": config.edf_node_limit,
        "rms_node_limit": config.rms_node_limit,
        # override *names* only: the objects carry code, not data
        "overrides": sorted(config.overrides) if config.overrides else [],
    }


def _persist_counterexample(
    out_dir: Path,
    invariant: str,
    violation: dict[str, str],
    taskset: TaskSet,
    platform: Platform,
    record: dict[str, Any],
    config: OracleConfig,
) -> tuple[str, str]:
    digest = instance_digest(taskset, platform)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{invariant}-{digest[:12]}.json"
    save_json(
        path,
        {
            "schema": COUNTEREXAMPLE_SCHEMA,
            "invariant": invariant,
            "detail": violation["detail"],
            "seed": record["seed"],
            "profile": record["profile"],
            "taskset": taskset_to_dict(taskset),
            "platform": platform_to_dict(platform),
            "digest": digest,
            "original": {
                "n_tasks": record["n_tasks"],
                "n_machines": record["n_machines"],
            },
            "config": _config_to_dict(config),
        },
    )
    return str(path), digest


def run_fuzz(
    *,
    seed: int = 0,
    budget: int = 1000,
    jobs: int | None = 1,
    profiles: Sequence[str] | None = None,
    checks: Sequence[str] | None = None,
    config: OracleConfig | None = None,
    shrink: bool = True,
    shrink_budget: int = 400,
    out_dir: str | Path | None = "results/counterexamples",
    campaign_name: str = "oracle-fuzz",
    stats_stream=None,
) -> FuzzReport:
    """Run a differential-fuzzing campaign.

    Parameters
    ----------
    seed, budget, jobs:
        Campaign root seed, number of trials, worker processes (``None``
        or 0 = all cores).  Findings are bit-identical across ``jobs``.
    profiles:
        Generator profiles to draw from (default: all of
        :data:`~repro.oracle.generators.PROFILES`).
    checks:
        Invariant names to check (default: the full lattice); mutually
        exclusive with passing a full ``config``.
    shrink, shrink_budget:
        Delta-debug each violation (in the parent) to a minimal
        counterexample, spending at most ``shrink_budget`` re-evaluations.
    out_dir:
        Where to persist shrunk counterexamples as JSON repro cases
        (``None`` disables persistence).
    stats_stream:
        Where to print the runner's throughput line (default stderr;
        never stdout — timing must not pollute deterministic output).
    """
    if budget < 1:
        raise ValueError("budget must be positive")
    if config is not None and checks is not None:
        raise ValueError("pass either config or checks, not both")
    if config is None:
        config = OracleConfig(checks=tuple(checks) if checks else ())
    profile_tuple = tuple(profiles) if profiles else tuple(PROFILES)
    for p in profile_tuple:
        if p not in PROFILES:
            raise KeyError(f"unknown profile {p!r}; known: {sorted(PROFILES)}")

    campaign = Campaign(
        name=campaign_name,
        grid={"slot": list(range(budget))},
        replications=1,
        base_seed=seed,
    )
    items = [
        _FuzzItem(trial=t, profiles=profile_tuple, config=config)
        for t in campaign
    ]
    run = run_trials(_evaluate_trial, items, jobs=jobs, label=campaign_name)
    print(run.stats.describe(), file=stats_stream or sys.stderr)

    by_profile: dict[str, int] = {}
    counterexamples: list[Counterexample] = []
    violation_trials = 0
    for record in run.records:
        by_profile[record["profile"]] = by_profile.get(record["profile"], 0) + 1
        if not record["violations"]:
            continue
        violation_trials += 1
        taskset, platform = instance_from_dict(record)
        # one counterexample per distinct broken invariant on this trial
        seen: set[str] = set()
        for violation in record["violations"]:
            invariant = violation["invariant"]
            if invariant in seen:
                continue
            seen.add(invariant)
            small_ts, small_pf, detail = taskset, platform, violation["detail"]
            if shrink:
                predicate, narrowed = _shrink_predicate(invariant, config)
                result = shrink_instance(
                    taskset,
                    platform,
                    predicate,
                    max_evaluations=shrink_budget,
                )
                small_ts, small_pf = result.taskset, result.platform
                fresh = [
                    v
                    for v in check_instance(small_ts, small_pf, narrowed)
                    if v.invariant == invariant
                ]
                if fresh:
                    detail = fresh[0].detail
            path = digest = None
            if out_dir is not None:
                path, digest = _persist_counterexample(
                    Path(out_dir),
                    invariant,
                    {"detail": detail},
                    small_ts,
                    small_pf,
                    record,
                    config,
                )
            else:
                digest = instance_digest(small_ts, small_pf)
            counterexamples.append(
                Counterexample(
                    invariant=invariant,
                    detail=detail,
                    seed=record["seed"],
                    profile=record["profile"],
                    digest=digest,
                    n_tasks=len(small_ts),
                    n_machines=len(small_pf),
                    path=path,
                )
            )
    return FuzzReport(
        seed=seed,
        trials=budget,
        violation_trials=violation_trials,
        profiles=profile_tuple,
        checks=config.active_checks(),
        by_profile=by_profile,
        counterexamples=tuple(counterexamples),
    )


def _recorded_config(recorded: Any, invariant: str) -> OracleConfig:
    """The check configuration a counterexample recorded, narrowed to
    its invariant."""
    if not isinstance(recorded, dict):
        raise ValidationError([FieldError("config", "must be an object")])
    tests = recorded.get("tests", list(OracleConfig.tests))
    margin = recorded.get("margin", OracleConfig.margin)
    errors = []
    if not isinstance(tests, list) or not all(t in ADMISSION_TEST_NAMES for t in tests):
        errors.append(FieldError(
            "config.tests", f"must be a list of names from {list(ADMISSION_TEST_NAMES)}"
        ))
    if isinstance(margin, bool) or not isinstance(margin, (int, float)) or not (
        0 <= margin < 1
    ):
        errors.append(
            FieldError("config.margin", f"must be a number in [0, 1), got {margin!r}")
        )
    if errors:
        raise ValidationError(errors)
    return OracleConfig(tests=tuple(tests), checks=(invariant,), margin=float(margin))


def replay_counterexample(
    path: str | Path, *, config: OracleConfig | None = None
) -> list[Violation]:
    """Re-run a persisted counterexample's invariant on its instance.

    Returns the violations observed *now* — empty means the recorded bug
    no longer reproduces (i.e. it has been fixed).  ``config`` overrides
    the recorded check configuration (needed to replay self-test cases,
    whose broken-test injection cannot be serialized).  A file that is
    no counterexample, or whose instance or recorded configuration is
    malformed, raises :class:`~repro.io_.serialize.ValidationError`
    naming the bad fields.
    """
    data = load_json(path)
    schema = data.get("schema") if isinstance(data, dict) else None
    if schema != COUNTEREXAMPLE_SCHEMA:
        raise ValidationError(
            [FieldError("schema", f"must be {COUNTEREXAMPLE_SCHEMA!r}, got {schema!r}")]
        )
    invariant = data.get("invariant")
    if not isinstance(invariant, str) or invariant not in CHECKS:
        raise ValidationError([FieldError(
            "invariant", f"must be one of {sorted(CHECKS)}, got {invariant!r}"
        )])
    taskset, platform = instance_from_dict(data)
    if config is None:
        config = _recorded_config(data.get("config", {}), invariant)
    return [
        v
        for v in check_instance(taskset, platform, config)
        if v.invariant == invariant
    ]


# ---------------------------------------------------------------------------
# Self-test: inject a known bug, assert the harness catches and shrinks it.
# ---------------------------------------------------------------------------


class _BrokenLLState(MachineState):
    """State for :class:`_BrokenLLTest` (kept one-shot-consistent so the
    injected bug is caught by the *lattice*, not by state drift)."""

    __slots__ = ("_utils",)

    def __init__(self, speed: float):
        super().__init__(speed)
        self._utils: list[float] = []

    def admits(self, task: Task) -> bool:
        n = len(self._utils) + 1
        bound = (2.0 ** (1.0 / n) - 1.0) * self.speed  # missing n factor!
        return leq(math.fsum(self._utils + [task.utilization]), bound)

    def add(self, task: Task) -> None:
        self._utils.append(task.utilization)

    @property
    def load(self) -> float:
        return math.fsum(self._utils)

    @property
    def count(self) -> int:
        return len(self._utils)


class _BrokenLLTest(AdmissionTest):
    """Liu–Layland with the ``n`` factor dropped: bound ``(2^{1/n}-1) s``
    instead of ``n (2^{1/n}-1) s``.  Massively over-rejects for n >= 2,
    so Theorem I.2's accept-side guarantee must fail on RMS-feasible
    instances — the violation the self-test expects the lattice to flag.
    """

    name = "rms-ll"

    def open(self, speed: float) -> MachineState:
        return _BrokenLLState(speed)

    def feasible(self, tasks, speed: float) -> bool:
        n = len(tasks)
        if n == 0:
            return True
        bound = (2.0 ** (1.0 / n) - 1.0) * speed
        return leq(math.fsum(t.utilization for t in tasks), bound)


@dataclass(frozen=True)
class SelfTestResult:
    """What the injected-bug run found."""

    trials_used: int
    caught: bool
    invariant: str | None
    shrunk_tasks: int | None
    shrunk_machines: int | None
    detail: str | None

    @property
    def ok(self) -> bool:
        """Bug caught and shrunk to the expected minimal size."""
        return (
            self.caught
            and (self.shrunk_tasks or 99) <= 3
            and (self.shrunk_machines or 99) <= 1
        )

    def summary(self) -> str:
        if not self.caught:
            return (
                f"SELF-TEST FAILED: injected broken Liu-Layland test was NOT "
                f"caught in {self.trials_used} trials"
            )
        status = "ok" if self.ok else "CAUGHT BUT UNDER-SHRUNK"
        return (
            f"self-test {status}: injected broken rms-ll caught by "
            f"[{self.invariant}] after {self.trials_used} trial(s), shrunk to "
            f"{self.shrunk_tasks} task(s) x {self.shrunk_machines} machine(s)\n"
            f"  {self.detail}"
        )


def self_test(
    *, seed: int = 0, budget: int = 200, shrink_budget: int = 400
) -> SelfTestResult:
    """Fault-injection check of the whole harness.

    Swaps the Liu–Layland admission test for :class:`_BrokenLLTest` and
    fuzzes until the Theorem I.2 speedup invariant flags it, then shrinks
    the finding.  A healthy harness catches the bug within ``budget``
    trials and shrinks it to at most 3 tasks on 1 machine.
    """
    config = OracleConfig(
        tests=("rms-ll",),
        overrides={"rms-ll": _BrokenLLTest()},
        checks=("theorem-speedup",),
    )
    campaign = Campaign(
        name="oracle-self-test",
        grid={"slot": list(range(budget))},
        replications=1,
        base_seed=seed,
    )
    profiles = ("uniform", "tiny", "boundary-rms-ll")
    for used, trial in enumerate(campaign, start=1):
        record = _evaluate_trial(
            _FuzzItem(trial=trial, profiles=profiles, config=config)
        )
        if not record["violations"]:
            continue
        violation = record["violations"][0]
        taskset, platform = instance_from_dict(record)
        predicate, narrowed = _shrink_predicate(violation["invariant"], config)
        result = shrink_instance(
            taskset, platform, predicate, max_evaluations=shrink_budget
        )
        fresh = [
            v
            for v in check_instance(result.taskset, result.platform, narrowed)
            if v.invariant == violation["invariant"]
        ]
        detail = fresh[0].detail if fresh else violation["detail"]
        return SelfTestResult(
            trials_used=used,
            caught=True,
            invariant=violation["invariant"],
            shrunk_tasks=len(result.taskset),
            shrunk_machines=len(result.platform),
            detail=detail,
        )
    return SelfTestResult(
        trials_used=budget,
        caught=False,
        invariant=None,
        shrunk_tasks=None,
        shrunk_machines=None,
        detail=None,
    )
