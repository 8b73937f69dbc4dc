"""Acceptance-ratio sweeps (experiments E2/E3/E7/E9).

An acceptance sweep generates many random task sets per normalized-
utilization point and measures, per tester, the fraction accepted — the
schedulability-curve methodology standard in this literature.  Testers
are plain predicates ``(taskset, platform) -> bool`` so the same sweep
machinery serves first-fit variants, the LP oracle, exact adversaries and
the PTAS alike (:func:`ff_tester` etc. build the common ones).

Each (utilization point, sample) pair is one :class:`Trial` of a
:class:`~repro.workloads.campaigns.Campaign` with its own derived seed,
executed through :func:`repro.runner.run_trials` — so the sweep
parallelizes across trials with results bit-identical to ``jobs=1``.
The built-in testers are picklable objects (not closures) so they cross
the pool boundary; custom testers must be picklable too when ``jobs > 1``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from ..baselines.exact import (
    exact_partitioned_edf_feasible,
    exact_partitioned_rms_feasible,
)
from ..core.lp import lp_feasible
from ..core.model import Platform, TaskSet
from ..core.partition import first_fit_partition
from ..kernels import BATCH_TESTS, first_fit_batch
from ..runner import run_trials
from ..workloads.builder import generate_taskset
from ..workloads.campaigns import Campaign, Trial, campaign_seed

__all__ = [
    "Tester",
    "FirstFitTester",
    "ExactEDFTester",
    "ExactRMSTester",
    "ff_tester",
    "lp_tester",
    "exact_edf_tester",
    "exact_rms_tester",
    "AcceptanceCurve",
    "acceptance_sweep",
]

Tester = Callable[[TaskSet, Platform], bool]


@dataclass(frozen=True)
class FirstFitTester:
    """First-fit acceptance predicate for an admission test and alpha."""

    test: str
    alpha: float = 1.0

    def __call__(self, taskset: TaskSet, platform: Platform) -> bool:
        return first_fit_partition(
            taskset, platform, self.test, alpha=self.alpha
        ).success


@dataclass(frozen=True)
class ExactEDFTester:
    """Exact partitioned-EDF adversary; undecided (budget) counts as
    accepted, keeping the curve an upper bound as intended."""

    node_limit: int = 500_000

    def __call__(self, taskset: TaskSet, platform: Platform) -> bool:
        verdict = exact_partitioned_edf_feasible(
            taskset, platform, node_limit=self.node_limit
        )
        return verdict is not False


@dataclass(frozen=True)
class ExactRMSTester:
    """Exact partitioned-RMS (RTA) adversary; undecided counts as accepted."""

    node_limit: int = 100_000

    def __call__(self, taskset: TaskSet, platform: Platform) -> bool:
        verdict = exact_partitioned_rms_feasible(
            taskset, platform, node_limit=self.node_limit
        )
        return verdict is not False


def ff_tester(test: str, alpha: float = 1.0) -> Tester:
    """First-fit acceptance predicate for an admission test and alpha."""
    return FirstFitTester(test, alpha)


def lp_tester() -> Tester:
    """The §II LP oracle (necessary condition for any scheduler)."""
    return lp_feasible


def exact_edf_tester(node_limit: int = 500_000) -> Tester:
    """Exact partitioned-EDF adversary tester (see :class:`ExactEDFTester`)."""
    return ExactEDFTester(node_limit)


def exact_rms_tester(node_limit: int = 100_000) -> Tester:
    """Exact partitioned-RMS adversary tester (see :class:`ExactRMSTester`)."""
    return ExactRMSTester(node_limit)


@dataclass(frozen=True)
class AcceptanceCurve:
    """One sweep's results: rows = normalized utilizations, cols = testers."""

    normalized_utilizations: tuple[float, ...]
    #: tester name -> acceptance rate per utilization point
    rates: Mapping[str, tuple[float, ...]]
    samples: int
    n_tasks: int

    def as_rows(self) -> list[dict[str, float]]:
        """Table rows: one dict per utilization point."""
        rows = []
        for k, u in enumerate(self.normalized_utilizations):
            row: dict[str, float] = {"U/S": u}
            for name, series in self.rates.items():
                row[name] = series[k]
            rows.append(row)
        return rows


def _acceptance_trial(
    trial: Trial,
    *,
    platform: Platform,
    testers: dict[str, Tester],
    n_tasks: int,
    cap: float,
    dr_dist: str = "implicit",
    dr_min: float = 0.5,
    dr_max: float = 1.0,
) -> dict[str, bool]:
    """One sweep sample: draw a task set at the trial's utilization point
    and evaluate every tester on it.  Pure in (trial.seed, trial.params)."""
    rng = trial.rng()
    total = trial.params["U/S"] * platform.total_speed
    taskset = generate_taskset(
        rng,
        n_tasks,
        total,
        u_max=min(cap, total),
        dr_dist=dr_dist,  # type: ignore[arg-type]
        dr_min=dr_min,
        dr_max=dr_max,
    )
    return {
        name: bool(tester(taskset, platform))
        for name, tester in testers.items()
    }


@dataclass(frozen=True)
class _AcceptanceBatch:
    """Picklable whole-chunk evaluator for :func:`acceptance_sweep`.

    Draws every trial's task set exactly as :func:`_acceptance_trial`
    does (same per-trial RNG stream), then evaluates each
    :class:`FirstFitTester` over the chunk with *one*
    :func:`repro.kernels.first_fit_batch` call; testers the kernels do
    not cover (LP, exact adversaries, custom predicates) fall back to
    the scalar per-instance call.  Record-identical to the per-trial
    path — the kernels are bit-identical to the scalar partitioner.
    """

    platform: Platform
    testers: tuple[tuple[str, Tester], ...]
    n_tasks: int
    cap: float
    backend: str
    dr_dist: str = "implicit"
    dr_min: float = 0.5
    dr_max: float = 1.0

    def __call__(self, trials: Sequence[Trial]) -> list[dict[str, bool]]:
        tasksets = []
        for trial in trials:
            rng = trial.rng()
            total = trial.params["U/S"] * self.platform.total_speed
            tasksets.append(
                generate_taskset(
                    rng,
                    self.n_tasks,
                    total,
                    u_max=min(self.cap, total),
                    dr_dist=self.dr_dist,  # type: ignore[arg-type]
                    dr_min=self.dr_min,
                    dr_max=self.dr_max,
                )
            )
        instances = [(ts, self.platform) for ts in tasksets]
        columns: list[list[bool]] = []
        for _, tester in self.testers:
            if (
                isinstance(tester, FirstFitTester)
                and tester.test in BATCH_TESTS
            ):
                results = first_fit_batch(
                    instances,
                    tester.test,
                    alpha=tester.alpha,
                    backend=self.backend,
                )
                columns.append([r.success for r in results])
            else:
                columns.append(
                    [bool(tester(ts, self.platform)) for ts in tasksets]
                )
        names = [nm for nm, _ in self.testers]
        return [
            dict(zip(names, flags)) for flags in zip(*columns)
        ] if trials else []


def acceptance_sweep(
    seed: int | np.random.Generator,
    platform: Platform,
    testers: Mapping[str, Tester],
    *,
    n_tasks: int = 24,
    normalized_utilizations: Sequence[float] = (
        0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0,
    ),
    samples: int = 50,
    u_max_fraction: float = 1.0,
    jobs: int | None = 1,
    chunk_size: int | None = None,
    name: str = "acceptance",
    backend: str | None = None,
    dr_dist: str = "implicit",
    dr_min: float = 0.5,
    dr_max: float = 1.0,
) -> AcceptanceCurve:
    """Measure acceptance rates on UUniFast task sets.

    At each point ``x``, task sets have total utilization ``x *
    total_speed`` with per-task utilization capped at ``u_max_fraction *
    fastest_speed`` (tasks larger than the fastest machine are hopeless
    for every tester and would only flatten all curves equally).

    ``seed`` may be an integer (the reproducible way) or a Generator (one
    root seed is drawn from it).  Every (point, sample) pair becomes one
    independently seeded trial fanned out over ``jobs`` workers; the
    resulting curve is bit-identical for every ``jobs`` value.  ``name``
    labels the campaign and is folded into the trial seeds.

    ``backend`` (``scalar`` / ``numpy``) routes the
    first-fit testers through :func:`repro.kernels.first_fit_batch`, a
    whole trial chunk per call; ``None`` keeps the per-trial scalar
    path.  The curve is bit-identical either way.

    ``dr_dist``/``dr_min``/``dr_max`` select the deadline-ratio axis of
    :func:`repro.workloads.builder.generate_taskset`; the ``implicit``
    default draws no extra random numbers, so existing pinned curves are
    unchanged.
    """
    if samples < 1:
        raise ValueError("samples must be positive")
    cap = u_max_fraction * platform.fastest_speed
    xs = tuple(float(x) for x in normalized_utilizations)
    campaign = Campaign(
        name=name,
        grid={"U/S": xs},
        replications=samples,
        base_seed=campaign_seed(seed),
    )
    fn = functools.partial(
        _acceptance_trial,
        platform=platform,
        testers=dict(testers),
        n_tasks=n_tasks,
        cap=cap,
        dr_dist=dr_dist,
        dr_min=dr_min,
        dr_max=dr_max,
    )
    batch_fn = None
    if backend is not None:
        from ..kernels import resolve_backend

        batch_fn = _AcceptanceBatch(
            platform=platform,
            testers=tuple(testers.items()),
            n_tasks=n_tasks,
            cap=cap,
            backend=resolve_backend(backend),
            dr_dist=dr_dist,
            dr_min=dr_min,
            dr_max=dr_max,
        )
    run = run_trials(
        fn,
        campaign,
        jobs=jobs,
        chunk_size=chunk_size,
        label=name,
        batch_fn=batch_fn,
    )
    names = list(testers)
    counts = {nm: [0] * len(xs) for nm in names}
    records = iter(run.records)
    for k in range(len(xs)):
        for _ in range(samples):
            record = next(records)
            for nm in names:
                if record[nm]:
                    counts[nm][k] += 1
    rates = {nm: tuple(c / samples for c in counts[nm]) for nm in names}
    return AcceptanceCurve(
        normalized_utilizations=xs,
        rates=rates,
        samples=samples,
        n_tasks=n_tasks,
    )
