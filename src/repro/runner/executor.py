"""Deterministic trial fan-out over a process pool.

Execution model
---------------
A *campaign* is any finite iterable of trial items (typically
:class:`repro.workloads.campaigns.Trial`), each carrying everything the
per-trial function needs — a seed and a parameter mapping, plus any
input the caller already drew from that seed.  An acceptance sweep's
items carry the task set it drew in the parent, so its workers only
evaluate.  The runner:

1. materializes the trials and assigns each its position index;
2. splits them into contiguous chunks (amortizing pool round-trips);
3. executes chunks on ``jobs`` worker processes;
4. places every record back at its trial's index.

Step 4 is the determinism guarantee: the reduction is positional, so the
completion order of workers cannot influence the output.  Combined with
per-trial seeding (no shared RNG stream) the parallel result is
bit-identical to the ``jobs=1`` in-process fast path, which never touches
a pool and therefore costs tests and debugging nothing.

Requirements on the per-trial function: it must be *pure* given the trial
item (no mutable global state), and — for ``jobs > 1`` only — both the
function and its records must be picklable (module-level functions and
``functools.partial`` of them qualify; closures do not).

Failures in workers are re-raised in the parent as :class:`TrialError`
carrying the failing trial's seed and params, always for the *lowest*
failing trial index so error reporting is deterministic too.
"""

from __future__ import annotations

import math
import os
import time
import traceback
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Sequence

from .telemetry import record_stats

__all__ = [
    "TrialError",
    "WorkerStats",
    "RunStats",
    "CampaignRun",
    "resolve_jobs",
    "default_chunk_size",
    "run_trials",
]


class TrialError(RuntimeError):
    """A per-trial function raised; identifies the failing trial."""

    def __init__(
        self,
        message: str,
        *,
        index: int | None = None,
        seed: int | None = None,
        params: Any = None,
    ):
        super().__init__(message)
        self.index = index
        self.seed = seed
        self.params = params


def _trial_error(index: int, item: Any, detail: str) -> TrialError:
    seed = getattr(item, "seed", None)
    params = getattr(item, "params", None)
    return TrialError(
        f"trial {index} failed (seed={seed}, params={dict(params) if params else params}): "
        f"{detail}",
        index=index,
        seed=seed,
        params=params,
    )


@dataclass(frozen=True)
class WorkerStats:
    """Per-worker accounting: how many trials it ran and its CPU time."""

    worker: str
    trials: int
    cpu_time: float


@dataclass(frozen=True)
class RunStats:
    """Throughput measurement for one campaign run.

    ``cpu_time`` sums worker process CPU over the per-trial work only, so
    ``parallel_speedup = cpu_time / wall_time`` measures realized
    parallelism and ``worker_utilization`` how evenly it was spread —
    the speedup is *measured*, never assumed.
    """

    label: str
    trials: int
    jobs: int
    chunks: int
    chunk_size: int
    wall_time: float
    cpu_time: float
    workers: tuple[WorkerStats, ...]

    @property
    def trials_per_second(self) -> float:
        return self.trials / self.wall_time if self.wall_time > 0 else 0.0

    @property
    def parallel_speedup(self) -> float:
        """Aggregate worker CPU per wall second (1.0 = serial pace)."""
        return self.cpu_time / self.wall_time if self.wall_time > 0 else 0.0

    @property
    def worker_utilization(self) -> float:
        """Fraction of the ``jobs``-wide budget spent computing trials."""
        denom = self.wall_time * self.jobs
        return self.cpu_time / denom if denom > 0 else 0.0

    def as_row(self) -> dict[str, Any]:
        """Table-ready summary row."""
        return {
            "campaign": self.label,
            "trials": self.trials,
            "jobs": self.jobs,
            "chunks": self.chunks,
            "wall s": self.wall_time,
            "cpu s": self.cpu_time,
            "trials/s": self.trials_per_second,
            "speedup": self.parallel_speedup,
            "utilization": self.worker_utilization,
        }

    def describe(self) -> str:
        return (
            f"{self.label}: {self.trials} trials on {self.jobs} worker(s) in "
            f"{self.wall_time:.3f}s wall / {self.cpu_time:.3f}s cpu "
            f"({self.trials_per_second:.1f} trials/s, speedup "
            f"{self.parallel_speedup:.2f}x, utilization "
            f"{self.worker_utilization:.0%})"
        )


@dataclass(frozen=True)
class CampaignRun:
    """Records (in trial order) plus the run's throughput stats."""

    records: list[Any]
    stats: RunStats

    def __iter__(self):
        return iter(self.records)

    def __len__(self) -> int:
        return len(self.records)


def resolve_jobs(jobs: int | None) -> int:
    """Normalize a ``--jobs`` value: ``None``/``0`` means all cores."""
    if jobs is None or jobs == 0:
        return os.cpu_count() or 1
    if jobs < 0:
        raise ValueError(f"jobs must be >= 0, got {jobs}")
    return int(jobs)


def default_chunk_size(n_trials: int, jobs: int) -> int:
    """Aim for ~4 chunks per worker: large enough to amortize pool IPC,
    small enough that stragglers rebalance."""
    if n_trials <= 0:
        return 1
    return max(1, math.ceil(n_trials / (4 * max(1, jobs))))


def _run_chunk(
    fn: Callable[[Any], Any], chunk: Sequence[tuple[int, Any]]
) -> tuple[int, float, list[tuple[int, bool, Any]]]:
    """Worker-side loop: run every trial of a chunk, never raise.

    Exceptions become ``(index, False, detail)`` entries so the parent can
    pick the lowest failing index deterministically.
    """
    out: list[tuple[int, bool, Any]] = []
    cpu0 = time.process_time()
    for index, item in chunk:
        try:
            out.append((index, True, fn(item)))
        except Exception:
            out.append((index, False, traceback.format_exc(limit=16)))
    return os.getpid(), time.process_time() - cpu0, out


def _run_chunk_batch(
    batch_fn: Callable[[Sequence[Any]], Sequence[Any]],
    chunk: Sequence[tuple[int, Any]],
) -> tuple[int, float, list[tuple[int, bool, Any]]]:
    """Worker-side batch variant: the whole chunk in one ``batch_fn`` call.

    A failure inside the batch call cannot be pinned to one trial, so it
    is attributed to the chunk's lowest index (deterministic, and the
    batch contract says record ``i`` corresponds to item ``i`` — a batch
    that raises has produced no record for any of them).
    """
    cpu0 = time.process_time()
    try:
        records = list(batch_fn([item for _, item in chunk]))
        if len(records) != len(chunk):
            raise RuntimeError(
                f"batch_fn returned {len(records)} records for "
                f"{len(chunk)} trials"
            )
        out: list[tuple[int, bool, Any]] = [
            (index, True, rec) for (index, _), rec in zip(chunk, records)
        ]
    except Exception:
        detail = traceback.format_exc(limit=16)
        out = [(chunk[0][0], False, detail)]
    return os.getpid(), time.process_time() - cpu0, out


def run_trials(
    fn: Callable[[Any], Any],
    trials: Iterable[Any],
    *,
    jobs: int | None = 1,
    chunk_size: int | None = None,
    label: str = "campaign",
    batch_fn: Callable[[Sequence[Any]], Sequence[Any]] | None = None,
) -> CampaignRun:
    """Execute ``fn`` over every trial, serially or on a process pool.

    Parameters
    ----------
    fn:
        Pure per-trial function ``(trial) -> record``.  Picklable for
        ``jobs > 1`` (module-level function or ``functools.partial``).
    trials:
        Finite iterable of trial items (e.g. a
        :class:`~repro.workloads.campaigns.Campaign`).
    jobs:
        Worker processes; ``1`` (default) runs in-process with zero pool
        overhead, ``None``/``0`` uses every core.
    chunk_size:
        Trials per pool task; default :func:`default_chunk_size`.
    label:
        Name attached to the stats (and any active telemetry context).
    batch_fn:
        Optional batch evaluator ``(items) -> records`` (same length and
        order) that *replaces* ``fn`` for execution — e.g. a
        :mod:`repro.kernels` batch kernel that evaluates a whole chunk in
        one array pass.  Serially the entire campaign is one call; on a
        pool each worker makes one call per chunk.  It must agree with
        ``fn`` record-for-record (``fn`` remains the spec and is used in
        error messages); picklability rules match ``fn``.

    Returns
    -------
    CampaignRun
        ``records[i]`` is ``fn(trials[i])`` regardless of ``jobs``.

    Raises
    ------
    TrialError
        if any trial raised; the lowest-index failure is reported, with
        the trial's seed and params in the message.  A ``batch_fn``
        failure is attributed to the lowest index of the batch it broke.
    """
    items = list(trials)
    n = len(items)
    n_jobs = resolve_jobs(jobs)
    records: list[Any] = [None] * n
    wall0 = time.perf_counter()

    if n_jobs <= 1 or n <= 1:
        cpu0 = time.process_time()
        if batch_fn is not None and n:
            try:
                out = list(batch_fn(items))
                if len(out) != n:
                    raise RuntimeError(
                        f"batch_fn returned {len(out)} records for "
                        f"{n} trials"
                    )
                records = out
            except Exception as exc:
                raise _trial_error(0, items[0], repr(exc)) from exc
        else:
            for i, item in enumerate(items):
                try:
                    records[i] = fn(item)
                except Exception as exc:
                    raise _trial_error(i, item, repr(exc)) from exc
        cpu = time.process_time() - cpu0
        stats = RunStats(
            label=label,
            trials=n,
            jobs=1,
            chunks=1 if n else 0,
            chunk_size=n,
            wall_time=time.perf_counter() - wall0,
            cpu_time=cpu,
            workers=(WorkerStats(f"pid:{os.getpid()}", n, cpu),) if n else (),
        )
        record_stats(stats)
        return CampaignRun(records=records, stats=stats)

    size = chunk_size if chunk_size is not None else default_chunk_size(n, n_jobs)
    if size < 1:
        raise ValueError(f"chunk_size must be positive, got {size}")
    indexed = list(enumerate(items))
    chunks = [indexed[k : k + size] for k in range(0, n, size)]
    per_worker: dict[int, list[float]] = {}  # pid -> [trials, cpu_time]
    failures: list[tuple[int, str]] = []

    with ProcessPoolExecutor(max_workers=min(n_jobs, len(chunks))) as pool:
        if batch_fn is not None:
            futures = [
                pool.submit(_run_chunk_batch, batch_fn, chunk)
                for chunk in chunks
            ]
        else:
            futures = [pool.submit(_run_chunk, fn, chunk) for chunk in chunks]
        # Collect in submission order: chunks still run concurrently, but
        # bookkeeping (and failure selection) stays deterministic.
        for future in futures:
            pid, cpu, results = future.result()
            acc = per_worker.setdefault(pid, [0, 0.0])
            acc[0] += len(results)
            acc[1] += cpu
            for index, ok, payload in results:
                if ok:
                    records[index] = payload
                else:
                    failures.append((index, payload))

    if failures:
        index, detail = min(failures, key=lambda f: f[0])
        raise _trial_error(index, items[index], f"worker traceback:\n{detail}")

    workers = tuple(
        WorkerStats(f"pid:{pid}", int(tr), cpu)
        for pid, (tr, cpu) in sorted(per_worker.items())
    )
    stats = RunStats(
        label=label,
        trials=n,
        jobs=n_jobs,
        chunks=len(chunks),
        chunk_size=size,
        wall_time=time.perf_counter() - wall0,
        cpu_time=sum(w.cpu_time for w in workers),
        workers=workers,
    )
    record_stats(stats)
    return CampaignRun(records=records, stats=stats)
