"""Shard worker: a private-cache canonical-verdict engine.

Two layers live here:

* :class:`ShardCore` — the transport-free unit of serving state: one
  bounded LRU of canonical verdicts plus the evaluation paths (scalar /
  kernel-batch) that fill it.  Every shard runs *this exact code*,
  in-process at ``--workers 0`` or in a worker process otherwise, which
  is what makes responses bit-identical across worker counts by
  construction rather than by testing luck.
* :func:`worker_main` — the shard worker process entry point
  (``python -m repro.service.shard --fd N``): a blocking frame loop
  over the socketpair inherited from the front end.  One worker owns
  one :class:`ShardCore`; because the front end routes every digest to
  a fixed shard, no lock is contended across processes and the LRU in
  each worker needs no coordination at all.

Canonical-query digest helpers (:func:`test_query_digest`,
:func:`partition_query_digest`) also live here so the front end and
the shards can never disagree on a cache key.
"""

# repro: noqa-file[REP006, REP010] — a shard worker is serial by
# construction (one frame loop, one thread, one process); its counters
# and core are never touched concurrently, which is the whole point of
# sharding, so no caller chain needs to hold a lock either.

from __future__ import annotations

import argparse
import os
import signal
import socket
import sys
import time
from typing import Any

from ..core.feasibility import feasibility_test, theorem_alpha
from ..core.partition import first_fit_partition
from ..io_.serialize import (
    instance_digest,
    partition_result_to_dict,
    report_to_dict,
)
from ..kernels import resolve_backend, test_feasibility_batch
from .cache import LRUCache
from .protocol import PartitionUnit, TestUnit, recv_frame, send_frame
from .validation import PartitionQuery, TestQuery

__all__ = [
    "CHAOS_EXIT_NAME",
    "CHAOS_EXIT_CODE",
    "CHAOS_SLEEP_PREFIX",
    "ShardCore",
    "test_query_digest",
    "partition_query_digest",
    "worker_main",
]

#: Fault-injection hooks, active only when a worker runs with
#: ``--chaos`` (tests and drills; never the default).  A task *name* is
#: free-form client data that reaches the worker unchanged, which makes
#: it a deterministic way to crash or stall a specific shard while it
#: is processing a specific request.
CHAOS_EXIT_NAME = "__chaos_exit__"
CHAOS_EXIT_CODE = 23
CHAOS_SLEEP_PREFIX = "__chaos_sleep_ms_"


def test_query_digest(q: TestQuery) -> tuple[str, float]:
    """Cache key and resolved alpha for a test query.

    Resolving ``alpha=None`` to the theorem's value first means an
    explicit ``alpha=2.0`` EDF/partitioned query and a defaulted one
    share a cache entry.
    """
    alpha = q.alpha if q.alpha is not None else theorem_alpha(
        q.scheduler, q.adversary  # type: ignore[arg-type]
    )
    digest = instance_digest(
        q.taskset,
        q.platform,
        query={
            "kind": "test",
            "scheduler": q.scheduler,
            "adversary": q.adversary,
            "alpha": alpha,
        },
    )
    return digest, alpha


def partition_query_digest(q: PartitionQuery) -> str:
    """Cache key for a partition query."""
    return instance_digest(
        q.taskset,
        q.platform,
        query={"kind": "partition", "test": q.test, "alpha": q.alpha},
    )


class ShardCore:
    """Canonical-verdict evaluation plus one private LRU.

    Verdicts are computed *on the canonical instance* (tasks subset
    into canonical order — done lazily, only on a miss) and cached in
    canonical terms under the caller-supplied digest; index remapping
    back to submission order is the caller's job (it owns the
    submission-order view).  ``backend_tests`` counts computed verdicts
    (cache misses only; hits never re-run a backend) per backend name.
    """

    def __init__(self, *, cache_size: int = 1024, backend: str | None = None):
        self.backend = resolve_backend(backend) if backend is not None else None
        self.cache = LRUCache(cache_size)
        self.backend_tests: dict[str, int] = {}

    def _observe_backend(self, count: int = 1) -> None:
        name = self.backend or "scalar"
        self.backend_tests[name] = self.backend_tests.get(name, 0) + count

    # -- single verdicts ----------------------------------------------------
    def test(self, unit: TestUnit) -> tuple[dict[str, Any], bool]:
        """(canonical report dict, was it cached) for one test unit."""
        canon = self.cache.get(unit.digest)
        if canon is not None:
            return canon, True
        canonical = unit.taskset.subset(list(unit.order))
        if self.backend is None:
            report = feasibility_test(
                canonical,
                unit.platform,
                unit.scheduler,  # type: ignore[arg-type]
                unit.adversary,  # type: ignore[arg-type]
                alpha=unit.alpha,
            )
            canon = report_to_dict(report)
        else:
            report = test_feasibility_batch(
                [(canonical, unit.platform)],
                unit.scheduler,  # type: ignore[arg-type]
                unit.adversary,  # type: ignore[arg-type]
                alpha=unit.alpha,
                backend=self.backend,
            )[0]
            canon = report_to_dict(report, backend=self.backend)
        self._observe_backend()
        self.cache.put(unit.digest, canon)
        return canon, False

    def partition(self, unit: PartitionUnit) -> tuple[dict[str, Any], bool]:
        """(canonical partition dict, was it cached) for one unit."""
        canon = self.cache.get(unit.digest)
        if canon is not None:
            return canon, True
        result = first_fit_partition(
            unit.taskset.subset(list(unit.order)),
            unit.platform,
            unit.test,
            alpha=unit.alpha,
        )
        canon = partition_result_to_dict(result)
        self.cache.put(unit.digest, canon)
        return canon, False

    # -- batches ------------------------------------------------------------
    def batch(self, units: list[TestUnit]) -> list[tuple[dict[str, Any], bool]]:
        """Cache-aware batch evaluation, results in ``units`` order.

        Scan every unit against the cache first (classifying hit/miss),
        dedup misses by digest (permutations of one instance evaluate
        once), evaluate the distinct misses — one scalar call each, or
        one kernel call per theorem config — then fill results
        positionally.  Both copies of a deduped digest report
        ``cached=False``: they were misses at scan time.
        """
        canon_reports: list[dict[str, Any] | None] = []
        misses: list[int] = []
        for unit in units:
            canon = self.cache.get(unit.digest)
            canon_reports.append(canon)
            if canon is None:
                misses.append(len(canon_reports) - 1)
        pending: dict[str, list[int]] = {}
        for k in misses:
            pending.setdefault(units[k].digest, []).append(k)
        firsts = [units[ks[0]] for ks in pending.values()]
        if firsts:
            if self.backend is None:
                records = [
                    report_to_dict(
                        feasibility_test(
                            unit.taskset.subset(list(unit.order)),
                            unit.platform,
                            unit.scheduler,  # type: ignore[arg-type]
                            unit.adversary,  # type: ignore[arg-type]
                            alpha=unit.alpha,
                        )
                    )
                    for unit in firsts
                ]
            else:
                records = self._evaluate_batch_kernel(firsts)
            self._observe_backend(len(firsts))
            for (digest, ks), canon in zip(pending.items(), records):
                self.cache.put(digest, canon)
                for k in ks:
                    canon_reports[k] = canon
        return [
            (canon, k not in misses)
            for k, canon in enumerate(canon_reports)  # type: ignore[misc]
        ]

    def _evaluate_batch_kernel(
        self, units: list[TestUnit]
    ) -> list[dict[str, Any]]:
        """Batch-evaluate misses through the selected backend.

        Misses are grouped by theorem config (scheduler, adversary,
        alpha) so each group becomes *one*
        :func:`~repro.kernels.test_feasibility_batch` call — within a
        group the kernels further shard by instance shape.
        """
        groups: dict[tuple[str, str, float | None], list[int]] = {}
        for t, unit in enumerate(units):
            groups.setdefault(
                (unit.scheduler, unit.adversary, unit.alpha), []
            ).append(t)
        out: list[dict[str, Any]] = [{} for _ in units]
        for (scheduler, adversary, alpha), idxs in groups.items():
            reports = test_feasibility_batch(
                [
                    (units[t].taskset.subset(list(units[t].order)), units[t].platform)
                    for t in idxs
                ],
                scheduler,  # type: ignore[arg-type]
                adversary,  # type: ignore[arg-type]
                alpha=alpha,
                backend=self.backend,
            )
            for t, rep in zip(idxs, reports):
                out[t] = report_to_dict(rep, backend=self.backend)
        return out


# -- the worker process ------------------------------------------------------


class _Worker:
    """One shard worker: a :class:`ShardCore` behind a frame loop."""

    def __init__(
        self,
        shard: int,
        *,
        cache_size: int,
        backend: str | None,
        chaos: bool,
    ):
        self.shard = shard
        self.chaos = chaos
        self._requests: dict[str, int] = {}
        self._items = 0
        self.core = ShardCore(cache_size=cache_size, backend=backend)

    def _apply_chaos(self, units: list[TestUnit | PartitionUnit]) -> None:
        """Honour fault-injection task names (``--chaos`` runs only)."""
        if not self.chaos:
            return
        for unit in units:
            for task in unit.taskset:
                name = task.name
                if name == CHAOS_EXIT_NAME:
                    # A real crash, not an exception: the point is to
                    # exercise the front end's dead-shard detection and
                    # replay path, so nothing here may unwind politely.
                    os._exit(CHAOS_EXIT_CODE)
                if name.startswith(CHAOS_SLEEP_PREFIX):
                    ms = float(name[len(CHAOS_SLEEP_PREFIX):].rstrip("_"))
                    time.sleep(ms / 1000.0)

    def stats(self) -> dict[str, Any]:
        """The per-shard observability snapshot (``stats`` frames)."""
        return {
            "shard": self.shard,
            "pid": os.getpid(),
            "requests": dict(sorted(self._requests.items())),
            "items": self._items,
            "cache": self.core.cache.stats().as_dict(),
            "backend_tests": dict(sorted(self.core.backend_tests.items())),
        }

    def dispatch(self, op: str, payload: Any) -> Any:
        self._requests[op] = self._requests.get(op, 0) + 1
        if op == "test":
            self._apply_chaos([payload])
            self._items += 1
            return self.core.test(payload)
        if op == "partition":
            self._apply_chaos([payload])
            self._items += 1
            return self.core.partition(payload)
        if op == "batch":
            self._apply_chaos(payload)
            self._items += len(payload)
            return self.core.batch(payload)
        if op == "stats":
            return self.stats()
        if op in ("ping", "shutdown"):
            return None
        raise ValueError(f"unknown op {op!r}")


def serve_connection(sock: socket.socket, worker: _Worker) -> int:
    """Answer frames until ``shutdown`` or EOF.  Returns an exit code.

    Frames are answered strictly in arrival order; an exception inside
    a handler produces an ``error`` response for that frame and the
    loop continues — only a closed socket or an explicit ``shutdown``
    ends the worker, so one poisoned request can never take a shard
    (and its warm cache) down with it.
    """
    while True:
        message = recv_frame(sock)
        if message is None:
            return 0  # front end closed the pair: drain finished
        op, seq, payload = message
        try:
            result = worker.dispatch(op, payload)
            response = (seq, "ok", result)
        except Exception as exc:  # noqa: BLE001 - reported to the front end
            response = (seq, "error", f"{type(exc).__name__}: {exc}")
        try:
            send_frame(sock, response)
        except (BrokenPipeError, ConnectionError):
            return 0  # front end went away mid-reply
        if op == "shutdown":
            return 0


def worker_main(argv: list[str] | None = None) -> int:
    """Entry point for ``python -m repro.service.shard``."""
    parser = argparse.ArgumentParser(prog="repro.service.shard")
    parser.add_argument("--fd", type=int, required=True,
                        help="inherited socketpair file descriptor")
    parser.add_argument("--shard", type=int, required=True)
    parser.add_argument("--cache-size", type=int, default=1024)
    parser.add_argument("--backend", default=None)
    parser.add_argument("--chaos", action="store_true")
    args = parser.parse_args(argv)

    # The front end owns shutdown: it drains via explicit frames (or by
    # closing the socketpair), so terminal-delivered SIGINT/SIGTERM to
    # the process group must not kill a shard mid-drain.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_IGN)

    sock = socket.socket(fileno=args.fd)
    worker = _Worker(
        args.shard,
        cache_size=args.cache_size,
        backend=args.backend,
        chaos=args.chaos,
    )
    try:
        return serve_connection(sock, worker)
    finally:
        sock.close()


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(worker_main())
