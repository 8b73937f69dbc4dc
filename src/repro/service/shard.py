"""Shard worker: a private-cache canonical-verdict engine.

Two layers live here:

* :class:`ShardCore` — the transport-free unit of serving state: one
  bounded LRU of canonical verdicts, each held as the pickled bytes a
  reply frame carries, plus the evaluation paths (scalar /
  kernel-batch) that fill it.  Every shard runs *this exact code*,
  in-process at ``--workers 0`` or in a worker process otherwise, which
  is what makes responses bit-identical across worker counts by
  construction rather than by testing luck.
* :func:`fork_worker` — the shard worker process: a fork of the front
  end that keeps only its end of a ``socketpair`` and runs a blocking
  frame loop over it.  One worker owns one :class:`ShardCore`; because
  the front end routes every digest to a fixed shard, no lock is
  contended across processes and the LRU in each worker needs no
  coordination at all.

Canonical-query digest helpers (:func:`test_query_digest`,
:func:`partition_query_digest`) and the unit builders the front end
routes with (:func:`test_query_unit`, :func:`partition_query_unit`)
also live here, so the front end and the shards can never disagree on
a cache key.
"""

# repro: noqa-file[REP006] — a shard worker is serial by
# construction (one frame loop, one thread, one process); its counters
# and core are never touched concurrently, which is the whole point of
# sharding, so no caller chain needs to hold a lock either.

from __future__ import annotations

import gc
import os
import signal
import socket
import sys
import time
from typing import Any

# re-exported: benchmarks/perf/tracing.py wraps shard.feasibility_test (core.eval)
from ..core.feasibility import feasibility_test, theorem_alpha  # noqa: F401
from ..core.model import TaskSet
from ..core.partition import first_fit_partition
from ..io_.serialize import (
    canonical_digest,
    instance_digest,
    partition_result_to_dict,
    report_to_dict,
    task_rows,
)
from ..kernels import resolve_backend, test_feasibility_batch
from .cache import LRUCache
from .protocol import PartitionUnit, TestUnit, pickled, recv_frame, send_frame
from .validation import PartitionQuery, TestQuery

__all__ = [
    "CHAOS_EXIT_NAME",
    "CHAOS_EXIT_CODE",
    "CHAOS_SLEEP_PREFIX",
    "ShardCore",
    "test_query_digest",
    "partition_query_digest",
    "test_query_unit",
    "partition_query_unit",
    "fork_worker",
]

#: Fault-injection hooks, active only when the service runs with
#: ``--chaos`` (tests and drills; never the default).  A task *name* is
#: free-form client data; a ``--chaos`` front end copies these names into
#: the unit it routes, which makes them a deterministic way to crash or
#: stall a specific shard while it is processing a specific request.
CHAOS_EXIT_NAME = "__chaos_exit__"
CHAOS_EXIT_CODE = 23
CHAOS_SLEEP_PREFIX = "__chaos_sleep_ms_"


def _chaos_hooks(taskset: TaskSet) -> tuple[str, ...]:
    """The fault-injection task names in ``taskset``, in task order."""
    return tuple(
        t.name
        for t in taskset
        if t.name == CHAOS_EXIT_NAME or t.name.startswith(CHAOS_SLEEP_PREFIX)
    )


def _test_query(q: TestQuery) -> dict[str, Any]:
    """The query parameters a test digest covers.

    Resolving ``alpha=None`` to the theorem's value first means an
    explicit ``alpha=2.0`` EDF/partitioned query and a defaulted one
    share a cache entry.
    """
    alpha = q.alpha if q.alpha is not None else theorem_alpha(
        q.scheduler, q.adversary  # type: ignore[arg-type]
    )
    return {
        "kind": "test",
        "scheduler": q.scheduler,
        "adversary": q.adversary,
        "alpha": alpha,
    }


def _partition_query(q: PartitionQuery) -> dict[str, Any]:
    return {"kind": "partition", "test": q.test, "alpha": q.alpha}


def test_query_digest(q: TestQuery) -> tuple[str, float]:
    """Cache key and resolved alpha for a test query."""
    query = _test_query(q)
    return instance_digest(q.taskset, q.platform, query=query), query["alpha"]


def partition_query_digest(q: PartitionQuery) -> str:
    """Cache key for a partition query."""
    return instance_digest(q.taskset, q.platform, query=_partition_query(q))


def test_query_unit(q: TestQuery, *, chaos: bool = False) -> tuple[TestUnit, list[int]]:
    """The unit that routes a test query, and its canonical task order.

    The order and the digest come from one :func:`canonical_digest`
    pass; ``chaos`` copies the query's fault-injection names into the
    unit.
    """
    order, digest = canonical_digest(
        task_rows(q.taskset), q.platform.speeds, _test_query(q)
    )
    unit = TestUnit(
        digest, q.taskset, order, q.platform, q.scheduler, q.adversary, q.alpha,
        chaos=_chaos_hooks(q.taskset) if chaos else (),
    )
    return unit, order


def partition_query_unit(
    q: PartitionQuery, *, chaos: bool = False
) -> tuple[PartitionUnit, list[int]]:
    """The unit that routes a partition query, and its canonical task order."""
    order, digest = canonical_digest(
        task_rows(q.taskset), q.platform.speeds, _partition_query(q)
    )
    unit = PartitionUnit(
        digest, q.taskset, order, q.platform, q.test, q.alpha,
        chaos=_chaos_hooks(q.taskset) if chaos else (),
    )
    return unit, order


class ShardCore:
    """Canonical-verdict evaluation plus one private LRU.

    Verdicts are computed *on the canonical instance* (built from the
    unit's columns only on a miss), pickled once,
    and cached as those bytes under the caller-supplied digest.  A hit
    returns the stored bytes unchanged, so a reply frame carries one
    ``bytes`` object, and no caller ever holds a cached object it could
    mutate.  Decoding and index remapping back to submission order are
    the caller's job (it owns the submission-order view).
    ``backend_tests`` counts computed verdicts (cache misses only; hits
    never re-run a backend) per backend name.
    """

    def __init__(self, *, cache_size: int = 1024, backend: str | None = None):
        self.backend = resolve_backend(backend) if backend is not None else None
        self.cache = LRUCache(cache_size)
        self.backend_tests: dict[str, int] = {}

    def _observe_backend(self, count: int = 1) -> None:
        name = self.backend or "scalar"
        self.backend_tests[name] = self.backend_tests.get(name, 0) + count

    # -- single verdicts ----------------------------------------------------
    def test(self, unit: TestUnit) -> tuple[bytes, bool]:
        """(pickled canonical report dict, was it cached) for one test unit."""
        blob = self.cache.get(unit.digest)
        if blob is not None:
            return blob, True
        canon = self._evaluate([unit])[0]
        self._observe_backend()
        blob = pickled(canon)
        self.cache.put(unit.digest, blob)
        return blob, False

    def partition(self, unit: PartitionUnit) -> tuple[bytes, bool]:
        """(pickled canonical partition dict, was it cached) for one unit."""
        blob = self.cache.get(unit.digest)
        if blob is not None:
            return blob, True
        result = first_fit_partition(
            unit.canonical_taskset(),
            unit.canonical_platform(),
            unit.test,
            alpha=unit.alpha,
        )
        blob = pickled(partition_result_to_dict(result))
        self.cache.put(unit.digest, blob)
        return blob, False

    # -- batches ------------------------------------------------------------
    def batch(self, units: list[TestUnit]) -> list[tuple[bytes, bool]]:
        """Cache-aware batch evaluation, results in ``units`` order.

        Scan every unit against the cache first (classifying hit/miss),
        dedup misses by digest (permutations of one instance evaluate
        once), evaluate the distinct misses — one batch call per theorem
        config — then fill results positionally.  Both copies of a deduped digest report
        ``cached=False``: they were misses at scan time.
        """
        outcomes: list[tuple[bytes, bool] | None] = []
        pending: dict[str, list[int]] = {}
        for k, unit in enumerate(units):
            blob = self.cache.get(unit.digest)
            if blob is None:
                pending.setdefault(unit.digest, []).append(k)
                outcomes.append(None)
            else:
                outcomes.append((blob, True))
        firsts = [units[ks[0]] for ks in pending.values()]
        if firsts:
            records = self._evaluate(firsts)
            self._observe_backend(len(firsts))
            for (digest, ks), canon in zip(pending.items(), records):
                blob = pickled(canon)
                self.cache.put(digest, blob)
                for k in ks:
                    outcomes[k] = (blob, False)
        return outcomes  # type: ignore[return-value]

    def _evaluate(self, units: list[TestUnit]) -> list[dict[str, Any]]:
        """Evaluate misses on their canonical instances through the backend.

        Without ``--backend`` that is the ``scalar`` backend, and the
        reports carry no ``backend`` provenance key.  Misses are grouped
        by theorem config (scheduler, adversary, alpha) so each group
        becomes *one* :func:`~repro.kernels.test_feasibility_batch` call
        — within a group the kernels further shard by instance shape.
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
                    (units[t].canonical_taskset(), units[t].canonical_platform())
                    for t in idxs
                ],
                scheduler,  # type: ignore[arg-type]
                adversary,  # type: ignore[arg-type]
                alpha=alpha,
                backend=self.backend or "scalar",
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
        """Honour the fault-injection names a unit carries (``--chaos``
        runs only)."""
        if not self.chaos:
            return
        for unit in units:
            for name in unit.chaos:
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


def fork_worker(
    shard: int,
    *,
    cache_size: int = 1024,
    backend: str | None = None,
    chaos: bool = False,
) -> tuple[int, socket.socket]:
    """Fork one shard worker: ``(its pid, the parent's end of its pair)``.

    The one way a worker starts, at startup and on crash respawn alike.
    A fork inherits every module the caller has imported, so the first
    verdict never waits for a second interpreter to boot; ``repro
    serve`` forks its pool before the front end imports its HTTP stack,
    so a first-generation worker holds only what it runs.  The caller
    must hold exactly one thread: a lock another thread held at the
    fork would stay locked in the child forever.

    The child never returns: it leaves through :func:`os._exit`, so it
    never unwinds into the caller's stack, runs its ``finally`` blocks
    or flushes its buffers.
    """
    parent, child = socket.socketpair()
    pid = os.fork()
    if pid:
        child.close()
        return pid, parent
    code = 1
    try:
        code = _forked_worker(child, shard, cache_size, backend, chaos)
    except BaseException:  # noqa: BLE001 - reported, then a hard exit
        sys.excepthook(*sys.exc_info())
        sys.stderr.flush()
    finally:
        os._exit(code)


def _forked_worker(
    sock: socket.socket,
    shard: int,
    cache_size: int,
    backend: str | None,
    chaos: bool,
) -> int:
    """The body of a freshly forked worker; returns its exit code."""
    # The front end owns shutdown: it drains via explicit frames (or by
    # closing the socketpair), so terminal-delivered SIGINT/SIGTERM to
    # the process group must not kill a shard mid-drain.  The event
    # loop's wakeup fd is about to be closed, so no signal may write to
    # it (or to whatever file later reuses its number).
    signal.set_wakeup_fd(-1)
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    # Objects inherited from the front end are never collected here: a
    # garbage socket finalized in the child would close an fd number
    # that, after the sweep below, may belong to one of the worker's
    # own files.  Frozen objects are also never written by the
    # collector, so their pages stay shared with the parent.
    gc.freeze()
    # Keep stdio and this worker's pair end; drop everything else: other
    # shards' pair ends (a copy held here would hide their worker's EOF
    # from the front end) and, on respawn, the listening socket, client
    # connections and the event loop's epoll fd.
    keep = sock.fileno()
    os.closerange(3, keep)
    os.closerange(keep + 1, os.sysconf("SC_OPEN_MAX"))
    # No worker code calls a BLAS routine, so numpy's import need not
    # start one OpenBLAS thread per core; an operator's value wins.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    worker = _Worker(shard, cache_size=cache_size, backend=backend, chaos=chaos)
    return serve_connection(sock, worker)
