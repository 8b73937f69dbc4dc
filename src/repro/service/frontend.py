"""The HTTP service: asyncio front end over digest-routed shards.

One asyncio process owns the HTTP surface and routes every verdict
request to a shard keyed by a prefix of the canonical
:func:`~repro.io_.serialize.instance_digest`.  A shard is one
:class:`~repro.service.shard.ShardCore` with a private verdict LRU:

* ``workers=0`` (the ``repro serve`` default) — one **in-process**
  shard, called directly on the event-loop thread: no socket, no
  subprocess, no pickling.  A slow cache miss delays every other
  connection until it returns.
* ``workers=N`` — N worker processes (:mod:`repro.service.shard`).  The
  digest routing guarantees a canonical instance is only ever seen by
  one worker, so there is no cross-process locking, no shared memory,
  and no cache-coherence protocol at all.

Division of labour per request:

* **front end** — HTTP parsing, JSON decode, payload validation,
  canonical order + digest computation, shard routing, response
  remapping to submission order, JSON encode.  ``/v1/batch`` splits its
  payload by shard, fans the sub-batches out concurrently, and
  reassembles the responses positionally (the same
  positional-reduction discipline as :mod:`repro.runner`), so the body
  is byte-identical for every worker count.
* **shard** — cache lookup and verdict evaluation only.

Canonical-instance caching: verdicts are computed *on the canonical
instance* (tasks sorted into canonical order) and cached in canonical
terms; each response then remaps task indices back to the submitting
client's order.  Machine indices never need remapping:
:class:`~repro.core.model.Platform` stores machines speed-sorted, so
the canonical machine order and any submission's internal order
coincide.  Because the canonical task order sorts by utilization
descending — the exact order §III first-fit processes tasks in — the
canonical run performs the same admission probes as a direct call on
the submitted instance, and (absent exact utilization ties) the
remapped response is byte-identical to that direct call.

Worker lifecycle (``workers >= 1``): workers are spawned as
subprocesses over an inherited ``socketpair`` (pre-fork style, no
dependence on fork safety under threads).  If a worker dies, the front
end detects EOF on the pair, respawns the shard with an *empty* LRU,
replays every in-flight frame exactly once, and answers ``503`` only
for a request whose replay also died.  SIGTERM drains: stop accepting,
finish in-flight HTTP requests, send every worker a ``shutdown`` frame
(FIFO after its pending work), then reap the processes.

Consistency guarantees (see ``docs/service.md``): report and digest
bytes are identical for every worker count and backend; the ``cached``
flags agree whenever the comparison is run from a cold start with
per-shard capacity at least the working set (sharding changes cache
*architecture*, so eviction patterns under pressure legitimately
differ).
"""

# repro: noqa-file[REP006, REP010] — every object here lives on the
# single asyncio event-loop thread; there are no concurrent request
# threads to race with, so lock-guarding this state (or proving a
# lock-holding caller chain for it) would be dead weight.

from __future__ import annotations

import asyncio
import copy
import json
import os
import signal
import socket
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Any, Awaitable, Callable

from .. import __version__
from ..io_.serialize import canonical_task_order, shard_for_digest
from .metrics import MetricsRegistry, render_shard_prometheus
from .protocol import (
    PartitionUnit,
    TestUnit,
    frame_bytes,
    read_frame_async,
)
from .validation import (
    ValidationError,
    parse_batch_request,
    parse_partition_request,
    parse_test_request,
)
from .shard import _Worker, partition_query_digest, test_query_digest

__all__ = ["ShardedFrontend", "serve_sharded"]

#: Largest accepted request body, in bytes.  A MAX_BATCH batch of
#: MAX_TASKS-task instances would exceed this — by design; the limit is
#: the serving-path backstop against memory abuse.
MAX_BODY_BYTES = 16 * 1024 * 1024

#: How long a drain waits for in-flight HTTP requests and worker exits
#: before escalating to cancellation / SIGKILL.
DRAIN_TIMEOUT = 30.0

#: Timeout for polling worker ``stats`` frames on ``/metrics`` — a
#: worker buried under a long batch answers late; the scrape must not
#: stall behind it.
STATS_TIMEOUT = 2.0

_JSON_TYPE = "application/json; charset=utf-8"

_HTTP_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    411: "Length Required",
    413: "Content Too Large",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


def _error_body(message: str, fields: list[dict[str, str]] | None = None) -> dict:
    return {"error": {"message": message, "fields": fields or []}}


def _remap_partition_dict(
    canon: dict[str, Any], order: list[int]
) -> dict[str, Any]:
    """Translate a canonical-order partition dict to submission order.

    ``order[k]`` is the submitted index of the task at canonical
    position ``k``.  Machine indices are already canonical (speed-sorted)
    in both views and pass through unchanged.
    """
    out = dict(canon)
    assignment: list[int | None] = [None] * len(order)
    for k, machine in enumerate(canon["assignment"]):
        assignment[order[k]] = machine
    out["assignment"] = assignment
    out["machine_tasks"] = [
        [order[k] for k in tasks] for tasks in canon["machine_tasks"]
    ]
    out["order"] = [order[k] for k in canon["order"]]
    failed = canon["failed_task"]
    out["failed_task"] = order[failed] if failed is not None else None
    return out


def _remap_report_dict(canon: dict[str, Any], order: list[int]) -> dict[str, Any]:
    """Translate a canonical-order report dict to submission order."""
    out = dict(canon)
    out["partition"] = _remap_partition_dict(canon["partition"], order)
    # Certificate fields are scalars and machine indices — order-free —
    # but copy so callers can never alias the cached payload.
    if canon.get("certificate") is not None:
        out["certificate"] = copy.deepcopy(canon["certificate"])
    return out


class ShardUnavailable(Exception):
    """A request could not be served because its shard is gone."""

    def __init__(self, shard: int, reason: str):
        super().__init__(f"shard {shard} unavailable: {reason}")
        self.shard = shard
        self.reason = reason


class _WorkerError(Exception):
    """The worker answered an ``error`` frame (handler bug, not crash)."""


class _PendingCall:
    """One frame awaiting its response (and possibly one replay)."""

    __slots__ = ("future", "op", "payload", "replayed")

    def __init__(
        self, future: asyncio.Future, op: str, payload: Any, replayed: bool
    ):
        self.future = future
        self.op = op
        self.payload = payload
        self.replayed = replayed


class _ShardHandle:
    """Front-end view of one shard, wherever it runs.

    Subclasses provide ``call(op, payload)``, ``shutdown()``, ``state``,
    ``restarts``, ``pid`` and ``queue_depth``.
    """

    index: int
    state: str
    restarts: int
    pid: int | None
    queue_depth: int

    def snapshot(self, stats: dict[str, Any] | None) -> dict[str, Any]:
        """Front-end view of this shard, for ``/healthz`` and ``/metrics``."""
        return {
            "shard": self.index,
            "state": self.state,
            "pid": self.pid,
            "restarts": self.restarts,
            "queue_depth": self.queue_depth,
            "stats": stats,
        }


class _InProcessShard(_ShardHandle):
    """The ``workers=0`` shard: a :class:`~repro.service.shard._Worker`
    dispatched on the event-loop thread.

    Calls run to completion before returning, so nothing is ever queued
    and there is no process to crash, respawn, or reap.
    """

    index = 0
    restarts = 0
    queue_depth = 0

    def __init__(self, frontend: "ShardedFrontend"):
        self.state = "ok"
        self.worker = _Worker(
            0,
            cache_size=frontend.cache_size,
            backend=frontend.backend,
            chaos=frontend.chaos,
        )

    @property
    def pid(self) -> int:
        return os.getpid()

    async def start(self) -> None:
        return None

    async def call(self, op: str, payload: Any) -> Any:
        """Dispatch on the loop thread; handler bugs surface as in a worker."""
        if self.state == "dead":
            raise ShardUnavailable(self.index, "shard is shut down")
        try:
            # Blocks the loop by design (--chaos sleeps included): that
            # is the in-process topology; N >= 1 workers avoid it.
            return self.worker.dispatch(op, payload)
        except Exception as exc:  # noqa: BLE001 - mapped like a worker error frame
            raise _WorkerError(f"{type(exc).__name__}: {exc}") from exc

    async def shutdown(self) -> None:
        self.state = "dead"


class _WorkerHandle(_ShardHandle):
    """Front-end side of one shard worker process."""

    def __init__(self, frontend: "ShardedFrontend", index: int):
        self.frontend = frontend
        self.index = index
        self.state = "starting"  # starting | ok | restarting | dead
        self.restarts = 0
        self.proc: subprocess.Popen | None = None
        self.reader: asyncio.StreamReader | None = None
        self.writer: asyncio.StreamWriter | None = None
        self.pending: dict[int, _PendingCall] = {}
        self._next_seq = 0
        self._reader_task: asyncio.Task | None = None
        self._ready = asyncio.Event()
        self.draining = False

    @property
    def queue_depth(self) -> int:
        return len(self.pending)

    @property
    def pid(self) -> int | None:
        return self.proc.pid if self.proc is not None else None

    # -- lifecycle ----------------------------------------------------------
    async def start(self) -> None:
        """Spawn the worker process and wire its socketpair end in."""
        parent, child = socket.socketpair()
        child.set_inheritable(True)
        # `-c` rather than `-m repro.service.shard`: the package import
        # of `.shard` under runpy's __main__ execution trips a spurious
        # found-in-sys.modules RuntimeWarning on the worker's stderr.
        argv = [
            sys.executable,
            "-c",
            "from repro.service.shard import worker_main;"
            " raise SystemExit(worker_main())",
            "--fd",
            str(child.fileno()),
            "--shard",
            str(self.index),
            "--cache-size",
            str(self.frontend.cache_size),
        ]
        if self.frontend.backend is not None:
            argv += ["--backend", self.frontend.backend]
        if self.frontend.chaos:
            argv.append("--chaos")
        # The worker must import repro from the same tree the front end
        # runs from, installed or not.
        env = dict(os.environ)
        src_dir = str(Path(__file__).resolve().parent.parent.parent)
        env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
        # blocking Popen is confined to startup and crash-respawn; a
        # fork+exec pause there is accepted over the complexity of an
        # executor hop in the spawn path
        self.proc = subprocess.Popen(  # repro: noqa[REP012]
            argv, pass_fds=[child.fileno()], env=env
        )
        child.close()
        self.reader, self.writer = await asyncio.open_connection(sock=parent)
        self._reader_task = asyncio.ensure_future(self._read_loop())
        self.state = "ok"
        self._ready.set()

    async def _read_loop(self) -> None:
        """Resolve responses until the worker's end of the pair closes."""
        assert self.reader is not None
        try:
            while True:
                seq, status, result = await read_frame_async(self.reader)
                call = self.pending.pop(seq, None)
                if call is None or call.future.done():
                    continue
                if status == "ok":
                    call.future.set_result(result)
                else:
                    call.future.set_exception(_WorkerError(str(result)))
        except (
            asyncio.IncompleteReadError,
            ConnectionError,
            OSError,
        ):
            pass
        if self.draining:
            return
        await self._respawn()

    async def _respawn(self) -> None:
        """The crash-robustness path: new process, empty LRU, replay once."""
        self.state = "restarting"
        self._ready.clear()
        self.restarts += 1
        self.frontend.log(
            f"shard {self.index} worker died "
            f"(pid {self.pid}); respawning with an empty cache"
        )
        await self._reap(timeout=5.0)
        if self.writer is not None:
            self.writer.close()
        orphans = self.pending
        self.pending = {}
        try:
            await self.start()
        except OSError as exc:
            self.state = "dead"
            for call in orphans.values():
                if not call.future.done():
                    call.future.set_exception(
                        ShardUnavailable(self.index, f"respawn failed: {exc}")
                    )
            return
        replayed = 0
        for call in orphans.values():
            if call.future.done():
                continue
            if call.replayed:
                # Second death while holding this request: give up.
                call.future.set_exception(
                    ShardUnavailable(
                        self.index,
                        "worker died twice while processing this request",
                    )
                )
                continue
            call.replayed = True
            seq = self._next_seq
            self._next_seq += 1
            self.pending[seq] = call
            assert self.writer is not None
            self.writer.write(frame_bytes((call.op, seq, call.payload)))
            replayed += 1
        if replayed:
            self.frontend.log(
                f"shard {self.index}: replayed {replayed} in-flight frame(s)"
            )
            assert self.writer is not None
            try:
                await self.writer.drain()
            except (ConnectionError, OSError):
                pass  # the new worker died instantly; its reader loop handles it

    async def _reap(self, timeout: float) -> None:
        """Wait for the worker process, escalating to SIGKILL."""
        proc = self.proc
        if proc is None:
            return
        loop = asyncio.get_running_loop()
        try:
            await asyncio.wait_for(
                loop.run_in_executor(None, proc.wait), timeout
            )
        except asyncio.TimeoutError:
            proc.kill()
            await loop.run_in_executor(None, proc.wait)

    # -- calls --------------------------------------------------------------
    async def call(self, op: str, payload: Any) -> Any:
        """Send one frame; await (and possibly survive one replay of) it."""
        if self.state == "dead":
            raise ShardUnavailable(self.index, "worker is not running")
        await self._ready.wait()
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        seq = self._next_seq
        self._next_seq += 1
        self.pending[seq] = _PendingCall(future, op, payload, False)
        assert self.writer is not None
        try:
            self.writer.write(frame_bytes((op, seq, payload)))
            await self.writer.drain()
        except (ConnectionError, OSError):
            # The pipe broke under us; the reader loop is about to
            # notice and replay this pending frame on the new worker.
            pass
        return await future

    async def shutdown(self) -> None:
        """Drain: FIFO ``shutdown`` frame, then reap the process."""
        self.draining = True
        if self.state in ("ok", "starting") and self.writer is not None:
            try:
                await self.call("shutdown", None)
            except (ShardUnavailable, _WorkerError, ConnectionError, OSError):
                pass
            self.writer.close()
        await self._reap(timeout=DRAIN_TIMEOUT)
        if self._reader_task is not None:
            self._reader_task.cancel()
        self.state = "dead"


class _Conn:
    """One HTTP connection's drain-relevant state."""

    __slots__ = ("writer", "busy")

    def __init__(self, writer: asyncio.StreamWriter):
        self.writer = writer
        self.busy = False


class ShardedFrontend:
    """The HTTP service: one of these per listening address.

    ``workers=0`` serves from one in-process shard; ``workers=N`` from N
    worker processes.  The ``handle_*`` and ``metrics_*`` coroutines are
    the endpoints without the HTTP edge, usable with no socket bound.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        workers: int = 2,
        cache_size: int = 1024,
        backend: str | None = None,
        chaos: bool = False,
        quiet: bool = True,
    ):
        if workers < 0:
            raise ValueError(f"workers must be >= 0, got {workers}")
        self.host = host
        self.port = port
        self.workers = workers
        self.cache_size = cache_size
        self.backend = backend
        self.chaos = chaos
        self.quiet = quiet
        self.metrics = MetricsRegistry()
        self.handles: list[_ShardHandle] = (
            [_InProcessShard(self)]
            if workers == 0
            else [_WorkerHandle(self, k) for k in range(workers)]
        )
        self._server: asyncio.AbstractServer | None = None
        self._conns: set[_Conn] = set()
        self._conn_tasks: set[asyncio.Task] = set()
        self._stopping = False
        self._started = time.monotonic()
        self.bound_port: int | None = None

    def log(self, message: str) -> None:
        if not self.quiet:
            print(f"repro.service.frontend: {message}", file=sys.stderr, flush=True)

    # -- lifecycle ----------------------------------------------------------
    async def start(self) -> None:
        """Spawn the worker pool (if any) and bind the listening socket."""
        self._started = time.monotonic()
        for handle in self.handles:
            await handle.start()
        self._server = await asyncio.start_server(
            self._handle_conn, self.host, self.port
        )
        self.bound_port = self._server.sockets[0].getsockname()[1]

    async def drain(self) -> None:
        """Graceful shutdown: HTTP first, then the worker fan-out."""
        self._stopping = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        # Idle keep-alive connections would wait forever for a next
        # request; close them.  Busy ones finish their response first.
        for conn in list(self._conns):
            if not conn.busy:
                conn.writer.close()
        if self._conn_tasks:
            done, stragglers = await asyncio.wait(
                self._conn_tasks, timeout=DRAIN_TIMEOUT
            )
            for task in stragglers:
                task.cancel()
        await asyncio.gather(
            *(handle.shutdown() for handle in self.handles),
            return_exceptions=True,
        )

    # -- HTTP ---------------------------------------------------------------
    async def _handle_conn(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        conn = _Conn(writer)
        self._conns.add(conn)
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
            task.add_done_callback(self._conn_tasks.discard)
        try:
            await self._conn_loop(reader, writer, conn)
        finally:
            self._conns.discard(conn)
            writer.close()

    async def _conn_loop(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        conn: _Conn,
    ) -> None:
        while not self._stopping:
            try:
                head = await _read_head(reader)
            except ValueError:
                # readline() raises this for a line over the stream limit
                await _respond(
                    writer,
                    431,
                    _json_bytes(_error_body("request or header line too long")),
                    _JSON_TYPE,
                    close=True,
                )
                return
            except (ConnectionError, OSError):
                return
            if head is None:
                return
            method, target, headers = head
            close_after = headers.get("connection", "").lower() == "close"
            conn.busy = True
            try:
                status, body_bytes, content_type, close = await self._serve_one(
                    method, target, reader, headers
                )
            finally:
                conn.busy = False
            close = close or close_after or self._stopping
            sent = await _respond(writer, status, body_bytes, content_type, close)
            if close or not sent:
                return

    async def _serve_one(
        self,
        method: str,
        target: str,
        reader: asyncio.StreamReader,
        headers: dict[str, str],
    ) -> tuple[int, bytes, str, bool]:
        """One request → (status, body, content type, close?).

        Bad payloads answer ``400`` with field-level errors, unknown paths
        ``404``, wrong methods ``405``, handler bugs ``500`` with a
        generic body (the traceback goes to the server log, never to the
        client); every request, errors included, is timed and counted.
        """
        path, _, query = target.partition("?")
        t0 = time.perf_counter()
        status = 500
        close = False
        body: bytes = b""
        content_type = _JSON_TYPE
        try:
            status, payload, content_type, close = await self._route(
                method, path, query, reader, headers
            )
            body = payload if isinstance(payload, bytes) else _json_bytes(payload)
        except ValidationError as exc:
            status = 400
            body = _json_bytes(exc.as_dict())
        except ShardUnavailable as exc:
            status = 503
            body = _json_bytes(_error_body(str(exc)))
        except _HttpError as exc:
            status = exc.status
            close = close or exc.close
            body = _json_bytes(exc.body)
        except (asyncio.IncompleteReadError, ConnectionError):
            # Client hung up mid-body.
            status = 499
            close = True
            body = b""
        except Exception:
            self.log(
                f"unhandled error on {path}:\n{traceback.format_exc()}"
            )
            status = 500
            body = _json_bytes(_error_body("internal server error"))
        finally:
            self.metrics.observe(path, status, time.perf_counter() - t0)
        return status, body, content_type, close

    async def _read_body(
        self, reader: asyncio.StreamReader, headers: dict[str, str]
    ) -> Any:
        try:
            length = int(headers.get("content-length", ""))
        except ValueError:
            raise _HttpError(
                411, _error_body("Content-Length header is required"), close=True
            ) from None
        if length > MAX_BODY_BYTES:
            raise _HttpError(
                413,
                _error_body(f"request body exceeds {MAX_BODY_BYTES} bytes"),
                close=True,
            )
        if length < 0:
            raise _HttpError(
                400, _error_body("Content-Length must be non-negative"), close=True
            )
        raw = await reader.readexactly(length)
        try:
            return json.loads(raw)
        except json.JSONDecodeError as exc:
            raise _HttpError(
                400, _error_body(f"request body is not valid JSON: {exc}")
            ) from None

    async def _route(
        self,
        method: str,
        path: str,
        query: str,
        reader: asyncio.StreamReader,
        headers: dict[str, str],
    ) -> tuple[int, Any, str, bool]:
        post_routes: dict[str, Callable[[Any], Awaitable[Any]]] = {
            "/v1/test": self.handle_test,
            "/v1/partition": self.handle_partition,
            "/v1/batch": self.handle_batch,
        }
        get_paths = ("/healthz", "/metrics")
        known = list(get_paths) + list(post_routes)
        if method == "POST":
            handler = post_routes.get(path)
            if handler is None:
                if path in get_paths:
                    raise _HttpError(
                        405, _error_body("method not allowed; use GET"), close=True
                    )
                raise _not_found(known)
            payload = await self._read_body(reader, headers)
            return 200, await handler(payload), _JSON_TYPE, False
        if method == "GET":
            if path not in get_paths:
                if path in post_routes:
                    raise _HttpError(
                        405, _error_body("method not allowed; use POST"), close=True
                    )
                raise _not_found(known)
            if path == "/healthz":
                return 200, self.handle_healthz(), _JSON_TYPE, False
            fmt = "json"
            for part in query.split("&"):
                if part.startswith("format="):
                    fmt = part[len("format="):]
            if fmt == "prometheus":
                text = await self.metrics_prometheus()
                return 200, text.encode("utf-8"), "text/plain; version=0.0.4; charset=utf-8", False
            if fmt != "json":
                raise _HttpError(
                    400, _error_body("format must be 'json' or 'prometheus'")
                )
            return 200, await self.metrics_json(), _JSON_TYPE, False
        raise _HttpError(
            405, _error_body("method not allowed; use GET or POST"), close=True
        )

    # -- verdict endpoints --------------------------------------------------
    def _shard_of(self, digest: str) -> _ShardHandle:
        return self.handles[shard_for_digest(digest, len(self.handles))]

    async def handle_test(self, payload: Any) -> dict[str, Any]:
        """``POST /v1/test`` — one per-theorem verdict, cached."""
        q = parse_test_request(payload)
        digest, _ = test_query_digest(q)
        order = canonical_task_order(q.taskset)
        unit = TestUnit(
            digest=digest,
            taskset=q.taskset,
            order=tuple(order),
            platform=q.platform,
            scheduler=q.scheduler,
            adversary=q.adversary,
            alpha=q.alpha,
        )
        canon, cached = await self._shard_of(digest).call("test", unit)
        return {
            "digest": digest,
            "cached": cached,
            "report": _remap_report_dict(canon, order),
        }

    async def handle_partition(self, payload: Any) -> dict[str, Any]:
        """``POST /v1/partition`` — a first-fit assignment, cached."""
        q = parse_partition_request(payload)
        digest = partition_query_digest(q)
        order = canonical_task_order(q.taskset)
        unit = PartitionUnit(
            digest=digest,
            taskset=q.taskset,
            order=tuple(order),
            platform=q.platform,
            test=q.test,
            alpha=q.alpha,
        )
        canon, cached = await self._shard_of(digest).call("partition", unit)
        return {
            "digest": digest,
            "cached": cached,
            "result": _remap_partition_dict(canon, order),
        }

    async def handle_batch(self, payload: Any) -> dict[str, Any]:
        """Split by shard, fan out concurrently, reassemble positionally."""
        queries = parse_batch_request(payload)
        orders: list[list[int]] = []
        units: list[TestUnit] = []
        by_shard: dict[int, list[int]] = {}
        for k, q in enumerate(queries):
            digest, _ = test_query_digest(q)
            order = canonical_task_order(q.taskset)
            orders.append(order)
            units.append(
                TestUnit(
                    digest=digest,
                    taskset=q.taskset,
                    order=tuple(order),
                    platform=q.platform,
                    scheduler=q.scheduler,
                    adversary=q.adversary,
                    alpha=q.alpha,
                )
            )
            by_shard.setdefault(
                shard_for_digest(digest, len(self.handles)), []
            ).append(k)
        shard_ids = sorted(by_shard)
        sub_results = await asyncio.gather(
            *(
                self.handles[s].call(
                    "batch", [units[k] for k in by_shard[s]]
                )
                for s in shard_ids
            )
        )
        outcomes: list[tuple[dict[str, Any], bool] | None] = [None] * len(queries)
        for s, result in zip(shard_ids, sub_results):
            for k, outcome in zip(by_shard[s], result):
                outcomes[k] = outcome
        hits = sum(1 for o in outcomes if o is not None and o[1])
        return {
            "count": len(queries),
            "cached": hits,
            "results": [
                {
                    "digest": units[k].digest,
                    "cached": cached,
                    "report": _remap_report_dict(canon, orders[k]),
                }
                for k, (canon, cached) in enumerate(outcomes)  # type: ignore[misc]
            ],
        }

    # -- observability endpoints --------------------------------------------
    def handle_healthz(self) -> dict[str, Any]:
        """Aggregate health: degraded when any shard is dead or restarting."""
        shards = [h.snapshot(None) for h in self.handles]
        for s in shards:
            s.pop("stats")
        degraded = any(h.state != "ok" for h in self.handles)
        return {
            "status": "degraded" if degraded else "ok",
            "version": __version__,
            "uptime_seconds": time.monotonic() - self._started,
            "architecture": "sharded" if self.workers else "in-process",
            "workers": self.workers,
            "backend": self.backend or "scalar",
            "cache_size_per_worker": self.cache_size,
            "shards": shards,
        }

    async def _poll_shards(self) -> list[dict[str, Any]]:
        """Worker stats snapshots; a stuck or dead worker yields ``None``."""

        async def poll(handle: _ShardHandle) -> dict[str, Any] | None:
            if handle.state != "ok":
                return None
            try:
                return await asyncio.wait_for(
                    handle.call("stats", None), STATS_TIMEOUT
                )
            except (
                asyncio.TimeoutError,
                ShardUnavailable,
                _WorkerError,
                ConnectionError,
                OSError,
            ):
                return None

        stats = await asyncio.gather(*(poll(h) for h in self.handles))
        return [h.snapshot(s) for h, s in zip(self.handles, stats)]

    async def metrics_json(self) -> dict[str, Any]:
        return {
            "frontend": self.metrics.as_dict(),
            "uptime_seconds": time.monotonic() - self._started,
            "workers": self.workers,
            "restarts_total": sum(h.restarts for h in self.handles),
            "shards": await self._poll_shards(),
        }

    async def metrics_prometheus(self) -> str:
        return self.metrics.render_prometheus() + render_shard_prometheus(
            await self._poll_shards()
        )


def _json_bytes(body: Any) -> bytes:
    return json.dumps(body, sort_keys=True).encode("utf-8")


async def _read_head(
    reader: asyncio.StreamReader,
) -> tuple[str, str, dict[str, str]] | None:
    """(method, target, headers) of the next request; ``None`` to hang up."""
    request_line = await reader.readline()
    if not request_line or request_line.strip() == b"":
        return None
    try:
        method, target, _version = (
            request_line.decode("latin-1").strip().split(" ", 2)
        )
    except ValueError:
        return None  # not HTTP; drop the connection
    headers: dict[str, str] = {}
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            return method, target, headers
        if b":" in line:
            key, _, value = line.decode("latin-1").partition(":")
            headers[key.strip().lower()] = value.strip()


async def _respond(
    writer: asyncio.StreamWriter,
    status: int,
    body: bytes,
    content_type: str,
    close: bool,
) -> bool:
    """Write one response; ``False`` if the client is gone."""
    reason = _HTTP_REASONS.get(status, "Unknown")
    head = (
        f"HTTP/1.1 {status} {reason}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {len(body)}\r\n"
        + ("Connection: close\r\n" if close else "")
        + "\r\n"
    )
    try:
        writer.write(head.encode("latin-1") + body)
        await writer.drain()
    except (ConnectionError, OSError):
        return False
    return True


class _HttpError(Exception):
    """Abort the current request with this status and JSON body."""

    def __init__(self, status: int, body: dict[str, Any], *, close: bool = False):
        super().__init__(body.get("error", {}).get("message", ""))
        self.status = status
        self.body = body
        self.close = close


def _not_found(known: list[str]) -> _HttpError:
    return _HttpError(
        404,
        _error_body(f"unknown endpoint; known endpoints: {known}"),
        close=True,
    )


def serve_sharded(
    host: str = "127.0.0.1",
    port: int = 8080,
    *,
    workers: int = 2,
    cache_size: int = 1024,
    backend: str | None = None,
    chaos: bool = False,
    quiet: bool = True,
) -> int:
    """Run the service until SIGTERM/SIGINT, drain, exit 0."""

    async def main() -> int:
        frontend = ShardedFrontend(
            host,
            port,
            workers=workers,
            cache_size=cache_size,
            backend=backend,
            chaos=chaos,
            quiet=quiet,
        )
        await frontend.start()
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(sig, stop.set)
        print(
            f"repro.service.frontend listening on "
            f"http://{host}:{frontend.bound_port} "
            f"(workers={workers}, cache_size={cache_size}, "
            f"backend={backend or 'scalar'})",
            file=sys.stderr,
            flush=True,
        )
        await stop.wait()
        print(
            "repro.service.frontend shutting down: draining requests "
            "and worker pool...",
            file=sys.stderr,
            flush=True,
        )
        await frontend.drain()
        for sig in (signal.SIGTERM, signal.SIGINT):
            loop.remove_signal_handler(sig)
        print("repro.service.frontend stopped", file=sys.stderr, flush=True)
        return 0

    return asyncio.run(main())
