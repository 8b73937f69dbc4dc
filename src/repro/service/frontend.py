"""The HTTP service: a single-threaded front end over digest-routed shards.

One process owns the HTTP surface and routes every verdict
request to a shard keyed by a prefix of the canonical
:func:`~repro.io_.serialize.instance_digest`.  A shard is one
:class:`~repro.service.shard.ShardCore` with a private verdict LRU:

* ``workers=0`` (the ``repro serve`` default) — one **in-process**
  shard, called directly on the event-loop thread: no socket and no
  subprocess, but the same :class:`~repro.service.shard.ShardCore`, so
  verdicts are pickled into the cache and decoded here exactly as with
  workers.  A slow cache miss delays every other connection until it
  returns.
* ``workers=N`` — N worker processes (:mod:`repro.service.shard`).  The
  digest routing guarantees a canonical instance is only ever seen by
  one worker, so there is no cross-process locking, no shared memory,
  and no cache-coherence protocol at all.

Division of labour per request:

* **front end** — HTTP parsing, JSON decode, payload validation,
  canonical order + digest computation, shard routing, verdict decode
  and remapping to submission order, JSON encode.  ``/v1/batch`` splits its
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

The event loop is :mod:`repro.service.loop`: the handlers below are
``async def`` coroutines driven by one ``selectors`` selector on one
thread, so no serving process loads asyncio or ssl.  A request whose
first byte has arrived must deliver its head and body within
:data:`REQUEST_READ_TIMEOUT` or is answered ``408``; an idle keep-alive
connection between requests is not timed.

Worker lifecycle (``workers >= 1``): every worker is a fork
(:func:`~repro.service.shard.fork_worker`) that keeps only its end of a
``socketpair``.  ``repro serve`` forks the first pool before it imports
this module, so those workers hold only what they run.  If a worker
dies, the front end detects EOF on the pair, forks a replacement from
the running loop with an *empty* LRU, replays every in-flight frame
exactly once, and answers ``503`` only for a request whose replay also
died.  SIGTERM drains: stop accepting, close idle connections, let busy
ones finish within :data:`DRAIN_TIMEOUT`, send every worker a
``shutdown`` frame (FIFO after its pending work), then reap the
processes, escalating to SIGKILL.

Forking from the loop is safe because the front end holds exactly one
thread, always.  Dead workers are reaped by polling
``waitpid(WNOHANG)`` and the listen address is resolved on the loop
thread (:func:`_listen`).  A second thread holding a lock at a fork
would leave that lock held forever in the child;
``tests/test_shard.py`` counts the front end's threads after startup
and after a respawn.

Consistency guarantees (see ``docs/service.md``): report and digest
bytes are identical for every worker count and backend; the ``cached``
flags agree whenever the comparison is run from a cold start with
per-shard capacity at least the working set (sharding changes cache
*architecture*, so eviction patterns under pressure legitimately
differ).
"""

# repro: noqa-file[REP006] — every object here lives on the
# single event-loop thread; there are no concurrent request
# threads to race with, so lock-guarding this state (or proving a
# lock-holding caller chain for it) would be dead weight.

from __future__ import annotations

import json
import os
import pickle
import signal
import socket
import sys
import time
from typing import Any, Awaitable, Callable

from .. import __version__
from ..io_.serialize import shard_for_digest
from .loop import Future, Loop, Stream, Task, gather, get_loop, sleep, wait_for
from .metrics import MetricsRegistry, render_shard_prometheus
from .protocol import FRAME_HEADER_BYTES, TestUnit, frame_bytes, frame_length
from .validation import (
    ValidationError,
    parse_batch_request,
    parse_partition_request,
    parse_test_request,
)
from .shard import (
    _Worker,
    fork_worker,
    partition_query_unit,
    test_query_unit,
)

__all__ = ["ShardedFrontend", "serve_sharded"]

#: Largest accepted request body, in bytes.  A MAX_BATCH batch of
#: MAX_TASKS-task instances would exceed this — by design; the limit is
#: the serving-path backstop against memory abuse.
MAX_BODY_BYTES = 16 * 1024 * 1024

#: Most header lines one request head may carry (stdlib
#: ``http.client._MAXHEADERS``); the next one is answered ``431``.
MAX_HEADERS = 100

#: How long a drain waits for in-flight HTTP requests and worker exits
#: before escalating to cancellation / SIGKILL.
DRAIN_TIMEOUT = 30.0

#: Once a request's first byte has arrived, its head and body must
#: arrive within this many seconds, or it is answered ``408``.
REQUEST_READ_TIMEOUT = 30.0

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
    408: "Request Timeout",
    411: "Length Required",
    413: "Content Too Large",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


def _error_body(message: str, fields: list[dict[str, str]] | None = None) -> dict:
    return {"error": {"message": message, "fields": fields or []}}


def _remap_partition(part: dict[str, Any], order: list[int]) -> dict[str, Any]:
    """Rewrite a decoded canonical-order partition dict to submission
    order, in place.

    ``order[k]`` is the submitted index of the task at canonical
    position ``k``.  Machine indices are already canonical (speed-sorted)
    in both views and pass through unchanged.
    """
    assignment: list[int | None] = [None] * len(order)
    for k, machine in enumerate(part["assignment"]):
        assignment[order[k]] = machine
    part["assignment"] = assignment
    part["machine_tasks"] = [
        [order[k] for k in tasks] for tasks in part["machine_tasks"]
    ]
    part["order"] = [order[k] for k in part["order"]]
    failed = part["failed_task"]
    part["failed_task"] = order[failed] if failed is not None else None
    return part


def _remap_partition_dict(blob: bytes, order: list[int]) -> dict[str, Any]:
    """A shard's pickled canonical partition dict, decoded into a private
    copy in submission order: mutating it never reaches the cache."""
    return _remap_partition(pickle.loads(blob), order)


def _remap_report_dict(blob: bytes, order: list[int]) -> dict[str, Any]:
    """A shard's pickled canonical report dict, decoded into a private
    copy in submission order."""
    report = pickle.loads(blob)
    _remap_partition(report["partition"], order)
    return report


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

    def __init__(self, future: Future, op: str, payload: Any, replayed: bool):
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
    """Front-end side of one shard worker process.

    ``forked`` is a worker :func:`~repro.service.shard.fork_worker`
    already started for this shard (``repro serve`` forks its pool
    before importing the front end); the first :meth:`start` adopts it.
    """

    pid: int | None = None

    def __init__(
        self,
        frontend: "ShardedFrontend",
        index: int,
        forked: tuple[int, socket.socket] | None = None,
    ):
        self.frontend = frontend
        self.index = index
        self.state = "starting"  # starting | ok | restarting | dead
        self.restarts = 0
        self._forked = forked
        self.stream: Stream | None = None
        self.pending: dict[int, _PendingCall] = {}
        self._next_seq = 0
        self._reader_task: Task | None = None
        self.draining = False

    @property
    def queue_depth(self) -> int:
        return len(self.pending)

    # -- lifecycle ----------------------------------------------------------
    async def start(self) -> None:
        """Fork the worker (or adopt a pre-forked one) and wire its
        socketpair end in."""
        forked, self._forked = self._forked, None
        if forked is None:
            # Only the child runs the blocking frame loop behind this
            # call; the loop itself pauses for one fork, at startup or on
            # crash respawn.
            forked = fork_worker(  # repro: noqa[REP012]
                self.index,
                cache_size=self.frontend.cache_size,
                backend=self.frontend.backend,
                chaos=self.frontend.chaos,
            )
        self.pid, parent = forked
        loop = get_loop()
        self.stream = Stream(loop, parent)
        self._reader_task = Task(loop, self._read_loop(self.stream))
        self.state = "ok"

    async def _read_loop(self, stream: Stream) -> None:
        """Resolve responses until the worker's end of the pair closes."""
        try:
            while True:
                header = await stream.readexactly(FRAME_HEADER_BYTES)
                blob = await stream.readexactly(frame_length(header))
                seq, status, result = pickle.loads(blob)
                call = self.pending.pop(seq, None)
                if call is None or call.future.done():
                    continue
                if status == "ok":
                    call.future.set_result(result)
                else:
                    call.future.set_exception(_WorkerError(str(result)))
        except (ConnectionError, OSError):
            pass
        if self.draining:
            self._fail(self.pending, "worker exited during the drain")
            return
        await self._respawn()

    def _fail(self, calls: dict[int, _PendingCall], reason: str) -> None:
        for call in calls.values():
            if not call.future.done():
                call.future.set_exception(ShardUnavailable(self.index, reason))

    async def _respawn(self) -> None:
        """The crash-robustness path: new process, empty LRU, replay once.

        The replacement is forked before the dead worker is reaped, so no
        request waits on the reap.
        """
        self.state = "restarting"
        self.restarts += 1
        dead = self.pid
        self.frontend.log(
            f"shard {self.index} worker died "
            f"(pid {dead}); respawning with an empty cache"
        )
        assert self.stream is not None
        self.stream.close()
        orphans, self.pending = self.pending, {}
        try:
            await self.start()
        except OSError as exc:
            self.state = "dead"
            self._fail(orphans, f"respawn failed: {exc}")
            await _reap(dead, timeout=5.0)
            return
        # Second death while holding a request: give up on it.
        self._fail(
            {s: c for s, c in orphans.items() if c.replayed},
            "worker died twice while processing this request",
        )
        replayed = 0
        for call in orphans.values():
            if call.future.done():
                continue
            call.replayed = True
            self._send(call)
            replayed += 1
        if replayed:
            self.frontend.log(
                f"shard {self.index}: replayed {replayed} in-flight frame(s)"
            )
        await _reap(dead, timeout=5.0)

    # -- calls --------------------------------------------------------------
    def _send(self, call: _PendingCall) -> None:
        seq = self._next_seq
        self._next_seq += 1
        self.pending[seq] = call
        assert self.stream is not None
        # A broken pipe is not an error here: the reader loop is about to
        # see EOF and replay this pending frame on the new worker.
        self.stream.write(frame_bytes((call.op, seq, call.payload)))

    async def call(self, op: str, payload: Any) -> Any:
        """Send one frame; await (and possibly survive one replay of) it."""
        if self.state == "dead":
            raise ShardUnavailable(self.index, "worker is not running")
        future = Future(get_loop())
        self._send(_PendingCall(future, op, payload, False))
        return await future

    async def shutdown(self) -> None:
        """Drain: FIFO ``shutdown`` frame, then reap the process."""
        self.draining = True
        if self.state in ("ok", "starting") and self.stream is not None:
            try:
                await self.call("shutdown", None)
            except (ShardUnavailable, _WorkerError):
                pass
            self.stream.close()
        await _reap(self.pid, timeout=DRAIN_TIMEOUT)
        if self._reader_task is not None:
            self._reader_task.cancel()
        self.state = "dead"


async def _reap(pid: int | None, timeout: float) -> None:
    """Wait for a worker process, escalating to SIGKILL.

    Polls ``waitpid(WNOHANG)`` rather than parking a blocking wait on a
    second thread: the next worker is forked from this process, which
    must hold one thread only.
    """
    if pid is None:
        return
    deadline = time.monotonic() + timeout
    delay = 0.001
    while True:
        try:
            reaped, _ = os.waitpid(pid, os.WNOHANG)
        except ChildProcessError:
            return  # reaped already
        if reaped:
            return
        if time.monotonic() >= deadline:
            os.kill(pid, signal.SIGKILL)
            deadline = float("inf")
        await sleep(delay)
        delay = min(2 * delay, 0.05)


class _Conn:
    """One HTTP connection's drain-relevant state."""

    __slots__ = ("stream", "task", "busy")

    def __init__(self, stream: Stream):
        self.stream = stream
        self.task: Task | None = None
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
        pool: list[tuple[int, socket.socket]] | None = None,
    ):
        if workers < 0:
            raise ValueError(f"workers must be >= 0, got {workers}")
        if pool is not None and len(pool) != workers:
            raise ValueError(f"pool holds {len(pool)} workers, not {workers}")
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
            else [
                _WorkerHandle(self, k, pool[k] if pool is not None else None)
                for k in range(workers)
            ]
        )
        self._listeners: list[socket.socket] = []
        self._conns: set[_Conn] = set()
        self._stopping = False
        self._started = time.monotonic()
        self.bound_port: int | None = None

    def log(self, message: str) -> None:
        if not self.quiet:
            print(f"repro.service.frontend: {message}", file=sys.stderr, flush=True)

    # -- lifecycle ----------------------------------------------------------
    async def start(self) -> None:
        """Spawn the worker pool (if any) and bind the listening sockets."""
        self._started = time.monotonic()
        for handle in self.handles:
            await handle.start()
        self._listeners = _listen(self.host, self.port)
        for listener in self._listeners:
            self._watch_listener(listener)
        self.bound_port = self._listeners[0].getsockname()[1]

    def _watch_listener(self, listener: socket.socket) -> None:
        if not self._stopping:
            get_loop().set_reader(listener.fileno(), lambda: self._accept(listener))

    def _accept(self, listener: socket.socket) -> None:
        """Take every pending connection, each into its own task."""
        loop = get_loop()
        while True:
            try:
                sock, _ = listener.accept()
            except BlockingIOError:
                return
            except OSError as exc:
                # Out of descriptors, say: retry in a second rather than
                # spin on a listener that stays readable.
                self.log(f"accept failed: {exc}")
                loop.set_reader(listener.fileno(), None)
                loop.call_later(1.0, self._watch_listener, listener)
                return
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            conn = _Conn(Stream(loop, sock))
            self._conns.add(conn)
            conn.task = Task(loop, self._handle_conn(conn))

    async def drain(self) -> None:
        """Graceful shutdown: HTTP first, then the worker fan-out."""
        self._stopping = True
        for listener in self._listeners:
            get_loop().set_reader(listener.fileno(), None)
            listener.close()
        # Idle keep-alive connections would wait forever for a next
        # request; close them.  Busy ones finish their response first.
        for conn in list(self._conns):
            if not conn.busy:
                conn.stream.close()
        tasks = [conn.task for conn in self._conns if conn.task is not None]
        try:
            await wait_for(gather(*tasks, return_exceptions=True), DRAIN_TIMEOUT)
        except TimeoutError:
            for task in tasks:
                task.cancel()
            await sleep(0)  # let each cancelled connection close its socket
        await gather(
            *(handle.shutdown() for handle in self.handles),
            return_exceptions=True,
        )

    # -- HTTP ---------------------------------------------------------------
    async def _handle_conn(self, conn: _Conn) -> None:
        try:
            await self._conn_loop(conn)
        except Exception:  # noqa: BLE001 - one connection's bug stays with it
            import traceback

            self.log(f"connection failed:\n{traceback.format_exc()}")
        finally:
            self._conns.discard(conn)
            conn.stream.close()

    async def _conn_loop(self, conn: _Conn) -> None:
        stream = conn.stream
        while not self._stopping:
            if not await stream.wait_data():
                return
            stream.deadline = time.monotonic() + REQUEST_READ_TIMEOUT
            try:
                head = await _read_head(stream)
            except ValueError:
                # a line over the stream's limit, or more than
                # MAX_HEADERS lines
                message = (
                    "request or header line too long, or more than "
                    f"{MAX_HEADERS} header lines"
                )
                body = _json_bytes(_error_body(message))
                await _respond(stream, 431, body, _JSON_TYPE, close=True)
                return
            except TimeoutError:
                body = _json_bytes(_timeout_body())
                await _respond(stream, 408, body, _JSON_TYPE, close=True)
                return
            except OSError:
                return
            if head is None:
                return
            method, target, headers = head
            close_after = headers.get("connection", "").lower() == "close"
            conn.busy = True
            try:
                status, body_bytes, content_type, close = await self._serve_one(
                    method, target, stream, headers
                )
                close = close or close_after or self._stopping
                sent = await _respond(stream, status, body_bytes, content_type, close)
            finally:
                conn.busy = False
            if close or not sent:
                return

    async def _serve_one(
        self,
        method: str,
        target: str,
        stream: Stream,
        headers: dict[str, str],
    ) -> tuple[int, bytes, str, bool]:
        """One request → (status, body, content type, close?).

        Bad payloads answer ``400`` with field-level errors, unknown paths
        ``404``, wrong methods ``405``, a body not received within
        :data:`REQUEST_READ_TIMEOUT` ``408``, handler bugs ``500`` with a
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
                method, path, query, stream, headers
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
        except TimeoutError:
            status = 408
            close = True
            body = _json_bytes(_timeout_body())
        except ConnectionError:
            # Client hung up mid-body.
            status = 499
            close = True
            body = b""
        except Exception:
            import traceback

            self.log(
                f"unhandled error on {path}:\n{traceback.format_exc()}"
            )
            status = 500
            body = _json_bytes(_error_body("internal server error"))
        finally:
            self.metrics.observe(path, status, time.perf_counter() - t0)
        return status, body, content_type, close

    async def _read_body(self, stream: Stream, headers: dict[str, str]) -> Any:
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
        raw = await stream.readexactly(length)
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
        stream: Stream,
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
            payload = await self._read_body(stream, headers)
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
        unit, order = test_query_unit(parse_test_request(payload), chaos=self.chaos)
        blob, cached = await self._shard_of(unit.digest).call("test", unit)
        return {
            "digest": unit.digest,
            "cached": cached,
            "report": _remap_report_dict(blob, order),
        }

    async def handle_partition(self, payload: Any) -> dict[str, Any]:
        """``POST /v1/partition`` — a first-fit assignment, cached."""
        unit, order = partition_query_unit(
            parse_partition_request(payload), chaos=self.chaos
        )
        blob, cached = await self._shard_of(unit.digest).call("partition", unit)
        return {
            "digest": unit.digest,
            "cached": cached,
            "result": _remap_partition_dict(blob, order),
        }

    async def handle_batch(self, payload: Any) -> dict[str, Any]:
        """Split by shard, fan out concurrently, reassemble positionally."""
        queries = parse_batch_request(payload)
        orders: list[list[int]] = []
        units: list[TestUnit] = []
        by_shard: dict[int, list[int]] = {}
        for k, q in enumerate(queries):
            unit, order = test_query_unit(q, chaos=self.chaos)
            orders.append(order)
            units.append(unit)
            by_shard.setdefault(
                shard_for_digest(unit.digest, len(self.handles)), []
            ).append(k)
        shard_ids = sorted(by_shard)
        sub_results = await gather(
            *(
                self.handles[s].call(
                    "batch", [units[k] for k in by_shard[s]]
                )
                for s in shard_ids
            )
        )
        outcomes: list[tuple[bytes, bool] | None] = [None] * len(queries)
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
                    "report": _remap_report_dict(blob, orders[k]),
                }
                for k, (blob, cached) in enumerate(outcomes)  # type: ignore[misc]
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
                return await wait_for(handle.call("stats", None), STATS_TIMEOUT)
            except (TimeoutError, ShardUnavailable, _WorkerError):
                return None

        stats = await gather(*(poll(h) for h in self.handles))
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


def _listen(host: str | None, port: int) -> list[socket.socket]:
    """Listening sockets for every address ``host`` names.

    The name is resolved on this thread: a resolver thread is one the
    front end must never hold.
    """
    infos = socket.getaddrinfo(
        host or None, port, type=socket.SOCK_STREAM, flags=socket.AI_PASSIVE
    )
    listeners = []
    for family, kind, proto, _, address in dict.fromkeys(infos):
        listener = socket.socket(family, kind, proto)
        try:
            listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            if family == socket.AF_INET6:
                listener.setsockopt(socket.IPPROTO_IPV6, socket.IPV6_V6ONLY, 1)
            listener.bind(address)
            listener.listen(100)
            listener.setblocking(False)
        except OSError:
            listener.close()
            for bound in listeners:
                bound.close()
            raise
        listeners.append(listener)
    return listeners


def _json_bytes(body: Any) -> bytes:
    return json.dumps(body, sort_keys=True).encode("utf-8")


def _timeout_body() -> dict[str, Any]:
    return _error_body(
        f"request not received within {REQUEST_READ_TIMEOUT:g} s of its first byte"
    )


async def _read_head(stream: Stream) -> tuple[str, str, dict[str, str]] | None:
    """(method, target, headers) of the next request; ``None`` to hang up.

    Raises :class:`ValueError` for a line over the stream limit or more
    than :data:`MAX_HEADERS` header lines.
    """
    request_line = await stream.readline()
    if not request_line or request_line.strip() == b"":
        return None
    try:
        method, target, _version = (
            request_line.decode("latin-1").strip().split(" ", 2)
        )
    except ValueError:
        return None  # not HTTP; drop the connection
    headers: dict[str, str] = {}
    for _ in range(MAX_HEADERS + 1):  # the header lines, then the blank one
        line = await stream.readline()
        if line in (b"\r\n", b"\n", b""):
            return method, target, headers
        if b":" in line:
            key, _, value = line.decode("latin-1").partition(":")
            headers[key.strip().lower()] = value.strip()
    raise ValueError(f"more than {MAX_HEADERS} header lines")


async def _respond(
    stream: Stream,
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
    stream.write(head.encode("latin-1") + body)
    try:
        await stream.drain()
    except ConnectionError:
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
    pool: list[tuple[int, socket.socket]] | None = None,
) -> int:
    """Run the service until SIGTERM/SIGINT, drain, exit 0.

    ``pool`` holds the ``workers`` shard workers when the caller has
    forked them already (see :func:`~repro.service.shard.fork_worker`).
    """
    frontend = ShardedFrontend(
        host,
        port,
        workers=workers,
        cache_size=cache_size,
        backend=backend,
        chaos=chaos,
        quiet=quiet,
        pool=pool,
    )
    loop = Loop()

    async def main() -> int:
        await frontend.start()
        stop = Future(loop)

        def request_stop() -> None:
            if not stop.done():
                stop.set_result(None)

        for sig in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(sig, request_stop)
        print(
            f"repro.service.frontend listening on "
            f"http://{host}:{frontend.bound_port} "
            f"(workers={workers}, cache_size={cache_size}, "
            f"backend={backend or 'scalar'})",
            file=sys.stderr,
            flush=True,
        )
        await stop
        print(
            "repro.service.frontend shutting down: draining requests "
            "and worker pool...",
            file=sys.stderr,
            flush=True,
        )
        await frontend.drain()
        print("repro.service.frontend stopped", file=sys.stderr, flush=True)
        return 0

    try:
        return loop.run(main())
    finally:
        loop.close()
