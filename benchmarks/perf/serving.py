"""The server under test and the load driver that measures it.

:class:`Server` runs ``repro serve --workers 1 --backend numpy`` as a
subprocess, the way users run it.  Load comes from one asyncio thread
over a few keep-alive connections (:class:`Client`); the driver never
holds more connections open than :data:`MAX_CONNECTIONS`.  Server-side
CPU and memory are read from ``/proc`` for the server process and its
children, so they survive changes to the server's own endpoints.
"""

from __future__ import annotations

import asyncio
import gc
import json
import os
import signal
import socket
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from corpus import Corpus, Request

#: The driver's hard cap on simultaneously open connections.
MAX_CONNECTIONS = len(os.sched_getaffinity(0))
#: Load connections for every serving workload.
CONNECTIONS = min(2, MAX_CONNECTIONS)
#: An open-loop run whose dispatch lateness p99 exceeds this is invalid:
#: the generator, not the server, set the latency.
MAX_LATENESS_MS = 5.0
#: serve-mixed latency objective, measured from each request's due time.
SLO_MS = 50.0
READY_TIMEOUT = 60.0
_CLK_TCK = os.sysconf("SC_CLK_TCK")


class GateError(Exception):
    """A response disagreed with its reference; no metric may be printed."""


# -- /proc -------------------------------------------------------------------


def cpu_seconds(pid: int) -> float:
    """User + system CPU of one process (all its threads)."""
    stat = Path(f"/proc/{pid}/stat").read_text()
    fields = stat[stat.rindex(")") + 2 :].split()
    return (int(fields[11]) + int(fields[12])) / _CLK_TCK


def children(pid: int) -> list[int]:
    """Direct child processes of ``pid``."""
    out = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        if int(stat[stat.rindex(")") + 2 :].split()[1]) == pid:
            out.append(int(entry.name))
    return sorted(out)


def peak_rss_mb(pid: int) -> float:
    """``VmHWM`` (peak resident set) of one process, in MB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


# -- the server process --------------------------------------------------------


def _free_port() -> int:
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


class Server:
    """One ``repro serve`` subprocess on a private port."""

    def __init__(self, root: Path, cache_size: int, log: Path):
        self.root = root
        self.cache_size = cache_size
        self.log = log
        self.port = _free_port()
        self.proc: subprocess.Popen | None = None

    def spawn(self) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(self.root / "src")
        argv = [
            sys.executable, "-m", "repro", "serve",
            "--host", "127.0.0.1", "--port", str(self.port),
            "--workers", "1", "--backend", "numpy",
            "--cache-size", str(self.cache_size),
        ]
        with open(self.log, "ab") as log:
            self.proc = subprocess.Popen(
                argv, cwd=self.root, env=env, stdout=log, stderr=log,
                stdin=subprocess.DEVNULL,
            )

    def pids(self) -> tuple[int, list[int]]:
        """(front end pid, shard worker pids)."""
        assert self.proc is not None
        return self.proc.pid, children(self.proc.pid)

    def rss_mb(self) -> float:
        front, workers = self.pids()
        return sum(peak_rss_mb(p) for p in (front, *workers))

    def stop(self) -> None:
        if self.proc is None or self.proc.poll() is not None:
            return
        self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


# -- HTTP ------------------------------------------------------------------------


def get_request(path: str) -> bytes:
    return f"GET {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n".encode("latin-1")


class Conn:
    """One keep-alive HTTP/1.1 connection."""

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
        self.reader = reader
        self.writer = writer

    async def send(self, raw: bytes) -> tuple[int, bytes]:
        self.writer.write(raw)
        head = await self.reader.readuntil(b"\r\n\r\n")
        status = int(head[9:12])
        length = 0
        for line in head.split(b"\r\n")[1:]:
            if line[:15].lower() == b"content-length:":
                length = int(line[15:])
        return status, await self.reader.readexactly(length)


@dataclass
class Client:
    """The driver's connections; counts how many are open at once."""

    open_now: int = 0
    peak: int = 0
    conns: list[Conn] = field(default_factory=list)

    async def connect(self, port: int) -> Conn:
        if self.open_now >= MAX_CONNECTIONS:
            raise RuntimeError(f"driver would exceed {MAX_CONNECTIONS} connections")
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        self.open_now += 1
        self.peak = max(self.peak, self.open_now)
        conn = Conn(reader, writer)
        self.conns.append(conn)
        return conn

    async def close(self, conn: Conn) -> None:
        self.conns.remove(conn)
        conn.writer.close()
        try:
            await conn.writer.wait_closed()
        except (ConnectionError, OSError):
            pass
        self.open_now -= 1

    async def close_all(self) -> None:
        for conn in list(self.conns):
            await self.close(conn)


async def start_server(
    client: Client, root: Path, cache_size: int, log: Path, probe: Request
) -> tuple[Server, float]:
    """Spawn a server; seconds from spawn until ``/healthz`` answers 200
    and a first verdict (``probe``) comes back."""
    server = Server(root, cache_size, log)
    t0 = time.perf_counter()
    server.spawn()
    deadline = t0 + READY_TIMEOUT
    try:
        while True:
            if server.proc.poll() is not None:
                raise RuntimeError(f"server exited with {server.proc.returncode}; see {log}")
            if time.perf_counter() > deadline:
                raise RuntimeError(f"server not ready after {READY_TIMEOUT}s; see {log}")
            try:
                conn = await client.connect(server.port)
                break
            except OSError:
                await asyncio.sleep(0.005)
        try:
            while (await conn.send(get_request("/healthz")))[0] != 200:
                if time.perf_counter() > deadline:
                    raise RuntimeError(f"/healthz not 200 after {READY_TIMEOUT}s")
                await asyncio.sleep(0.005)
            status, body = await conn.send(probe.raw)
            if status != 200:
                raise RuntimeError(f"probe verdict answered {status}: {body[:200]!r}")
        finally:
            await client.close(conn)
    except BaseException:
        server.stop()
        raise
    return server, time.perf_counter() - t0


# -- correctness -----------------------------------------------------------------


def _strip_backend(report: dict) -> dict:
    return {k: v for k, v in report.items() if k != "backend"}


def check_answer(corpus: Corpus, req: Request, status: int, body: bytes) -> None:
    """Gate one response against the references; learn digests."""
    if status != 200:
        raise GateError(f"{req.path} answered {status}: {body[:200]!r}")
    payload = json.loads(body)
    results = payload["results"] if req.path == "/v1/batch" else [payload]
    if len(results) != len(req.entries):
        raise GateError(f"{req.path}: {len(results)} results for {len(req.entries)} items")
    for k, result in zip(req.entries, results):
        entry = corpus.entries[k]
        got = result["result"] if entry.path == "/v1/partition" else _strip_backend(result["report"])
        if got != entry.expected:
            raise GateError(
                f"{req.path}: corpus entry {k} differs from the in-process reference"
            )
        if entry.digest is None:
            entry.digest = result["digest"]
        elif entry.digest != result["digest"]:
            raise GateError(f"corpus entry {k}: digest changed between requests")


async def gate(conn: Conn, corpus: Corpus, extra: list[Request]) -> int:
    """POST every corpus entry once (plus ``extra``), checking each answer."""
    for req in [*corpus.singles, *extra]:
        status, body = await conn.send(req.raw)
        check_answer(corpus, req, status, body)
    return len(corpus.singles) + len(extra)


# -- timed load --------------------------------------------------------------------


@dataclass
class Timeline:
    """A warm-up, then ``windows`` equal windows, on the perf_counter clock."""

    start: float
    warmup: float
    window: float
    windows: int

    def boundary(self, k: int) -> float:
        """Start of timed window ``k`` (1-based); ``windows + 1`` is the end."""
        return self.start + self.warmup + (k - 1) * self.window

    @property
    def end(self) -> float:
        return self.boundary(self.windows + 1)

    def index(self, t: float) -> int:
        """Window of time ``t``: 0 is warm-up, 1..windows are timed."""
        if t < self.boundary(1):
            return 0
        return min(1 + int((t - self.boundary(1)) / self.window), self.windows + 1)


@dataclass
class LoadResult:
    #: per timed window: latencies (ms) of the requests completed in it
    latencies: list[list[float]]
    lateness_ms: list[float]
    #: CPU seconds (client, front end, workers) over the timed windows;
    #: ``None`` for a process the server does not have
    cpu: dict[str, float | None]
    requests: int
    failures: list[str]


def _cpu_snapshot(server: Server) -> dict[str, float | None]:
    front, workers = server.pids()
    return {
        "client": time.process_time(),
        "frontend": cpu_seconds(front),
        "shard": sum(cpu_seconds(p) for p in workers) if workers else None,
    }


async def drive(
    conns: list[Conn],
    server: Server,
    corpus: Corpus,
    timeline: Timeline,
    *,
    closed: list | None = None,
    schedule: list[tuple[float, Request]] | None = None,
) -> LoadResult:
    """Run a closed loop (one request iterator per connection) or an open
    loop (a due-time schedule shared by the connections) over the timeline.

    Latency runs from send (closed) or from the due time (open) to the last
    response byte.  Every response is checked for status 200 and the
    expected digests; requests still in flight at the end are drained.
    """
    n = timeline.windows
    digests = [e.digest.encode() if e.digest else b"\0" for e in corpus.entries]
    latencies: list[list[float]] = [[] for _ in range(n + 2)]
    lateness: list[float] = []
    failures: list[str] = []
    snaps: dict[int, dict[str, float | None]] = {}
    requests = 0

    def record(req: Request, status: int, body: bytes, t0: float, t1: float) -> None:
        nonlocal requests
        requests += 1
        if status != 200 or not all(digests[k] in body for k in req.entries):
            failures.append(f"{req.path} answered {status}: {body[:120]!r}")
        latencies[timeline.index(t1)].append((t1 - t0) * 1e3)

    async def snapshots() -> None:
        for k in (1, n + 1):
            await asyncio.sleep(timeline.boundary(k) - time.perf_counter())
            snaps[k] = _cpu_snapshot(server)

    async def closed_conn(conn: Conn, stream) -> None:
        for req in stream:
            t0 = time.perf_counter()
            if t0 >= timeline.end:
                return
            status, body = await conn.send(req.raw)
            record(req, status, body, t0, time.perf_counter())

    async def open_conn(conn: Conn, queue: asyncio.Queue) -> None:
        while (item := await queue.get()) is not None:
            due, req = item
            status, body = await conn.send(req.raw)
            record(req, status, body, due, time.perf_counter())

    async def dispatch(queue: asyncio.Queue) -> None:
        for offset, req in schedule:
            due = timeline.start + offset
            if due >= timeline.end:
                break
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            lateness.append((time.perf_counter() - due) * 1e3)
            queue.put_nowait((due, req))
        for _ in conns:
            queue.put_nowait(None)

    # A collector pause in the driver would be charged to the server's
    # latency; the loop allocates no cycles, so collection waits until after.
    gc.collect()
    gc.freeze()
    gc.disable()
    watcher = asyncio.ensure_future(snapshots())
    try:
        if closed is not None:
            await asyncio.gather(*(closed_conn(c, s) for c, s in zip(conns, closed)))
        else:
            queue: asyncio.Queue = asyncio.Queue()
            await asyncio.gather(dispatch(queue), *(open_conn(c, queue) for c in conns))
        await watcher
    finally:
        watcher.cancel()
        gc.enable()
        gc.unfreeze()
    a, b = snaps[1], snaps[n + 1]
    return LoadResult(
        latencies=latencies[1 : n + 1],
        lateness_ms=lateness,
        cpu={
            key: None if a[key] is None or b[key] is None else b[key] - a[key]
            for key in a
        },
        requests=requests,
        failures=failures,
    )


async def scrape_cache(conn: Conn) -> dict[str, float] | None:
    """Summed shard cache counters from ``/metrics?format=prometheus``;
    ``None`` when the series are not exported."""
    status, body = await conn.send(get_request("/metrics?format=prometheus"))
    if status != 200:
        return None
    totals: dict[str, float] = {}
    for line in body.decode().splitlines():
        for key in ("hits", "misses", "evictions"):
            if line.startswith(f"repro_shard_cache_{key}_total{{"):
                totals[key] = totals.get(key, 0.0) + float(line.rsplit(" ", 1)[1])
    return totals if len(totals) == 3 else None
