"""Closed- and open-loop load drivers and their report.

Two drivers, one report shape:

* **closed loop** — ``concurrency`` clients, each with one keep-alive
  connection, each issuing its next request the moment the previous
  response lands.  Throughput is the measurement; the loop adapts to
  the server, so latency here is service time, not queueing delay.
* **open loop** — requests are sent at pre-drawn arrival times
  regardless of responses.  Latency here *includes* queueing, and the
  report additionally tracks send lateness (how far behind schedule
  the generator itself fell — nonzero lateness means the measured
  tail is a lower bound).

Timing discipline: ``time.monotonic`` anchors schedules and deadlines,
``time.perf_counter`` measures per-request latency — never wall-clock
(the repo-wide REP003 rule, which applies to measurement code too: a
clock step mid-run must not be able to corrupt an archived number).
"""

from __future__ import annotations

import json
import math
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Iterator

import numpy as np

from ..service.client import HttpClient, HttpError
from .arrivals import burst_arrivals, poisson_arrivals
from .profiles import LoadProfile, build_corpus, stream_seed, zipf_draws

__all__ = ["LoadReport", "percentile", "run_load"]


def percentile(sorted_samples: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]) of pre-sorted data."""
    if not sorted_samples:
        return 0.0
    if not 0 <= q <= 100:
        raise ValueError(f"q must be in [0, 100], got {q}")
    rank = max(1, math.ceil(q / 100.0 * len(sorted_samples)))
    return sorted_samples[rank - 1]


@dataclass
class LoadReport:
    """Everything one load run measured, JSON-ready."""

    profile: dict[str, Any]
    target: str
    duration_seconds: float
    requests: int
    errors: int
    rps: float
    latency_ms: dict[str, float]
    #: open loop only: offered vs sent and generator lateness
    open_loop: dict[str, Any] | None = None
    #: the server's /healthz after the run (architecture, cache state)
    server: dict[str, Any] | None = None
    status_counts: dict[str, int] = field(default_factory=dict)

    def as_dict(self) -> dict[str, Any]:
        return {
            "profile": self.profile,
            "target": self.target,
            "duration_seconds": self.duration_seconds,
            "requests": self.requests,
            "errors": self.errors,
            "rps": self.rps,
            "latency_ms": self.latency_ms,
            "open_loop": self.open_loop,
            "server": self.server,
            "status_counts": self.status_counts,
        }

    def summary(self) -> str:
        lat = self.latency_ms
        line = (
            f"{self.profile.get('name', '?')}: {self.requests} requests "
            f"in {self.duration_seconds:.2f}s = {self.rps:.1f} req/s, "
            f"p50 {lat.get('p50', 0.0):.2f}ms / p99 {lat.get('p99', 0.0):.2f}ms"
        )
        if self.errors:
            line += f", {self.errors} error(s)"
        if self.open_loop is not None:
            line += (
                f" (offered {self.open_loop['offered']}, lateness p99 "
                f"{self.open_loop['lateness_ms']['p99']:.2f}ms)"
            )
        return line


@dataclass
class _ClientTally:
    """One driver thread's measurements (merged after join)."""

    latencies: list[float] = field(default_factory=list)
    statuses: dict[int, int] = field(default_factory=dict)
    errors: int = 0
    lateness: list[float] = field(default_factory=list)

    def record(self, status: int, seconds: float) -> None:
        self.latencies.append(seconds)
        self.statuses[status] = self.statuses.get(status, 0) + 1
        if status != 200:
            self.errors += 1


def _index_stream(profile: LoadProfile, client: int) -> Iterator[int]:
    """Lazy, unbounded version of :func:`request_indices`."""
    if profile.access == "scan":
        w = profile.working_set
        clients = max(1, profile.concurrency)
        k = (client * w) // clients
        while True:
            yield k
            k = (k + 1) % w
    else:
        rng = np.random.default_rng(stream_seed(profile.seed, 1, client))
        while True:
            yield from zipf_draws(rng, profile.working_set, profile.zipf_s, 256)


def _closed_worker(
    host: str,
    port: int,
    path: str,
    corpus: list[bytes],
    profile: LoadProfile,
    client_index: int,
    deadline: float,
    tally: _ClientTally,
) -> None:
    stream = _index_stream(profile, client_index)
    with HttpClient(host, port) as http:
        while time.monotonic() < deadline:
            body = corpus[next(stream)]
            t0 = time.perf_counter()
            try:
                status, _ = http.request("POST", path, body)
            except HttpError:
                tally.errors += 1
                continue
            tally.record(status, time.perf_counter() - t0)


def _open_worker(
    host: str,
    port: int,
    path: str,
    corpus: list[bytes],
    schedule: list[tuple[float, int]],
    start: float,
    tally: _ClientTally,
) -> None:
    """Send each assigned (offset, corpus index) at its scheduled time."""
    with HttpClient(host, port) as http:
        for offset, idx in schedule:
            now = time.monotonic()
            due = start + offset
            if now < due:
                time.sleep(due - now)
            tally.lateness.append(max(0.0, time.monotonic() - due))
            t0 = time.perf_counter()
            try:
                status, _ = http.request("POST", path, corpus[idx])
            except HttpError:
                tally.errors += 1
                continue
            tally.record(status, time.perf_counter() - t0)


def _latency_summary(latencies: list[float]) -> dict[str, float]:
    samples = sorted(latencies)
    return {
        "p50": percentile(samples, 50) * 1000.0,
        "p90": percentile(samples, 90) * 1000.0,
        "p99": percentile(samples, 99) * 1000.0,
        "mean": (sum(samples) / len(samples) * 1000.0) if samples else 0.0,
        "max": (samples[-1] * 1000.0) if samples else 0.0,
    }


def _fetch_healthz(host: str, port: int) -> dict[str, Any] | None:
    try:
        with HttpClient(host, port, timeout=5.0) as http:
            status, body = http.request("GET", "/healthz")
        if status != 200:
            return None
        return json.loads(body)
    except (HttpError, json.JSONDecodeError, OSError):
        return None


def run_load(
    host: str,
    port: int,
    profile: LoadProfile,
    *,
    corpus: list[bytes] | None = None,
    path: str = "/v1/test",
) -> LoadReport:
    """Drive ``profile`` against ``host:port`` and measure it.

    ``corpus`` may be passed in to amortize corpus construction across
    runs (the benchmark reuses one corpus for every worker count — the
    comparison would be void otherwise).
    """
    if corpus is None:
        corpus = build_corpus(profile)
    tallies: list[_ClientTally] = []
    threads: list[threading.Thread] = []
    offered = 0
    if profile.mode == "closed":
        start = time.monotonic()
        deadline = start + profile.duration
        for c in range(profile.concurrency):
            tally = _ClientTally()
            tallies.append(tally)
            threads.append(
                threading.Thread(
                    target=_closed_worker,
                    args=(host, port, path, corpus, profile, c, deadline, tally),
                    name=f"loadgen-closed-{c}",
                )
            )
    elif profile.mode == "open":
        rng = np.random.default_rng(stream_seed(profile.seed, 2))
        if profile.arrivals == "poisson":
            offsets = poisson_arrivals(rng, profile.rate, profile.duration)
        elif profile.arrivals == "burst":
            offsets = burst_arrivals(
                rng, profile.rate, profile.burst_rate, profile.duration
            )
        else:
            raise ValueError(f"unknown arrival process {profile.arrivals!r}")
        idx_rng = np.random.default_rng(stream_seed(profile.seed, 3))
        indices = idx_rng.integers(profile.working_set, size=len(offsets))
        schedule = [
            (offset, int(idx)) for offset, idx in zip(offsets, indices)
        ]
        offered = len(schedule)
        # Partition arrivals round-robin across enough senders that one
        # slow response cannot stall the whole schedule.
        senders = max(8, profile.concurrency)
        buckets: list[list[tuple[float, int]]] = [[] for _ in range(senders)]
        for k, entry in enumerate(schedule):
            buckets[k % senders].append(entry)
        start = time.monotonic()
        for c, bucket in enumerate(buckets):
            tally = _ClientTally()
            tallies.append(tally)
            threads.append(
                threading.Thread(
                    target=_open_worker,
                    args=(host, port, path, corpus, bucket, start, tally),
                    name=f"loadgen-open-{c}",
                )
            )
    else:
        raise ValueError(f"unknown mode {profile.mode!r}")

    for t in threads:
        t.start()
    for t in threads:
        t.join()
    elapsed = time.monotonic() - start

    latencies = [x for tally in tallies for x in tally.latencies]
    errors = sum(t.errors for t in tallies)
    statuses: dict[str, int] = {}
    for tally in tallies:
        for status, count in tally.statuses.items():
            key = str(status)
            statuses[key] = statuses.get(key, 0) + count
    open_loop: dict[str, Any] | None = None
    if profile.mode == "open":
        lateness = sorted(
            x for tally in tallies for x in tally.lateness
        )
        open_loop = {
            "offered": offered,
            "lateness_ms": {
                "p50": percentile(lateness, 50) * 1000.0,
                "p99": percentile(lateness, 99) * 1000.0,
                "max": (lateness[-1] * 1000.0) if lateness else 0.0,
            },
        }
    return LoadReport(
        profile=profile.as_dict(),
        target=f"http://{host}:{port}{path}",
        duration_seconds=elapsed,
        requests=len(latencies),
        errors=errors,
        rps=len(latencies) / elapsed if elapsed > 0 else 0.0,
        latency_ms=_latency_summary(latencies),
        open_loop=open_loop,
        server=_fetch_healthz(host, port),
        status_counts=statuses,
    )
