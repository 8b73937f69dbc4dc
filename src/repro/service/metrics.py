"""Request-level observability: counters and latency histograms.

One :class:`MetricsRegistry` per service instance accumulates, per
endpoint, a request counter split by HTTP status and a fixed-bucket
latency histogram.  Snapshots render two ways:

* :meth:`MetricsRegistry.as_dict` — plain data for the JSON ``/metrics``
  response;
* :meth:`MetricsRegistry.render_prometheus` — the Prometheus text
  exposition format (counters plus cumulative ``_bucket`` series), so a
  scraper can point at ``/metrics?format=prometheus`` unchanged.

Everything is guarded by one lock; observation is two dict updates and
a bucket scan, far below the cost of any feasibility test.
"""

from __future__ import annotations

import threading
from typing import Any

__all__ = [
    "DEFAULT_BUCKETS",
    "LatencyHistogram",
    "MetricsRegistry",
    "render_shard_prometheus",
]

#: Histogram bucket upper bounds, in seconds.  Feasibility tests on
#: cached instances answer in microseconds; cold LP/batch queries can
#: take tens of milliseconds — the range covers both with headroom.
DEFAULT_BUCKETS: tuple[float, ...] = (
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
)


class LatencyHistogram:
    """Fixed-bucket latency histogram (not thread-safe on its own —
    callers hold the registry lock)."""

    __slots__ = ("buckets", "counts", "overflow", "total", "count")

    def __init__(self, buckets: tuple[float, ...] = DEFAULT_BUCKETS):
        if list(buckets) != sorted(buckets) or len(set(buckets)) != len(buckets):
            raise ValueError("buckets must be strictly increasing")
        self.buckets = buckets
        self.counts = [0] * len(buckets)
        self.overflow = 0  # observations above the last bound (+Inf bucket)
        self.total = 0.0
        self.count = 0

    def observe(self, seconds: float) -> None:
        self.total += seconds
        self.count += 1
        for k, bound in enumerate(self.buckets):
            if seconds <= bound:
                self.counts[k] += 1
                return
        self.overflow += 1

    def cumulative(self) -> list[tuple[float, int]]:
        """Prometheus-style ``(le, cumulative count)`` pairs, +Inf last."""
        out: list[tuple[float, int]] = []
        running = 0
        for bound, c in zip(self.buckets, self.counts):
            running += c
            out.append((bound, running))
        out.append((float("inf"), running + self.overflow))
        return out

    def as_dict(self) -> dict[str, Any]:
        return {
            "count": self.count,
            "sum_seconds": self.total,
            "mean_seconds": self.total / self.count if self.count else 0.0,
            "buckets": {
                _le_label(bound): cum for bound, cum in self.cumulative()
            },
        }


def _le_label(bound: float) -> str:
    return "+Inf" if bound == float("inf") else f"{bound:g}"


class MetricsRegistry:
    """Per-endpoint request counters and latency histograms."""

    def __init__(self, buckets: tuple[float, ...] = DEFAULT_BUCKETS):
        self._buckets = buckets
        self._lock = threading.Lock()
        #: (endpoint, status) -> count
        self._requests: dict[tuple[str, int], int] = {}
        #: endpoint -> histogram
        self._latency: dict[str, LatencyHistogram] = {}

    def observe(self, endpoint: str, status: int, seconds: float) -> None:
        """Record one finished request."""
        with self._lock:
            key = (endpoint, int(status))
            self._requests[key] = self._requests.get(key, 0) + 1
            hist = self._latency.get(endpoint)
            if hist is None:
                hist = self._latency[endpoint] = LatencyHistogram(self._buckets)
            hist.observe(seconds)

    def request_count(self, endpoint: str | None = None) -> int:
        """Total requests, optionally restricted to one endpoint."""
        with self._lock:
            return sum(
                c
                for (ep, _), c in self._requests.items()
                if endpoint is None or ep == endpoint
            )

    def as_dict(self) -> dict[str, Any]:
        """JSON-ready snapshot of every metric."""
        with self._lock:
            requests: dict[str, dict[str, int]] = {}
            for (ep, status), count in sorted(self._requests.items()):
                requests.setdefault(ep, {})[str(status)] = count
            latency = {
                ep: hist.as_dict() for ep, hist in sorted(self._latency.items())
            }
        return {"requests": requests, "latency": latency}

    def render_prometheus(self) -> str:
        """Prometheus text exposition format (version 0.0.4)."""
        lines: list[str] = []
        with self._lock:
            requests = sorted(self._requests.items())
            latency = [
                (ep, hist.cumulative(), hist.total, hist.count)
                for ep, hist in sorted(self._latency.items())
            ]
        lines.append("# HELP repro_requests_total Requests served, by endpoint and status.")
        lines.append("# TYPE repro_requests_total counter")
        for (ep, status), count in requests:
            lines.append(
                f'repro_requests_total{{endpoint="{ep}",status="{status}"}} {count}'
            )
        lines.append("# HELP repro_request_latency_seconds Request latency, by endpoint.")
        lines.append("# TYPE repro_request_latency_seconds histogram")
        for ep, cumulative, total, count in latency:
            for bound, cum in cumulative:
                lines.append(
                    f'repro_request_latency_seconds_bucket{{endpoint="{ep}",'
                    f'le="{_le_label(bound)}"}} {cum}'
                )
            lines.append(
                f'repro_request_latency_seconds_sum{{endpoint="{ep}"}} {total!r}'
            )
            lines.append(
                f'repro_request_latency_seconds_count{{endpoint="{ep}"}} {count}'
            )
        return "\n".join(lines) + "\n"


def render_shard_prometheus(shards: list[dict[str, Any]]) -> str:
    """Per-shard Prometheus series for the sharded front end.

    ``shards`` holds one snapshot dict per shard —
    ``{"shard", "state", "restarts", "queue_depth", "stats"}`` — where
    ``stats`` is the worker's own counters (``requests``, ``items``,
    ``cache``, ``backend_tests``) or ``None`` when the worker could not
    be polled (dead or restarting).  Liveness, restarts, and queue
    depth come from the front end's view, so they are reported even for
    a shard that cannot answer.
    """
    lines: list[str] = []

    def series(name: str, kind: str, help_text: str, rows: list[str]) -> None:
        if not rows:
            return
        lines.append(f"# HELP {name} {help_text}")
        lines.append(f"# TYPE {name} {kind}")
        lines.extend(rows)

    series(
        "repro_shard_up",
        "gauge",
        "1 when the shard worker is alive and serving, else 0.",
        [
            f'repro_shard_up{{shard="{s["shard"]}"}} '
            f'{1 if s.get("state") == "ok" else 0}'
            for s in shards
        ],
    )
    series(
        "repro_shard_restarts_total",
        "counter",
        "Worker respawns after a crash, by shard.",
        [
            f'repro_shard_restarts_total{{shard="{s["shard"]}"}} '
            f'{s.get("restarts", 0)}'
            for s in shards
        ],
    )
    series(
        "repro_shard_queue_depth",
        "gauge",
        "Requests in flight to the shard worker (front-end view).",
        [
            f'repro_shard_queue_depth{{shard="{s["shard"]}"}} '
            f'{s.get("queue_depth", 0)}'
            for s in shards
        ],
    )
    requests_rows: list[str] = []
    items_rows: list[str] = []
    hit_rows: list[str] = []
    miss_rows: list[str] = []
    evict_rows: list[str] = []
    size_rows: list[str] = []
    backend_rows: list[str] = []
    for s in shards:
        stats = s.get("stats")
        if not stats:
            continue
        shard = s["shard"]
        for op, count in stats.get("requests", {}).items():
            requests_rows.append(
                f'repro_shard_requests_total{{shard="{shard}",op="{op}"}} {count}'
            )
        items_rows.append(
            f'repro_shard_items_total{{shard="{shard}"}} {stats.get("items", 0)}'
        )
        cache = stats.get("cache", {})
        hit_rows.append(
            f'repro_shard_cache_hits_total{{shard="{shard}"}} '
            f'{cache.get("hits", 0)}'
        )
        miss_rows.append(
            f'repro_shard_cache_misses_total{{shard="{shard}"}} '
            f'{cache.get("misses", 0)}'
        )
        evict_rows.append(
            f'repro_shard_cache_evictions_total{{shard="{shard}"}} '
            f'{cache.get("evictions", 0)}'
        )
        size_rows.append(
            f'repro_shard_cache_size{{shard="{shard}"}} {cache.get("size", 0)}'
        )
        for backend, count in stats.get("backend_tests", {}).items():
            backend_rows.append(
                f'repro_shard_backend_tests_total{{shard="{shard}",'
                f'backend="{backend}"}} {count}'
            )
    series(
        "repro_shard_requests_total",
        "counter",
        "Frames answered by the shard worker, by op.",
        requests_rows,
    )
    series(
        "repro_shard_items_total",
        "counter",
        "Individual verdict items processed by the shard worker.",
        items_rows,
    )
    series(
        "repro_shard_cache_hits_total",
        "counter",
        "Shard-private verdict cache hits.",
        hit_rows,
    )
    series(
        "repro_shard_cache_misses_total",
        "counter",
        "Shard-private verdict cache misses.",
        miss_rows,
    )
    series(
        "repro_shard_cache_evictions_total",
        "counter",
        "Shard-private verdict cache evictions.",
        evict_rows,
    )
    series(
        "repro_shard_cache_size",
        "gauge",
        "Entries in the shard-private verdict cache.",
        size_rows,
    )
    series(
        "repro_shard_backend_tests_total",
        "counter",
        "Feasibility tests evaluated by the shard worker, by backend.",
        backend_rows,
    )
    return "\n".join(lines) + "\n" if lines else ""
