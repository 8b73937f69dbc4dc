"""Load generation for the feasibility-query service.

The serving stack (:mod:`repro.service.frontend`, in-process at
``--workers 0`` or sharded over worker processes) needs a measurement
story of its own: verdict micro-benchmarks say nothing about sustained RPS, tail
latency, or how a shard's private cache behaves under a real request
mix.  This package is that story:

* :mod:`~repro.loadgen.arrivals` — open-loop arrival processes
  (Poisson and periodic-burst), seeded and deterministic;
* :mod:`~repro.loadgen.profiles` — named workload profiles: corpus
  shape (instance size, stress, working-set size), request mix, and
  access pattern (cyclic scans that defeat one small LRU, Zipf skew
  that imbalances shards);
* :mod:`~repro.loadgen.client` — a raw-socket keep-alive HTTP client
  cheap enough to share one core with the server under test;
* :mod:`~repro.loadgen.harness` — closed- and open-loop drivers that
  produce a :class:`~repro.loadgen.harness.LoadReport` (sustained RPS,
  p50/p90/p99 latency, error counts, server metric deltas).

``repro loadgen`` is the CLI entry point; ``benchmarks/bench_service.py``
uses the same harness to pin the service's RPS/latency trajectory in
``BENCH_service.json``.
"""

from .arrivals import burst_arrivals, poisson_arrivals
from .client import HttpClient, HttpError
from .harness import LoadReport, run_load
from .profiles import (
    PROFILES,
    LoadProfile,
    build_corpus,
    request_indices,
)

__all__ = [
    "burst_arrivals",
    "poisson_arrivals",
    "HttpClient",
    "HttpError",
    "LoadReport",
    "run_load",
    "PROFILES",
    "LoadProfile",
    "build_corpus",
    "request_indices",
]
