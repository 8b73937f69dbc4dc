"""Seeded request corpora for the serving workloads, with reference verdicts.

Every instance is drawn with :mod:`repro.workloads` from the run's seed and
encoded once, up front, so the load loop spends no CPU on JSON while the
server is timed.  Each distinct instance carries its reference answer,
computed in-process by the scalar paper path on the *submitted* instance
(``feasibility_test`` for ``/v1/test``, ``first_fit_partition`` for
``/v1/partition``); the correctness gate compares server responses with
these before anything is timed.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

from repro.core.feasibility import feasibility_test
from repro.core.partition import first_fit_partition
from repro.io_.serialize import (
    partition_result_to_dict,
    platform_to_dict,
    report_to_dict,
    taskset_to_dict,
)
from repro.workloads.builder import generate_taskset
from repro.workloads.platforms import geometric_platform

DEFAULT_SEED = 20160516
#: Per-worker verdict LRU of the server under test (``--cache-size``).
CACHE_SIZE = 320
#: Per-worker LRU in ``--quick`` mode, scaled with the quick corpora so
#: serve-miss still overflows it.
QUICK_CACHE_SIZE = 32
#: serve-mixed Poisson arrival rate, req/s: ~70% of the closed-loop knee
#: of the same request mix, measured once on the seed commit.
MIXED_RATE = 180.0
#: Total utilization as a fraction of platform capacity.
STRESS = 0.85
#: Constrained-deadline partition sets run lighter so first-fit QPA
#: walks most machines instead of failing on the first task.
PARTITION_STRESS = 0.6
SPEED_RATIO = 4.0
ZIPF_S = 1.1
#: serve-mixed request mix: (path, share)
MIX = (("/v1/test", 0.80), ("/v1/batch", 0.15), ("/v1/partition", 0.05))
BATCH_SIZE = 8
SCHEDULER = "rms"
ADVERSARY = "partitioned"
PARTITION_TEST = "edf-dbf"


@dataclass(frozen=True)
class Shape:
    """Corpus shape: distinct instances of ``n_tasks`` x ``n_machines``."""

    instances: int
    n_tasks: int
    n_machines: int
    #: constrained-deadline ``/v1/partition`` instances (serve-mixed only)
    partitions: int = 0


SHAPES = {
    "serve-miss": Shape(512, 128, 64),
    "serve-hit": Shape(64, 32, 32),
    "serve-mixed": Shape(512, 32, 32, partitions=64),
}
QUICK_SHAPES = {
    "serve-miss": Shape(48, 32, 16),
    "serve-hit": Shape(16, 16, 8),
    "serve-mixed": Shape(64, 16, 8, partitions=8),
}


@dataclass
class Entry:
    """One distinct instance the server is asked about."""

    path: str
    body: bytes
    #: reference ``report`` (test) or ``result`` (partition), JSON-normalized
    expected: dict
    #: the server's cache key for this instance, learned by the gate
    digest: str | None = None


@dataclass(frozen=True)
class Request:
    """One HTTP request of a load stream, encoded once, outside any timed loop."""

    path: str
    #: the whole HTTP/1.1 request
    raw: bytes
    #: corpus entries whose digests the response must carry
    entries: tuple[int, ...]

    @property
    def body(self) -> bytes:
        return self.raw[self.raw.index(b"\r\n\r\n") + 4 :]


def post(path: str, body: bytes, entries: tuple[int, ...]) -> Request:
    head = (
        f"POST {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
        f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
    )
    return Request(path, head.encode("latin-1") + body, entries)


@dataclass
class Corpus:
    workload: str
    seed: int
    shape: Shape
    cache_size: int
    entries: list[Entry]
    #: indices of the ``/v1/test`` entries (the rest are partitions)
    tests: list[int]
    partitions: list[int]
    fingerprint: str = ""
    #: per-entry single-instance requests, built once
    singles: list[Request] = field(default_factory=list)


def _normalize(payload: dict) -> dict:
    """The payload as it reads after a JSON round trip (tuples -> lists)."""
    return json.loads(json.dumps(payload))


def reference_report(taskset, platform) -> dict:
    """The scalar paper path's verdict on the submitted instance."""
    return _normalize(
        report_to_dict(feasibility_test(taskset, platform, SCHEDULER, ADVERSARY))
    )


def reference_partition(taskset, platform) -> dict:
    """The scalar first-fit partition of the submitted instance."""
    return _normalize(
        partition_result_to_dict(first_fit_partition(taskset, platform, PARTITION_TEST))
    )


def _encode(payload: dict) -> bytes:
    return json.dumps(payload, sort_keys=True).encode("utf-8")


def build(workload: str, seed: int, *, quick: bool = False) -> Corpus:
    """Draw the workload's instances and their reference answers."""
    shape = (QUICK_SHAPES if quick else SHAPES)[workload]
    rng = np.random.default_rng([seed, 1])
    platform = geometric_platform(shape.n_machines, SPEED_RATIO)
    platform_dict = platform_to_dict(platform)
    entries: list[Entry] = []
    for _ in range(shape.instances):
        taskset = generate_taskset(
            rng,
            shape.n_tasks,
            STRESS * platform.total_speed,
            method="randfixedsum",
            u_max=STRESS * platform.fastest_speed,
        )
        body = {
            "taskset": taskset_to_dict(taskset),
            "platform": platform_dict,
            "scheduler": SCHEDULER,
            "adversary": ADVERSARY,
        }
        entries.append(
            Entry("/v1/test", _encode(body), reference_report(taskset, platform))
        )
    for _ in range(shape.partitions):
        taskset = generate_taskset(
            rng,
            shape.n_tasks,
            PARTITION_STRESS * platform.total_speed,
            method="randfixedsum",
            u_max=PARTITION_STRESS * platform.fastest_speed,
            dr_dist="uniform",
            dr_min=0.5,
            dr_max=1.0,
        )
        body = {
            "taskset": taskset_to_dict(taskset),
            "platform": platform_dict,
            "test": PARTITION_TEST,
        }
        entries.append(
            Entry("/v1/partition", _encode(body), reference_partition(taskset, platform))
        )
    corpus = Corpus(
        workload=workload,
        seed=seed,
        shape=shape,
        cache_size=QUICK_CACHE_SIZE if quick else CACHE_SIZE,
        entries=entries,
        tests=list(range(shape.instances)),
        partitions=list(range(shape.instances, len(entries))),
    )
    corpus.singles = [post(e.path, e.body, (k,)) for k, e in enumerate(entries)]
    digest = hashlib.sha256(
        f"{workload}|{seed}|{shape}|{corpus.cache_size}".encode()
    )
    for entry in entries:
        digest.update(entry.body)
    corpus.fingerprint = digest.hexdigest()
    return corpus


def scan(corpus: Corpus, conn: int, conns: int):
    """Connection ``conn``'s cyclic walk over the corpus, staggered by
    ``W / conns`` so the union of all connections keeps every key's reuse
    distance at the working-set size (the LRU's worst case)."""
    w = len(corpus.tests)
    k = (conn * w) // conns
    while True:
        yield corpus.singles[corpus.tests[k % w]]
        k += 1


def interleaved_scan(corpus: Corpus, conns: int, count: int) -> list[Request]:
    """The order the server sees ``conns`` lockstep scans in."""
    walks = [scan(corpus, c, conns) for c in range(conns)]
    return [next(walks[k % conns]) for k in range(count)]


def _zipf_ranks(rng: np.random.Generator, w: int, count: int) -> np.ndarray:
    weights = 1.0 / np.arange(1.0, w + 1.0) ** ZIPF_S
    return rng.choice(w, size=count, p=weights / weights.sum())


def mixed_requests(corpus: Corpus, count: int) -> list[Request]:
    """serve-mixed's request stream: the 80/15/5 test/batch/partition mix
    with Zipf popularity; a pure function of the corpus seed."""
    rng = np.random.default_rng([corpus.seed, 2])
    kinds = rng.choice(len(MIX), size=count, p=[share for _, share in MIX])
    test_ranks = iter(_zipf_ranks(rng, len(corpus.tests), count * BATCH_SIZE))
    part_ranks = iter(_zipf_ranks(rng, len(corpus.partitions), count))
    out: list[Request] = []
    for kind in kinds:
        path = MIX[kind][0]
        if path == "/v1/test":
            out.append(corpus.singles[corpus.tests[next(test_ranks)]])
        elif path == "/v1/partition":
            out.append(corpus.singles[corpus.partitions[next(part_ranks)]])
        else:
            items = tuple(corpus.tests[next(test_ranks)] for _ in range(BATCH_SIZE))
            body = (
                b'{"instances": ['
                + b", ".join(corpus.entries[k].body for k in items)
                + b"]}"
            )
            out.append(post(path, body, items))
    return out


def arrivals(seed: int, rate: float, count: int) -> list[float]:
    """Poisson arrival offsets (seconds from the start of the loop)."""
    rng = np.random.default_rng([seed, 3])
    return np.cumsum(rng.exponential(1.0 / rate, size=count)).tolist()
