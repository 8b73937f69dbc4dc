"""Online feasibility-query serving.

The batch CLI answers one instance per process; this package serves the
paper's Theorem I.1–I.4 verdicts (plus raw first-fit partitions) over
HTTP from a long-lived process with canonical-instance caching and
request-level metrics:

* :mod:`~repro.service.frontend` — the asyncio HTTP front end
  (``repro serve``): digest-routed shards, one in-process at
  ``--workers 0`` (the default) or N worker processes at
  ``--workers N``, each owning a private verdict LRU, byte-identical
  responses for every worker count;
* :mod:`~repro.service.shard` / :mod:`~repro.service.protocol` — the
  shard engine (:class:`~repro.service.shard.ShardCore`) and the frame
  protocol between the front end and worker processes;
* :class:`~repro.service.client.ServiceClient` — stdlib client wrapper;
* :mod:`~repro.service.cache` / :mod:`~repro.service.metrics` /
  :mod:`~repro.service.validation` — the supporting pieces.

Endpoints: ``POST /v1/test``, ``POST /v1/partition``, ``POST /v1/batch``,
``GET /healthz``, ``GET /metrics`` (JSON or ``?format=prometheus``).
See ``docs/api.md`` ("Serving") for payload schemas.
"""

from .cache import CacheStats, LRUCache
from .client import ServiceClient, ServiceError
from .frontend import ShardedFrontend, serve_sharded
from .metrics import MetricsRegistry
from .shard import ShardCore
from .validation import (
    FieldError,
    PartitionQuery,
    TestQuery,
    ValidationError,
    parse_batch_request,
    parse_partition_request,
    parse_test_request,
)

__all__ = [
    "CacheStats",
    "LRUCache",
    "ServiceClient",
    "ServiceError",
    "MetricsRegistry",
    "ShardCore",
    "ShardedFrontend",
    "serve_sharded",
    "FieldError",
    "PartitionQuery",
    "TestQuery",
    "ValidationError",
    "parse_batch_request",
    "parse_partition_request",
    "parse_test_request",
]
