"""Online feasibility-query serving.

The batch CLI answers one instance per process; this package serves the
paper's Theorem I.1–I.4 verdicts (plus raw first-fit partitions) over
HTTP from a long-lived process with canonical-instance caching and
request-level metrics:

* :mod:`~repro.service.frontend` — the single-threaded HTTP front end
  (``repro serve``): digest-routed shards, one in-process at
  ``--workers 0`` (the default) or N worker processes at
  ``--workers N``, each owning a private verdict LRU, byte-identical
  responses for every worker count;
* :mod:`~repro.service.loop` — the front end's event loop: one
  ``selectors`` selector driving ``async def`` handlers, so no serving
  process loads asyncio or ``ssl``;
* :mod:`~repro.service.shard` / :mod:`~repro.service.protocol` — the
  shard engine (:class:`~repro.service.shard.ShardCore`) and the frame
  protocol between the front end and worker processes;
* :mod:`~repro.service.client` — the keep-alive ``HttpClient`` (the
  load generator's too) and ``ServiceClient``, the JSON API over it;
* :mod:`~repro.service.cache` / :mod:`~repro.service.metrics` /
  :mod:`~repro.service.validation` — the supporting pieces.

Endpoints: ``POST /v1/test``, ``POST /v1/partition``, ``POST /v1/batch``,
``GET /healthz``, ``GET /metrics`` (JSON or ``?format=prometheus``).
See ``docs/api.md`` ("Serving") for payload schemas.
"""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports
from .cache import CacheStats, LRUCache
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

if TYPE_CHECKING:
    from .client import HttpClient, HttpError, ServiceClient, ServiceError
    from .frontend import ShardedFrontend, serve_sharded

#: Names resolved on first access, so a shard worker importing
#: ``repro.service.shard`` loads neither the front end nor the HTTP
#: client stack.
_LAZY = {
    "HttpClient": "client",
    "HttpError": "client",
    "ServiceClient": "client",
    "ServiceError": "client",
    "ShardedFrontend": "frontend",
    "serve_sharded": "frontend",
}
__getattr__ = lazy_exports(__name__, _LAZY)

__all__ = [
    "CacheStats",
    "LRUCache",
    "HttpClient",
    "HttpError",
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
