"""Request-payload validation with field-level error messages.

A malformed payload must never surface as a traceback: every parse
function here either returns fully-typed domain objects or raises
:class:`ValidationError` carrying a list of ``(field, message)`` pairs
using JSON-path-ish field names (``taskset.tasks[3].wcet``), which the
HTTP layer renders as a structured 400 response.

Validation is *exhaustive*, not fail-fast: one request reports every
bad field at once, so a client fixes its payload in one round trip.
Task sets and platforms are decoded as the CLI and fuzz replays decode
them (:func:`~repro.io_.serialize.instance_from_dict`); this module adds
the query fields and the request-size ceilings.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from ..core.bounds import ADMISSION_TEST_NAMES
from ..core.model import Platform, TaskSet
from ..io_.serialize import (
    FieldError,
    ValidationError,
    _parse_platform,
    _parse_taskset,
    _positive_number,
)

__all__ = [
    "FieldError",
    "ValidationError",
    "TestQuery",
    "PartitionQuery",
    "parse_test_request",
    "parse_partition_request",
    "parse_batch_request",
    "MAX_TASKS",
    "MAX_MACHINES",
    "MAX_BATCH",
]

#: Request-size ceilings: a serving endpoint must bound the work one
#: payload can demand.  Generous relative to the paper's experiments
#: (n<=40, m<=8) while keeping worst-case request cost small.
MAX_TASKS = 10_000
MAX_MACHINES = 1_000
MAX_BATCH = 1_000

_SCHEDULERS = ("edf", "rms")
_ADVERSARIES = ("partitioned", "any")


@dataclass(frozen=True)
class TestQuery:
    """A validated ``/v1/test`` request (also one ``/v1/batch`` item)."""

    taskset: TaskSet
    platform: Platform
    scheduler: str = "edf"
    adversary: str = "partitioned"
    alpha: float | None = None


@dataclass(frozen=True)
class PartitionQuery:
    """A validated ``/v1/partition`` request."""

    taskset: TaskSet
    platform: Platform
    test: str = "edf"
    alpha: float = 1.0


def _require_object(payload: Any, what: str) -> dict[str, Any]:
    if not isinstance(payload, dict):
        raise ValidationError(
            [FieldError("", f"request body must be a JSON object ({what})")]
        )
    return payload


def _parse_test_fields(
    payload: dict[str, Any], errors: list[FieldError], prefix: str = ""
) -> TestQuery | None:
    taskset = _parse_taskset(
        payload.get("taskset"), f"{prefix}taskset", errors,
        require_implicit=True, ceiling=MAX_TASKS,
    )
    platform = _parse_platform(
        payload.get("platform"), f"{prefix}platform", errors, ceiling=MAX_MACHINES
    )
    scheduler = payload.get("scheduler", "edf")
    if scheduler not in _SCHEDULERS:
        errors.append(
            FieldError(f"{prefix}scheduler", f"must be one of {list(_SCHEDULERS)}")
        )
    adversary = payload.get("adversary", "partitioned")
    if adversary not in _ADVERSARIES:
        errors.append(
            FieldError(f"{prefix}adversary", f"must be one of {list(_ADVERSARIES)}")
        )
    alpha: float | None = None
    if payload.get("alpha") is not None:
        alpha = _positive_number(payload["alpha"], prefix, "alpha", errors)
        if alpha is None:
            return None
    if taskset is None or platform is None or errors:
        return None
    return TestQuery(
        taskset=taskset,
        platform=platform,
        scheduler=scheduler,
        adversary=adversary,
        alpha=alpha,
    )


def parse_test_request(payload: Any) -> TestQuery:
    """Validate a ``/v1/test`` body; raise :class:`ValidationError` listing
    every bad field."""
    payload = _require_object(payload, "a feasibility query")
    errors: list[FieldError] = []
    query = _parse_test_fields(payload, errors)
    if query is None:
        raise ValidationError(errors)
    return query


def parse_partition_request(payload: Any) -> PartitionQuery:
    """Validate a ``/v1/partition`` body."""
    payload = _require_object(payload, "a partition query")
    errors: list[FieldError] = []
    # Constrained deadlines are fine here: the dbf admission tests accept
    # them, so only the generic task checks apply.
    taskset = _parse_taskset(
        payload.get("taskset"), "taskset", errors, ceiling=MAX_TASKS
    )
    platform = _parse_platform(
        payload.get("platform"), "platform", errors, ceiling=MAX_MACHINES
    )
    test = payload.get("test", "edf")
    if test not in ADMISSION_TEST_NAMES:
        errors.append(
            FieldError("test", f"must be one of {list(ADMISSION_TEST_NAMES)}")
        )
    alpha = 1.0
    if payload.get("alpha") is not None:
        parsed = _positive_number(payload["alpha"], "", "alpha", errors)
        if parsed is not None:
            alpha = parsed
    if taskset is None or platform is None or errors:
        raise ValidationError(errors)
    return PartitionQuery(taskset=taskset, platform=platform, test=test, alpha=alpha)


def parse_batch_request(payload: Any) -> list[TestQuery]:
    """Validate a ``/v1/batch`` body: ``{"instances": [<test query>...]}``."""
    payload = _require_object(payload, "a batch of feasibility queries")
    instances = payload.get("instances")
    if not isinstance(instances, list) or not instances:
        raise ValidationError(
            [FieldError("instances", "must be a non-empty list of test queries")]
        )
    if len(instances) > MAX_BATCH:
        raise ValidationError(
            [FieldError("instances", f"at most {MAX_BATCH} instances per batch")]
        )
    errors: list[FieldError] = []
    queries: list[TestQuery] = []
    for k, item in enumerate(instances):
        prefix = f"instances[{k}]."
        if not isinstance(item, dict):
            errors.append(FieldError(f"instances[{k}]", "must be an object"))
            continue
        q = _parse_test_fields(item, errors, prefix=prefix)
        if q is not None:
            queries.append(q)
    if errors:
        raise ValidationError(errors)
    return queries
