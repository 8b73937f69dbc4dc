"""Request-payload validation with field-level error messages.

A malformed payload must never surface as a traceback: every parse
function here either returns fully-typed domain objects or raises
:class:`ValidationError` carrying a list of ``(field, message)`` pairs
using JSON-path-ish field names (``taskset.tasks[3].wcet``), which the
HTTP layer renders as a structured 400 response.

Validation is *exhaustive*, not fail-fast: one request reports every
bad field at once, so a client fixes its payload in one round trip.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

from ..core.bounds import ADMISSION_TEST_NAMES
from ..core.model import Machine, Platform, Task, TaskSet, close

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
class FieldError:
    """One rejected field: where and why."""

    field: str
    message: str

    def as_dict(self) -> dict[str, str]:
        return {"field": self.field, "message": self.message}


class ValidationError(Exception):
    """A payload failed validation; carries every field-level error."""

    def __init__(self, errors: list[FieldError], message: str = "invalid request"):
        self.errors = errors
        self.message = message
        detail = "; ".join(f"{e.field}: {e.message}" for e in errors)
        super().__init__(f"{message}: {detail}" if detail else message)

    def as_dict(self) -> dict[str, Any]:
        """The service's structured error body."""
        return {
            "error": {
                "message": self.message,
                "fields": [e.as_dict() for e in self.errors],
            }
        }


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


def _positive_number(
    value: Any, field: str, errors: list[FieldError]
) -> float | None:
    # bool is an int subclass; reject it explicitly — `"wcet": true` is
    # a client bug, not a wcet of 1.0.
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        errors.append(FieldError(field, f"must be a number, got {value!r}"))
        return None
    x = float(value)
    if not (x > 0 and math.isfinite(x)):
        errors.append(FieldError(field, f"must be positive and finite, got {x!r}"))
        return None
    return x


def _parse_taskset(
    data: Any, field: str, errors: list[FieldError], *, require_implicit: bool
) -> TaskSet | None:
    if not isinstance(data, dict):
        errors.append(FieldError(field, "must be an object with a 'tasks' list"))
        return None
    tasks_data = data.get("tasks")
    if not isinstance(tasks_data, list) or not tasks_data:
        errors.append(FieldError(f"{field}.tasks", "must be a non-empty list"))
        return None
    if len(tasks_data) > MAX_TASKS:
        errors.append(
            FieldError(f"{field}.tasks", f"at most {MAX_TASKS} tasks per instance")
        )
        return None
    tasks: list[Task] = []
    ok = True
    for i, td in enumerate(tasks_data):
        here = f"{field}.tasks[{i}]"
        if not isinstance(td, dict):
            errors.append(FieldError(here, "must be an object"))
            ok = False
            continue
        wcet = _positive_number(td.get("wcet"), f"{here}.wcet", errors)
        period = _positive_number(td.get("period"), f"{here}.period", errors)
        deadline: float | None = None
        if td.get("deadline") is not None:
            deadline = _positive_number(td["deadline"], f"{here}.deadline", errors)
            if deadline is None:
                ok = False
        if wcet is None or period is None:
            ok = False
            continue
        if require_implicit and deadline is not None:
            # tolerant compare: a deadline that equals the period only
            # after a float round-trip (e.g. serialized at lower
            # precision) is still an implicit-deadline submission
            if not close(deadline, period):
                errors.append(
                    FieldError(
                        f"{here}.deadline",
                        "the theorem tests require implicit deadlines "
                        "(omit 'deadline' or set it equal to 'period')",
                    )
                )
                ok = False
                continue
            # snap to implicit so Task.is_implicit (an exact structural
            # predicate) holds downstream — otherwise a tolerantly-equal
            # deadline would pass validation here and then blow up in
            # the theorem tests' own implicit check mid-evaluation
            deadline = None
        tasks.append(Task(wcet=wcet, period=period, deadline=deadline,
                          name=str(td.get("name", ""))))
    return TaskSet(tasks) if ok else None


def _parse_platform(
    data: Any, field: str, errors: list[FieldError]
) -> Platform | None:
    if not isinstance(data, dict):
        errors.append(FieldError(field, "must be an object with a 'machines' list"))
        return None
    machines_data = data.get("machines")
    if not isinstance(machines_data, list) or not machines_data:
        errors.append(FieldError(f"{field}.machines", "must be a non-empty list"))
        return None
    if len(machines_data) > MAX_MACHINES:
        errors.append(
            FieldError(
                f"{field}.machines", f"at most {MAX_MACHINES} machines per instance"
            )
        )
        return None
    machines: list[Machine] = []
    ok = True
    for j, md in enumerate(machines_data):
        here = f"{field}.machines[{j}]"
        if not isinstance(md, dict):
            errors.append(FieldError(here, "must be an object"))
            ok = False
            continue
        speed = _positive_number(md.get("speed"), f"{here}.speed", errors)
        if speed is None:
            ok = False
            continue
        machines.append(Machine(speed=speed, name=str(md.get("name", ""))))
    return Platform(machines) if ok else None


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
        payload.get("taskset"), f"{prefix}taskset", errors, require_implicit=True
    )
    platform = _parse_platform(payload.get("platform"), f"{prefix}platform", errors)
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
        alpha = _positive_number(payload["alpha"], f"{prefix}alpha", errors)
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
        payload.get("taskset"), "taskset", errors, require_implicit=False
    )
    platform = _parse_platform(payload.get("platform"), "platform", errors)
    test = payload.get("test", "edf")
    if test not in ADMISSION_TEST_NAMES:
        errors.append(
            FieldError("test", f"must be one of {list(ADMISSION_TEST_NAMES)}")
        )
    alpha = 1.0
    if payload.get("alpha") is not None:
        parsed = _positive_number(payload["alpha"], "alpha", errors)
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
