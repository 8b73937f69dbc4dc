"""JSON (de)serialization for tasksets, platforms, and results.

Round-trippable plain-dict encodings so experiments can be archived and
instances shared/reproduced.  Floats are stored exactly (repr round-trip)
— a reloaded instance produces bit-identical test verdicts.

The instance decoders are the one boundary the service's request bodies,
the CLI's instance files and fuzz replays share: they check every field,
and report every bad one at once in a :class:`ValidationError`.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping, NamedTuple, Sequence, TypeVar

from .._hashing import sha256
from ..core.certificates import FailureCertificate
from ..core.model import Machine, Platform, Task, TaskSet, close
from ..core.partition import PartitionResult

__all__ = [
    "FieldError",
    "ValidationError",
    "task_to_dict",
    "task_from_dict",
    "taskset_to_dict",
    "taskset_from_dict",
    "platform_to_dict",
    "platform_from_dict",
    "instance_from_dict",
    "partition_result_to_dict",
    "partition_result_from_dict",
    "certificate_to_dict",
    "certificate_from_dict",
    "report_to_dict",
    "report_from_dict",
    "task_rows",
    "canonical_task_order",
    "canonical_instance",
    "canonical_digest",
    "instance_digest",
    "shard_for_digest",
    "save_json",
    "load_json",
]

#: Hex digits of the canonical digest used as the shard routing key.
#: 8 digits = 32 bits — astronomically more key space than any worker
#: count, while leaving the rest of the digest free to change without
#: moving an instance between shards.
SHARD_KEY_HEX_DIGITS = 8

_T = TypeVar("_T")


def task_to_dict(task: Task) -> dict[str, Any]:
    """Plain-dict form of a task (deadline only when constrained)."""
    out: dict[str, Any] = {
        "wcet": task.wcet,
        "period": task.period,
        "name": task.name,
    }
    if not task.is_implicit:
        out["deadline"] = task.deadline
    return out


def taskset_to_dict(taskset: TaskSet) -> dict[str, Any]:
    """Plain-dict form of a task set."""
    return {"tasks": [task_to_dict(t) for t in taskset]}


def platform_to_dict(platform: Platform) -> dict[str, Any]:
    """Plain-dict form of a platform."""
    return {
        "machines": [
            {"speed": m.speed, "name": m.name} for m in platform
        ]
    }


# -- Checked decoding ---------------------------------------------------------


class FieldError(NamedTuple):
    """One rejected field: where and why.

    A ``NamedTuple`` rather than a dataclass: the serving workers import
    this module before they fork, and building a dataclass compiles its
    methods at import, which raises every process's peak RSS."""

    field: str
    message: str

    def __str__(self) -> str:
        return f"{self.field}: {self.message}" if self.field else self.message

    def as_dict(self) -> dict[str, str]:
        return {"field": self.field, "message": self.message}


class ValidationError(ValueError):
    """A payload failed validation; carries every field-level error."""

    def __init__(self, errors: list[FieldError], message: str = "invalid request"):
        self.errors = errors
        self.message = message
        detail = "; ".join(map(str, errors))
        super().__init__(f"{message}: {detail}" if detail else message)

    def as_dict(self) -> dict[str, Any]:
        """The service's structured error body."""
        return {
            "error": {
                "message": self.message,
                "fields": [e.as_dict() for e in self.errors],
            }
        }


def _positive_number(
    value: Any, prefix: str, name: str, errors: list[FieldError]
) -> float | None:
    """``value`` as a positive, finite float, or None after naming field
    ``prefix + name`` (joined only on error: most values are good)."""
    # bool is an int subclass; reject it explicitly — `"wcet": true` is
    # a client bug, not a wcet of 1.0.
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        errors.append(FieldError(prefix + name, f"must be a number, got {value!r}"))
        return None
    try:
        x = float(value)
    except OverflowError:  # an int beyond the float range
        x = math.inf
    if not 0.0 < x < math.inf:  # also false for NaN
        errors.append(
            FieldError(prefix + name, f"must be positive and finite, got {x!r}")
        )
        return None
    return x


def _task(
    data: Any, field: str, errors: list[FieldError], require_implicit: bool = False
) -> Task | None:
    if not isinstance(data, dict):
        errors.append(FieldError(field, "must be an object"))
        return None
    wcet = _positive_number(data.get("wcet"), field, ".wcet", errors)
    period = _positive_number(data.get("period"), field, ".period", errors)
    deadline = data.get("deadline")
    if deadline is not None:
        deadline = _positive_number(deadline, field, ".deadline", errors)
        if deadline is None:
            return None
    if wcet is None or period is None:
        return None
    if require_implicit and deadline is not None:
        # tolerant compare: a deadline that equals the period only after
        # a float round-trip (e.g. serialized at lower precision) is
        # still an implicit-deadline submission
        if not close(deadline, period):
            errors.append(FieldError(
                f"{field}.deadline",
                "the theorem tests require implicit deadlines "
                "(omit 'deadline' or set it equal to 'period')",
            ))
            return None
        # snap to implicit so Task.is_implicit (an exact structural
        # predicate) holds downstream; otherwise a tolerantly-equal
        # deadline would pass here and then fail the theorem tests' own
        # implicit check mid-evaluation
        deadline = None
    return Task(wcet=wcet, period=period, deadline=deadline,
                name=str(data.get("name", "")))


def _machine(data: Any, field: str, errors: list[FieldError]) -> Machine | None:
    if not isinstance(data, dict):
        errors.append(FieldError(field, "must be an object"))
        return None
    speed = _positive_number(data.get("speed"), field, ".speed", errors)
    if speed is None:
        return None
    return Machine(speed=speed, name=str(data.get("name", "")))


def _items(
    data: Any, field: str, key: str, ceiling: int | None, errors: list[FieldError]
) -> list[Any] | None:
    """``data[key]`` if it is a non-empty list of at most ``ceiling``
    items, else None after naming what is wrong."""
    if not isinstance(data, dict):
        errors.append(FieldError(field, f"must be an object with a '{key}' list"))
        return None
    items = data.get(key)
    if not isinstance(items, list) or not items:
        errors.append(FieldError(f"{field}.{key}", "must be a non-empty list"))
        return None
    if ceiling is not None and len(items) > ceiling:
        errors.append(
            FieldError(f"{field}.{key}", f"at most {ceiling} {key} per instance")
        )
        return None
    return items


def _parse_taskset(
    data: Any,
    field: str,
    errors: list[FieldError],
    *,
    require_implicit: bool = False,
    ceiling: int | None = None,
) -> TaskSet | None:
    items = _items(data, field, "tasks", ceiling, errors)
    if items is None:
        return None
    tasks = []
    for i, td in enumerate(items):
        task = _task(td, f"{field}.tasks[{i}]", errors, require_implicit)
        if task is not None:
            tasks.append(task)
    return TaskSet(tasks) if len(tasks) == len(items) else None


def _parse_platform(
    data: Any, field: str, errors: list[FieldError], *, ceiling: int | None = None
) -> Platform | None:
    items = _items(data, field, "machines", ceiling, errors)
    if items is None:
        return None
    machines = []
    for j, md in enumerate(items):
        machine = _machine(md, f"{field}.machines[{j}]", errors)
        if machine is not None:
            machines.append(machine)
    return Platform(machines) if len(machines) == len(items) else None


def _checked(decode: Callable[..., _T | None], data: Any, field: str) -> _T:
    errors: list[FieldError] = []
    decoded = decode(data, field, errors)
    if decoded is None:
        raise ValidationError(errors)
    return decoded


def instance_from_dict(
    data: Any, *, require_implicit: bool = False
) -> tuple[TaskSet, Platform]:
    """Decode ``{"taskset": {"tasks": [...]}, "platform": {"machines":
    [...]}}``, checking every field.

    ``wcet``, ``period``, an optional ``deadline`` and ``speed`` must be
    positive, finite numbers (``bool`` is not one), and both lists must
    be non-empty lists of objects.  With ``require_implicit`` a deadline
    must equal its period up to :func:`~repro.core.model.close` and is
    then dropped, so the task is exactly implicit.  Raises
    :class:`ValidationError` with one :class:`FieldError` per bad field
    (``taskset.tasks[3].wcet``, ...).
    """
    if not isinstance(data, dict):
        raise ValidationError(
            [FieldError("", "must be an object with 'taskset' and 'platform'")]
        )
    errors: list[FieldError] = []
    taskset = _parse_taskset(
        data.get("taskset"), "taskset", errors, require_implicit=require_implicit
    )
    platform = _parse_platform(data.get("platform"), "platform", errors)
    if taskset is None or platform is None:
        raise ValidationError(errors)
    return taskset, platform


def task_from_dict(data: Any) -> Task:
    """Decode one task as :func:`instance_from_dict` does."""
    return _checked(_task, data, "task")


def taskset_from_dict(data: Any) -> TaskSet:
    """Decode ``{"tasks": [...]}`` as :func:`instance_from_dict` does."""
    return _checked(_parse_taskset, data, "taskset")


def platform_from_dict(data: Any) -> Platform:
    """Decode ``{"machines": [...]}`` as :func:`instance_from_dict` does."""
    return _checked(_parse_platform, data, "platform")


def partition_result_to_dict(result: PartitionResult) -> dict[str, Any]:
    """Plain-dict form of a partition verdict."""
    return {
        "success": result.success,
        "assignment": list(result.assignment),
        "machine_tasks": [list(ts) for ts in result.machine_tasks],
        "loads": list(result.loads),
        "failed_task": result.failed_task,
        "alpha": result.alpha,
        "test_name": result.test_name,
        "order": list(result.order),
    }


def partition_result_from_dict(data: dict[str, Any]) -> PartitionResult:
    """Rebuild a partition verdict from its plain-dict form.

    ``machine_tasks`` is reconstructed from ``assignment`` + ``order``
    when absent (archives written before it was exported).
    """
    assignment = tuple(
        int(a) if a is not None else None for a in data["assignment"]
    )
    order = tuple(int(i) for i in data["order"])
    loads = tuple(float(x) for x in data["loads"])
    if "machine_tasks" in data:
        machine_tasks = tuple(
            tuple(int(i) for i in ts) for ts in data["machine_tasks"]
        )
    else:
        per_machine: list[list[int]] = [[] for _ in loads]
        for i in order:
            if assignment[i] is not None:
                per_machine[assignment[i]].append(i)
        machine_tasks = tuple(tuple(ts) for ts in per_machine)
    failed = data["failed_task"]
    return PartitionResult(
        success=bool(data["success"]),
        assignment=assignment,
        machine_tasks=machine_tasks,
        loads=loads,
        failed_task=int(failed) if failed is not None else None,
        alpha=float(data["alpha"]),
        test_name=str(data["test_name"]),
        order=order,
    )


def certificate_to_dict(cert: FailureCertificate) -> dict[str, Any]:
    """Plain-dict form of an infeasibility certificate.

    ``certifies`` is included for consumers (it is the point of the
    certificate) but recomputed, not trusted, on reload.
    """
    return {
        "w_n": cert.w_n,
        "prefix_utilization": cert.prefix_utilization,
        "eligible_machines": list(cert.eligible_machines),
        "eligible_capacity": cert.eligible_capacity,
        "alpha": cert.alpha,
        "test_name": cert.test_name,
        "certifies": cert.certifies,
    }


def certificate_from_dict(data: dict[str, Any]) -> FailureCertificate:
    """Rebuild an infeasibility certificate from its plain-dict form."""
    return FailureCertificate(
        w_n=float(data["w_n"]),
        prefix_utilization=float(data["prefix_utilization"]),
        eligible_machines=tuple(int(j) for j in data["eligible_machines"]),
        eligible_capacity=float(data["eligible_capacity"]),
        alpha=float(data["alpha"]),
        test_name=str(data["test_name"]),
    )


def report_to_dict(
    report: "FeasibilityReport", *, backend: str | None = None
) -> dict[str, Any]:
    """Plain-dict form of a :class:`~repro.core.feasibility.FeasibilityReport`.

    This is *the* JSON schema for feasibility verdicts — the CLI ``test
    --json`` output and every ``repro.service`` response use it, so the
    two never drift apart.  ``guarantee`` is derived text, ignored by
    :func:`report_from_dict`.

    ``backend`` records which evaluation backend produced the report
    (``scalar`` / ``numpy``); it is provenance only — the
    key is omitted when ``None`` and ignored by :func:`report_from_dict`,
    so reports from different backends remain dict-identical apart from
    it (the ``backend-equivalence`` oracle check relies on that).
    """
    out: dict[str, Any] = {
        "accepted": report.accepted,
        "scheduler": report.scheduler,
        "adversary": report.adversary,
        "alpha": report.alpha,
        "theorem": report.theorem,
        "guarantee": report.guarantee,
        "partition": partition_result_to_dict(report.partition),
        "certificate": (
            certificate_to_dict(report.certificate)
            if report.certificate is not None
            else None
        ),
    }
    if backend is not None:
        out["backend"] = backend
    return out


def report_from_dict(data: dict[str, Any]) -> "FeasibilityReport":
    """Rebuild a feasibility report from its plain-dict form."""
    from ..core.feasibility import FeasibilityReport

    cert = data.get("certificate")
    return FeasibilityReport(
        accepted=bool(data["accepted"]),
        scheduler=data["scheduler"],
        adversary=data["adversary"],
        alpha=float(data["alpha"]),
        theorem=str(data["theorem"]),
        partition=partition_result_from_dict(data["partition"]),
        certificate=certificate_from_dict(cert) if cert is not None else None,
    )


# -- Canonical instances and digests ----------------------------------------
#
# Two submissions that differ only in task order, machine order, or names
# describe the same feasibility instance: the §III first-fit algorithm
# sorts tasks by utilization and the Platform constructor sorts machines
# by speed, so the verdict cannot depend on either.  The canonical form
# fixes one representative per equivalence class; its digest keys the
# service's verdict cache.


#: One task as the canonical order and digest see it: (wcet, period, deadline).
Row = tuple[float, float, float]


def task_rows(taskset: TaskSet) -> list[Row]:
    """``(wcet, period, deadline)`` per task, in task-set order."""
    return [(t.wcet, t.period, t.deadline) for t in taskset]


def _ranked(rows: Sequence[Row]) -> list[tuple[float, float, float, float, int]]:
    """``rows`` sorted into canonical order, as
    ``(-utilization, period, wcet, deadline, index)``.

    Primary key: utilization descending — the order first-fit processes
    tasks in.  Ties (exactly equal utilization) are broken by period,
    wcet, then deadline, all ascending, and a full tie by submission
    index, so the order depends only on the tasks' numeric parameters,
    never on their submission order.
    """
    return sorted([(-(w / p), p, w, d, i) for i, (w, p, d) in enumerate(rows)])


def _canonical_payload(
    ranked: list[tuple[float, float, float, float, int]], speeds: Iterable[float]
) -> dict[str, Any]:
    return {
        "tasks": [[w, p, d] for _, p, w, d, _ in ranked],
        "speeds": sorted(speeds),
    }


def canonical_task_order(taskset: TaskSet) -> list[int]:
    """Task indices in canonical order (see :func:`canonical_digest`)."""
    return [r[-1] for r in _ranked(task_rows(taskset))]


def canonical_instance(
    taskset: TaskSet, platform: Platform
) -> dict[str, Any]:
    """Order-invariant, name-free plain form of (taskset, platform).

    Tasks appear as ``[wcet, period, deadline]`` triples in canonical
    order; machines as their sorted speeds.  Floats are kept exact
    (``json.dumps`` emits the shortest round-trip ``repr``), so two
    instances canonicalize identically iff their parameters are
    bit-identical.
    """
    return _canonical_payload(_ranked(task_rows(taskset)), platform.speeds)


def canonical_digest(
    rows: Sequence[Row],
    speeds: Iterable[float],
    query: Mapping[str, Any] | None = None,
) -> tuple[list[int], str]:
    """Canonical task order and digest of an instance given as numbers.

    ``rows`` holds ``(wcet, period, deadline)`` per task in submission
    order, ``speeds`` the machine speeds in any order.  One sort yields
    both the order (indices into ``rows``, as :func:`canonical_task_order`)
    and the SHA-256 hex digest of the canonical JSON
    (:func:`canonical_instance`, plus ``query`` under ``"query"``).  The
    numbers are hashed as given: an ``int`` period serializes as ``10``,
    a ``float`` one as ``10.0``.
    """
    ranked = _ranked(rows)
    payload = _canonical_payload(ranked, speeds)
    if query:
        payload["query"] = dict(query)
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return [r[-1] for r in ranked], sha256(blob.encode("utf-8")).hexdigest()


def instance_digest(
    taskset: TaskSet,
    platform: Platform,
    *,
    query: Mapping[str, Any] | None = None,
) -> str:
    """SHA-256 hex digest of the canonical instance (plus query params).

    Invariant under task/machine permutation and renaming; sensitive to
    any change of wcet, period, deadline, or speed; stable across
    interpreter runs and platforms (pure function of the canonical JSON
    byte string — no ``hash()`` involved).  The hash is CPython's
    built-in SHA-256, so no process that digests maps OpenSSL.
    """
    return canonical_digest(task_rows(taskset), platform.speeds, query)[1]


def shard_for_digest(digest: str, shards: int) -> int:
    """Owning shard for a canonical instance digest (``0 <= k < shards``).

    The key is the leading :data:`SHARD_KEY_HEX_DIGITS` hex digits of
    the digest reduced modulo the shard count, so (a) two requests for
    the same canonical instance — under any task/machine permutation or
    renaming — always land on the same shard, which is what lets each
    shard own a private verdict cache with no cross-process
    coordination, and (b) SHA-256 uniformity spreads distinct instances
    evenly across shards for every shard count.
    """
    if shards < 1:
        raise ValueError(f"shards must be positive, got {shards}")
    return int(digest[:SHARD_KEY_HEX_DIGITS], 16) % shards


def save_json(path: str | Path, payload: dict[str, Any]) -> None:
    """Write a payload dict as pretty-printed JSON."""
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True))


def load_json(path: str | Path) -> dict[str, Any]:
    """Read a JSON payload dict."""
    return json.loads(Path(path).read_text())
