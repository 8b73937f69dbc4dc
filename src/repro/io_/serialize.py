"""JSON (de)serialization for tasksets, platforms, and results.

Round-trippable plain-dict encodings so experiments can be archived and
instances shared/reproduced.  Floats are stored exactly (repr round-trip)
— a reloaded instance produces bit-identical test verdicts.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any, Mapping

from ..core.certificates import FailureCertificate
from ..core.model import Machine, Platform, Task, TaskSet
from ..core.partition import PartitionResult

__all__ = [
    "task_to_dict",
    "task_from_dict",
    "taskset_to_dict",
    "taskset_from_dict",
    "platform_to_dict",
    "platform_from_dict",
    "partition_result_to_dict",
    "partition_result_from_dict",
    "certificate_to_dict",
    "certificate_from_dict",
    "report_to_dict",
    "report_from_dict",
    "canonical_task_order",
    "canonical_instance",
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


def task_from_dict(data: dict[str, Any]) -> Task:
    """Rebuild a task from its plain-dict form."""
    deadline = data.get("deadline")
    return Task(
        wcet=float(data["wcet"]),
        period=float(data["period"]),
        name=str(data.get("name", "")),
        deadline=float(deadline) if deadline is not None else None,
    )


def taskset_to_dict(taskset: TaskSet) -> dict[str, Any]:
    """Plain-dict form of a task set."""
    return {"tasks": [task_to_dict(t) for t in taskset]}


def taskset_from_dict(data: dict[str, Any]) -> TaskSet:
    """Rebuild a task set from its plain-dict form."""
    return TaskSet(task_from_dict(d) for d in data["tasks"])


def platform_to_dict(platform: Platform) -> dict[str, Any]:
    """Plain-dict form of a platform."""
    return {
        "machines": [
            {"speed": m.speed, "name": m.name} for m in platform
        ]
    }


def platform_from_dict(data: dict[str, Any]) -> Platform:
    """Rebuild a platform from its plain-dict form."""
    return Platform(
        Machine(speed=float(d["speed"]), name=str(d.get("name", "")))
        for d in data["machines"]
    )


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


def canonical_task_order(taskset: TaskSet) -> list[int]:
    """Task indices in canonical order.

    Primary key: utilization descending — the order first-fit processes
    tasks in.  Ties (exactly equal utilization) are broken by period,
    wcet, then deadline, all ascending, so the order depends only on the
    tasks' numeric parameters, never on their submission order.
    """
    return sorted(
        range(len(taskset)),
        key=lambda i: (
            -taskset[i].utilization,
            taskset[i].period,
            taskset[i].wcet,
            taskset[i].deadline,
        ),
    )


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
    order = canonical_task_order(taskset)
    return {
        "tasks": [
            [taskset[i].wcet, taskset[i].period, taskset[i].deadline]
            for i in order
        ],
        "speeds": sorted(m.speed for m in platform),
    }


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
    byte string — no ``hash()`` involved).
    """
    payload = canonical_instance(taskset, platform)
    if query:
        payload["query"] = dict(query)
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


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
