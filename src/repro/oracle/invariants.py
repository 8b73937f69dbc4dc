"""The oracle invariant lattice: dominance relations between the repo's
independent answers, checked mechanically on concrete instances.

The repo answers every feasibility question at least three ways — the
paper's first-fit testers, the exact/LP adversaries, and the serving
layer.  Each relation below is backed by a theorem, so *any* observed
violation is a bug in one of the implementations (see
``docs/theory.md#9-oracle-invariant-lattice`` for the full table):

* sufficient ⇒ exact (Theorem II.3 / hyperbolic bound soundness),
* Liu–Layland ⇒ hyperbolic (Bini–Buttazzo dominance),
* exact-RMS ⇒ EDF (Theorem II.2: EDF utilization test is exact),
* any partitioned verdict ⇒ LP feasible (the §II LP relaxes every
  schedule, Lemma II.1's setting),
* Theorems I.1–I.4 speedup bounds (accept side) and the Theorem I.1/I.2
  rejection certificates,
* incremental :class:`~repro.core.bounds.MachineState` ≡ one-shot
  ``feasible()`` (the O(nm) argument of §III needs them interchangeable),
* :func:`~repro.core.partition.verify_partition` confirms every success,
* serialization / digest / service round-trips are identity.

Tolerance discipline
--------------------
Implications across *different* tests are checked with a robustness
margin: the hypothesis must hold with ``margin`` less speed (or the
conclusion is granted ``margin`` more).  Every feasibility comparison in
the library is tolerant to :data:`~repro.core.model.EPS` relative noise,
so two mathematically-equivalent verdicts computed through different
arithmetic may legitimately disagree on instances engineered *inside*
the tolerance window — exactly the instances the boundary profiles
generate.  A real bug produces a macroscopic gap and clears the margin
easily.  Same-path comparisons (incremental vs one-shot, partition vs
``verify_partition``) are checked **exactly**: after the compensated-
accumulation fix they run arithmetic that cannot drift a verdict.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

from ..baselines.exact import (
    exact_partitioned_edf_feasible,
    exact_partitioned_rms_feasible,
)
from ..core.bounds import ADMISSION_TESTS, AdmissionTest
from ..core.constants import (
    ALPHA_EDF_LP,
    ALPHA_EDF_PARTITIONED,
    ALPHA_RMS_LP,
    ALPHA_RMS_PARTITIONED,
)
from ..core.feasibility import feasibility_test
from ..core.lp import lp_feasible
from ..core.model import Platform, Task, TaskSet
from ..core.partition import first_fit_partition, verify_partition
from ..io_.serialize import (
    instance_digest,
    platform_from_dict,
    platform_to_dict,
    report_from_dict,
    report_to_dict,
    taskset_from_dict,
    taskset_to_dict,
)

__all__ = [
    "Violation",
    "OracleConfig",
    "CHECKS",
    "PER_TEST_CHECKS",
    "check_backend_equivalence",
    "check_instance",
]


@dataclass(frozen=True)
class Violation:
    """One broken invariant on one instance (picklable, JSON-able)."""

    invariant: str
    detail: str

    def as_dict(self) -> dict[str, str]:
        return {"invariant": self.invariant, "detail": self.detail}


@dataclass(frozen=True)
class OracleConfig:
    """What to audit and how hard.

    ``overrides`` substitutes admission tests by name — the self-test
    injects a deliberately broken Liu–Layland test this way and asserts
    the lattice catches it.
    """

    #: admission tests under audit (names in the registry / overrides)
    tests: tuple[str, ...] = ("edf", "rms-ll", "rms-hyperbolic", "rms-rta")
    #: replacement tests keyed by name (for fault injection)
    overrides: Mapping[str, AdmissionTest] | None = None
    #: invariant names to run (default: all of :data:`CHECKS`)
    checks: tuple[str, ...] = ()
    #: kernel backends the ``backend-equivalence`` invariant audits
    #: (empty: every available non-scalar backend)
    backends: tuple[str, ...] = ()
    #: robustness margin for cross-test implications (see module docs)
    margin: float = 1e-6
    #: node budgets for the exact branch-and-bound adversaries
    edf_node_limit: int = 500_000
    rms_node_limit: int = 50_000

    def test(self, name: str) -> AdmissionTest:
        if self.overrides and name in self.overrides:
            return self.overrides[name]
        return ADMISSION_TESTS[name]

    def active_checks(self) -> tuple[str, ...]:
        return self.checks if self.checks else tuple(CHECKS)


_THEOREM_ALPHAS: dict[str, float] = {
    "edf": ALPHA_EDF_PARTITIONED,
    "rms-ll": ALPHA_RMS_PARTITIONED,
}


def _accepts(
    test: AdmissionTest, taskset: Sequence, speed: float, *, margin: float = 0.0
) -> bool:
    """One-shot acceptance; positive ``margin`` demands it robustly
    (still accepted on a machine ``margin`` slower)."""
    return test.feasible(list(taskset), speed * (1.0 - margin))


# ---------------------------------------------------------------------------
# Invariant checks.  Each: (taskset, platform, config) -> [Violation].
# ---------------------------------------------------------------------------


def check_single_machine_lattice(
    taskset: TaskSet, platform: Platform, config: OracleConfig
) -> list[Violation]:
    """Per-speed dominance chain: LL ⇒ hyperbolic ⇒ exact RTA ⇒ EDF."""
    if not taskset.is_implicit:
        # The utilization-based links are implicit-deadline theorems
        # (hyperbolic ⇒ RTA is false for d < p); the constrained chain
        # lives in check_constrained_lattice.
        return []
    out: list[Violation] = []
    chain = [
        ("rms-ll", "rms-hyperbolic", "Bini–Buttazzo dominance"),
        ("rms-hyperbolic", "rms-rta", "sufficient test vs exact RTA"),
        ("rms-rta", "edf", "RMS-feasible implies EDF-feasible (Thm II.2)"),
    ]
    tasks = list(taskset)
    for speed in sorted(set(platform.speeds)):
        for weaker, stronger, why in chain:
            if weaker not in config.tests or stronger not in config.tests:
                continue
            if _accepts(
                config.test(weaker), tasks, speed, margin=config.margin
            ) and not _accepts(config.test(stronger), tasks, speed):
                out.append(
                    Violation(
                        "single-machine-lattice",
                        f"{weaker} accepts but {stronger} rejects at "
                        f"speed {speed!r} ({why})",
                    )
                )
    return out


def check_incremental_vs_oneshot(
    taskset: TaskSet, platform: Platform, config: OracleConfig
) -> list[Violation]:
    """`MachineState.admits` must equal the one-shot set test, exactly.

    Replays a first-fit-style feed: tasks in utilization-descending order
    against one state per distinct speed; every probe is mirrored by a
    one-shot ``feasible()`` call on the would-be set.
    """
    out: list[Violation] = []
    order = taskset.order_by_utilization()
    for name in config.tests:
        test = config.test(name)
        for speed in sorted(set(platform.speeds)):
            state = test.open(speed)
            accepted: list = []
            for i in order:
                task = taskset[i]
                incremental = state.admits(task)
                oneshot = test.feasible(accepted + [task], speed)
                if incremental != oneshot:
                    out.append(
                        Violation(
                            "incremental-vs-oneshot",
                            f"{name} at speed {speed!r}: admits(task {i}) ="
                            f" {incremental} but one-shot = {oneshot} with "
                            f"{len(accepted)} tasks already placed",
                        )
                    )
                    break
                if incremental:
                    state.add(task)
                    accepted.append(task)
            load = math.fsum(t.utilization for t in accepted)
            if abs(state.load - load) > 1e-9 * max(1.0, load):
                out.append(
                    Violation(
                        "incremental-vs-oneshot",
                        f"{name} at speed {speed!r}: state.load {state.load!r}"
                        f" drifted from fsum {load!r}",
                    )
                )
    return out


def check_verify_partition(
    taskset: TaskSet, platform: Platform, config: OracleConfig
) -> list[Violation]:
    """Every successful first-fit partition re-verifies one-shot, and the
    reported per-machine loads match an independent exact summation."""
    out: list[Violation] = []
    for name in config.tests:
        test = config.test(name)
        alphas = (1.0, _THEOREM_ALPHAS.get(name))
        for alpha in alphas:
            if alpha is None:
                continue
            result = first_fit_partition(taskset, platform, test, alpha=alpha)
            if not result.success:
                continue
            if not verify_partition(result, taskset, platform, test):
                out.append(
                    Violation(
                        "verify-partition",
                        f"first-fit({name}, alpha={alpha!r}) succeeded but "
                        f"verify_partition rejects the assignment",
                    )
                )
            for j, idxs in enumerate(result.machine_tasks):
                expect = math.fsum(taskset[i].utilization for i in idxs)
                if abs(result.loads[j] - expect) > 1e-9 * max(1.0, expect):
                    out.append(
                        Violation(
                            "verify-partition",
                            f"first-fit({name}, alpha={alpha!r}) machine {j} "
                            f"load {result.loads[j]!r} != fsum {expect!r}",
                        )
                    )
    return out


def check_lp_dominance(
    taskset: TaskSet, platform: Platform, config: OracleConfig
) -> list[Violation]:
    """The §II LP relaxes every schedule: any partitioned success at
    speed 1 — first-fit or exact branch-and-bound — implies LP feasible;
    exact-RMS partitioned feasible implies exact-EDF partitioned feasible."""
    out: list[Violation] = []
    lp_ok = lp_feasible(taskset, platform)
    for name in config.tests:
        result = first_fit_partition(
            taskset, platform, config.test(name), alpha=1.0 - config.margin
        )
        if result.success and not lp_ok:
            out.append(
                Violation(
                    "lp-dominance",
                    f"first-fit({name}) partitions at speed 1 but the LP "
                    f"is infeasible",
                )
            )
    exact_edf = exact_partitioned_edf_feasible(
        taskset, platform, node_limit=config.edf_node_limit
    )
    if exact_edf is True and not lp_ok:
        out.append(
            Violation(
                "lp-dominance",
                "exact partitioned-EDF feasible but the LP is infeasible",
            )
        )
    exact_rms = exact_partitioned_rms_feasible(
        taskset, platform, node_limit=config.rms_node_limit
    )
    if exact_rms is True and exact_edf is False:
        out.append(
            Violation(
                "lp-dominance",
                "exact partitioned-RMS feasible but exact partitioned-EDF "
                "infeasible (RMS-feasible sets satisfy EDF capacity)",
            )
        )
    return out


def check_theorem_speedups(
    taskset: TaskSet, platform: Platform, config: OracleConfig
) -> list[Violation]:
    """Theorems I.1–I.4, accept side: an adversary-feasible instance must
    be accepted by first-fit at the theorem's speed augmentation."""
    out: list[Violation] = []
    grant = 1.0 + config.margin

    def ff(name: str, alpha: float) -> bool:
        return first_fit_partition(
            taskset, platform, config.test(name), alpha=alpha
        ).success

    exact_edf = exact_partitioned_edf_feasible(
        taskset, platform, node_limit=config.edf_node_limit
    )
    if "edf" in config.tests and exact_edf is True:
        if not ff("edf", ALPHA_EDF_PARTITIONED * grant):
            out.append(
                Violation(
                    "theorem-speedup",
                    f"Theorem I.1: partitioned-EDF feasible at speed 1 but "
                    f"first-fit EDF rejects at alpha={ALPHA_EDF_PARTITIONED}",
                )
            )
    if "rms-ll" in config.tests:
        exact_rms = exact_partitioned_rms_feasible(
            taskset, platform, node_limit=config.rms_node_limit
        )
        if exact_rms is True and not ff("rms-ll", ALPHA_RMS_PARTITIONED * grant):
            out.append(
                Violation(
                    "theorem-speedup",
                    f"Theorem I.2: partitioned-RMS feasible at speed 1 but "
                    f"first-fit RMS-LL rejects at "
                    f"alpha={ALPHA_RMS_PARTITIONED:.6f}",
                )
            )
    if lp_feasible(taskset, platform):
        if "edf" in config.tests and not ff("edf", ALPHA_EDF_LP * grant):
            out.append(
                Violation(
                    "theorem-speedup",
                    f"Theorem I.3: LP feasible but first-fit EDF rejects at "
                    f"alpha={ALPHA_EDF_LP}",
                )
            )
        if "rms-ll" in config.tests and not ff("rms-ll", ALPHA_RMS_LP * grant):
            out.append(
                Violation(
                    "theorem-speedup",
                    f"Theorem I.4: LP feasible but first-fit RMS-LL rejects "
                    f"at alpha={ALPHA_RMS_LP}",
                )
            )
    return out


def check_certificates(
    taskset: TaskSet, platform: Platform, config: OracleConfig
) -> list[Violation]:
    """Theorem I.1/I.2 rejections must carry a certificate whose
    arithmetic holds up, and must never contradict the exact adversary."""
    if config.overrides:
        # feasibility_test always uses the registry tests; auditing it
        # against injected fakes would report spurious violations.
        return []
    if not taskset.is_implicit:
        # feasibility_test refuses constrained-deadline input by design;
        # the constrained family has no rejection certificates.
        return []
    out: list[Violation] = []
    for scheduler, exact, limit in (
        ("edf", exact_partitioned_edf_feasible, config.edf_node_limit),
        ("rms", exact_partitioned_rms_feasible, config.rms_node_limit),
    ):
        report = feasibility_test(taskset, platform, scheduler, "partitioned")
        if report.accepted:
            continue
        cert = report.certificate
        if cert is None:
            out.append(
                Violation(
                    "certificates",
                    f"{scheduler} rejection at theorem alpha carries no "
                    f"certificate",
                )
            )
            continue
        if cert.prefix_utilization < cert.eligible_capacity * (
            1.0 - config.margin
        ):
            out.append(
                Violation(
                    "certificates",
                    f"{scheduler} rejection certificate does not certify: "
                    f"prefix {cert.prefix_utilization!r} vs eligible "
                    f"capacity {cert.eligible_capacity!r}",
                )
            )
        # Robustly-certifying only: within the tolerance window around
        # prefix == capacity the certificate's strict EPS test and the
        # exact adversary's tolerant admission legitimately overlap.
        robustly_certifies = cert.prefix_utilization > cert.eligible_capacity * (
            1.0 + config.margin
        )
        if robustly_certifies and exact(taskset, platform, node_limit=limit) is True:
            out.append(
                Violation(
                    "certificates",
                    f"{scheduler} certificate claims partitioned "
                    f"infeasibility but the exact adversary found a "
                    f"partition",
                )
            )
    return out


def _report_roundtrip_identity(report) -> bool:
    encoded = report_to_dict(report)
    rewired = json.loads(json.dumps(encoded))
    return report_to_dict(report_from_dict(rewired)) == encoded


def check_roundtrip(
    taskset: TaskSet, platform: Platform, config: OracleConfig
) -> list[Violation]:
    """Serialize/digest identity: dict and JSON round-trips reproduce the
    instance bit-for-bit; the digest is permutation/name-invariant."""
    out: list[Violation] = []
    ts2 = taskset_from_dict(json.loads(json.dumps(taskset_to_dict(taskset))))
    if ts2 != taskset:
        out.append(Violation("roundtrip", "taskset JSON round-trip differs"))
    pf2 = platform_from_dict(json.loads(json.dumps(platform_to_dict(platform))))
    if pf2 != platform:
        out.append(Violation("roundtrip", "platform JSON round-trip differs"))
    digest = instance_digest(taskset, platform)
    if instance_digest(ts2, pf2) != digest:
        out.append(Violation("roundtrip", "digest changed across round-trip"))
    # permutation + renaming invariance, derived deterministically from
    # the instance itself (no RNG needed)
    renamed = TaskSet(
        Task(
            wcet=t.wcet,
            period=t.period,
            name=f"renamed{i}",
            deadline=t.deadline,
        )
        for i, t in enumerate(reversed(taskset.tasks))
    )
    shuffled_pf = Platform(list(platform)[::-1])
    if instance_digest(renamed, shuffled_pf) != digest:
        out.append(
            Violation(
                "roundtrip",
                "digest not invariant under task/machine permutation and "
                "renaming",
            )
        )
    # ... but *not* blind to the deadline axis: nudging one constrained
    # task's deadline (derived deterministically, no RNG) must change it.
    for i, t in enumerate(taskset):
        if t.deadline < t.period:
            bumped = 0.5 * (t.deadline + t.period)
            if bumped != t.deadline and bumped <= t.period:
                tasks = list(taskset.tasks)
                tasks[i] = Task(
                    wcet=t.wcet,
                    period=t.period,
                    deadline=bumped,
                    name=t.name,
                )
                if instance_digest(TaskSet(tasks), platform) == digest:
                    out.append(
                        Violation(
                            "roundtrip",
                            f"digest blind to a deadline-only change on "
                            f"task {i}",
                        )
                    )
            break
    if taskset.is_implicit:
        report = feasibility_test(taskset, platform, "edf", "partitioned")
        if not _report_roundtrip_identity(report):
            out.append(
                Violation("roundtrip", "feasibility report round-trip differs")
            )
    return out


def check_service_roundtrip(
    taskset: TaskSet, platform: Platform, config: OracleConfig
) -> list[Violation]:
    """The serving layer answers exactly like a direct library call.

    Submits the instance (and a task-permuted copy, which shares a cache
    entry) through the HTTP front end's own ``/v1/test`` handler over an
    in-process shard (:class:`repro.service.frontend.ShardedFrontend`
    at ``workers=0``, no socket) and compares verdict, alpha, and — on
    acceptance — that the remapped partition verifies against the
    *submitted* task order.
    """
    import asyncio

    from ..core.partition import PartitionResult
    from ..io_.serialize import partition_result_from_dict
    from ..service.frontend import ShardedFrontend
    from ..service.validation import ValidationError

    out: list[Violation] = []
    frontend = ShardedFrontend(workers=0, cache_size=16)

    def handle_test(payload: dict) -> dict:
        return asyncio.run(frontend.handle_test(payload))

    if not taskset.is_implicit:
        # The theorem endpoint must refuse constrained deadlines with a
        # *field-level* validation error (never a mid-evaluation crash).
        payload = {
            "taskset": taskset_to_dict(taskset),
            "platform": platform_to_dict(platform),
            "scheduler": "edf",
            "adversary": "partitioned",
        }
        try:
            handle_test(payload)
        except ValidationError as exc:
            if not any("deadline" in e.field for e in exc.errors):
                out.append(
                    Violation(
                        "service-roundtrip",
                        "constrained submission rejected without a "
                        "deadline field error",
                    )
                )
        else:
            out.append(
                Violation(
                    "service-roundtrip",
                    "service accepted a constrained-deadline /v1/test "
                    "submission",
                )
            )
        return out
    for scheduler in ("edf", "rms"):
        direct = feasibility_test(taskset, platform, scheduler, "partitioned")
        for submitted in (taskset, taskset.subset(range(len(taskset) - 1, -1, -1))):
            payload = {
                "taskset": taskset_to_dict(submitted),
                "platform": platform_to_dict(platform),
                "scheduler": scheduler,
                "adversary": "partitioned",
            }
            response = handle_test(payload)
            report = response["report"]
            if report["accepted"] != direct.accepted:
                out.append(
                    Violation(
                        "service-roundtrip",
                        f"service {scheduler} verdict {report['accepted']} "
                        f"!= direct {direct.accepted}",
                    )
                )
                continue
            if report["alpha"] != direct.alpha:
                out.append(
                    Violation(
                        "service-roundtrip",
                        f"service {scheduler} alpha {report['alpha']!r} != "
                        f"direct {direct.alpha!r}",
                    )
                )
            if report["accepted"]:
                result: PartitionResult = partition_result_from_dict(
                    report["partition"]
                )
                if not verify_partition(result, submitted, platform):
                    out.append(
                        Violation(
                            "service-roundtrip",
                            f"service {scheduler} remapped partition does "
                            f"not verify against the submitted order",
                        )
                    )
    return out


def check_backend_equivalence(
    taskset: TaskSet, platform: Platform, config: OracleConfig
) -> list[Violation]:
    """Every :mod:`repro.kernels` backend reproduces the scalar path
    **bit-for-bit** — same verdict, same partition (assignment, loads,
    order), same certificate — with no tolerance margin.

    This is a same-path comparison in the module-docstring sense: the
    kernels are required to replay the scalar float operations exactly
    (compensated accumulation, crossover-threshold admission), so any
    difference, however small, is a bug.  Each instance is checked as a
    singleton batch *and* inside a two-element shard (with its reversed
    permutation, which shares the shard shape), across both theorem
    schedulers and an explicit non-default alpha, plus the batched
    primitives.
    """
    from ..core.bounds import liu_layland_bound
    from ..core.dbf import dbf_taskset
    from ..kernels import (
        available_kernel_backends,
        dbf_demand_batch,
        first_fit_batch,
        test_feasibility_batch,
        utilization_bounds_batch,
    )

    audited = tuple(
        b for b in (config.backends or available_kernel_backends())
        if b != "scalar"
    )
    out: list[Violation] = []
    reversed_ts = taskset.subset(range(len(taskset) - 1, -1, -1))
    if taskset.is_implicit:
        for scheduler in ("edf", "rms"):
            for alpha in (None, 1.0):
                direct = [
                    report_to_dict(
                        feasibility_test(
                            ts, platform, scheduler, "partitioned", alpha=alpha
                        )
                    )
                    for ts in (taskset, reversed_ts)
                ]
                for backend in audited:
                    got = [
                        report_to_dict(r)
                        for r in test_feasibility_batch(
                            [(taskset, platform), (reversed_ts, platform)],
                            scheduler,
                            "partitioned",
                            alpha=alpha,
                            backend=backend,
                        )
                    ]
                    single = report_to_dict(
                        test_feasibility_batch(
                            [(taskset, platform)],
                            scheduler,
                            "partitioned",
                            alpha=alpha,
                            backend=backend,
                        )[0]
                    )
                    for label, scalar_d, batch_d in (
                        ("batch[0]", direct[0], got[0]),
                        ("batch[1]", direct[1], got[1]),
                        ("singleton", direct[0], single),
                    ):
                        if batch_d != scalar_d:
                            keys = sorted(
                                k
                                for k in set(scalar_d) | set(batch_d)
                                if scalar_d.get(k) != batch_d.get(k)
                            )
                            out.append(
                                Violation(
                                    "backend-equivalence",
                                    f"{backend} {label} report != scalar for "
                                    f"{scheduler}/partitioned alpha={alpha!r};"
                                    f" differing keys: {keys}",
                                )
                            )
    else:
        # The theorem batch path refuses constrained input up front with
        # the scalar path's exact error text — on every backend, never a
        # mid-evaluation crash from inside a shard.
        try:
            feasibility_test(taskset, platform, "edf", "partitioned")
            want: str | None = None
        except ValueError as exc:
            want = str(exc)
        for backend in audited:
            try:
                test_feasibility_batch(
                    [(taskset, platform), (reversed_ts, platform)],
                    "edf",
                    "partitioned",
                    backend=backend,
                )
            except ValueError as exc:
                if want is None or str(exc) != want:
                    out.append(
                        Violation(
                            "backend-equivalence",
                            f"{backend} constrained rejection error differs "
                            f"from the scalar path",
                        )
                    )
            else:
                out.append(
                    Violation(
                        "backend-equivalence",
                        f"{backend} evaluated a constrained batch the "
                        f"scalar path refuses",
                    )
                )
    # Batched primitives: exact equality against their scalar definitions.
    times = sorted({t.deadline for t in taskset} | {t.period for t in taskset})
    scalar_bounds = [
        (ts.total_utilization, liu_layland_bound(len(ts)))
        for ts in (taskset, reversed_ts)
    ]
    scalar_dbf = [
        [dbf_taskset(ts.tasks, t) for t in times]
        for ts in (taskset, reversed_ts)
    ]
    for backend in audited:
        if (
            utilization_bounds_batch(
                [taskset, reversed_ts], backend=backend
            )
            != scalar_bounds
        ):
            out.append(
                Violation(
                    "backend-equivalence",
                    f"{backend} utilization_bounds_batch != scalar",
                )
            )
        if (
            dbf_demand_batch([taskset, reversed_ts], times, backend=backend)
            != scalar_dbf
        ):
            out.append(
                Violation(
                    "backend-equivalence",
                    f"{backend} dbf_demand_batch != scalar",
                )
            )
    # First-fit with the exact QPA admission runs on *every* deadline
    # model; the dbfloop kernel must reproduce the scalar partitioner
    # bit-for-bit (assignment, failed index, compensated loads).
    qpa_test = ADMISSION_TESTS["edf-dbf"]
    scalar_ff = [
        first_fit_partition(ts, platform, qpa_test, alpha=1.0)
        for ts in (taskset, reversed_ts)
    ]
    for backend in audited:
        got_ff = first_fit_batch(
            [(taskset, platform), (reversed_ts, platform)],
            "edf-dbf",
            backend=backend,
        )
        single_ff = first_fit_batch(
            [(taskset, platform)], "edf-dbf", backend=backend
        )[0]
        for label, want_r, have_r in (
            ("batch[0]", scalar_ff[0], got_ff[0]),
            ("batch[1]", scalar_ff[1], got_ff[1]),
            ("singleton", scalar_ff[0], single_ff),
        ):
            if have_r != want_r:
                out.append(
                    Violation(
                        "backend-equivalence",
                        f"{backend} first_fit_batch('edf-dbf') {label} != "
                        f"scalar first-fit partition",
                    )
                )
    return out


def check_constrained_lattice(
    taskset: TaskSet, platform: Platform, config: OracleConfig
) -> list[Violation]:
    """Per-speed dominance chain on the constrained-deadline family.

    Two sufficiency chains end in the exact processor-demand test —
    Han–Zhao's linearized dbf (k=1) ⇒ approximate dbf (k=4) ⇒ QPA, and
    Chen's FBB linear bound ⇒ DM response-time analysis ⇒ QPA (EDF
    optimality) — bracketed by the density sufficient condition below
    and the utilization necessary condition above.  Holds for any
    ``d <= p`` set, implicit ones included; arbitrary deadlines
    (``d > p``) are outside the lattice and skipped.
    """
    from ..baselines.chen_fp_dbf import chen_fp_feasible
    from ..baselines.han_zhao import han_zhao_feasible
    from ..core.dbf import qpa_edf_feasible
    from ..core.dbf_approx import edf_approx_demand_feasible
    from ..core.rta import dm_rta_schedulable

    if any(t.deadline > t.period for t in taskset):
        return []
    out: list[Violation] = []
    tasks = list(taskset)
    m = config.margin
    for speed in sorted(set(platform.speeds)):
        qpa = qpa_edf_feasible(tasks, speed)
        links = (
            (
                "han-zhao(k=1)",
                han_zhao_feasible(tasks, speed * (1.0 - m)),
                "edf-dbf-approx(k=4)",
                edf_approx_demand_feasible(tasks, speed, k=4),
                "coarser approximate dbf dominates finer",
            ),
            (
                "edf-dbf-approx(k=4)",
                edf_approx_demand_feasible(tasks, speed * (1.0 - m), k=4),
                "edf-dbf",
                qpa,
                "approximate dbf upper-bounds the exact dbf",
            ),
            (
                "chen-dm",
                chen_fp_feasible(tasks, speed * (1.0 - m)),
                "dm-rta",
                dm_rta_schedulable(tasks, speed),
                "FBB linear bound upper-bounds the DM request bound",
            ),
            (
                "dm-rta",
                dm_rta_schedulable(tasks, speed * (1.0 - m)),
                "edf-dbf",
                qpa,
                "EDF optimality on one machine",
            ),
        )
        for weaker, w_ok, stronger, s_ok, why in links:
            if w_ok and not s_ok:
                out.append(
                    Violation(
                        "constrained-lattice",
                        f"{weaker} accepts but {stronger} rejects at "
                        f"speed {speed!r} ({why})",
                    )
                )
        density = taskset.total_density
        if density <= speed * (1.0 - m) and not qpa:
            out.append(
                Violation(
                    "constrained-lattice",
                    f"total density {density!r} fits speed {speed!r} but "
                    f"QPA rejects (density sufficiency)",
                )
            )
        total_u = taskset.total_utilization
        if (
            qpa_edf_feasible(tasks, speed * (1.0 - m))
            and total_u > speed * (1.0 + m)
        ):
            out.append(
                Violation(
                    "constrained-lattice",
                    f"QPA accepts at speed {speed!r} but utilization "
                    f"{total_u!r} exceeds it (necessary condition)",
                )
            )
    return out


def check_constrained_partition(
    taskset: TaskSet, platform: Platform, config: OracleConfig
) -> list[Violation]:
    """First-fit with the constrained-deadline admissions is sound.

    Every successful partition re-verifies one-shot, and — because the
    QPA walk is exact and the Han–Zhao/Chen admissions are sufficient —
    every machine the partitioner builds must pass the exact
    processor-demand test at its own (margin-granted) speed.
    """
    from ..baselines.chen_fp_dbf import ChenFPAdmissionTest
    from ..baselines.han_zhao import HanZhaoAdmissionTest
    from ..core.dbf import qpa_edf_feasible

    if any(t.deadline > t.period for t in taskset):
        return []
    out: list[Violation] = []
    tests: tuple[AdmissionTest, ...] = (
        ADMISSION_TESTS["edf-dbf"],
        HanZhaoAdmissionTest(),
        ChenFPAdmissionTest(),
    )
    for test in tests:
        result = first_fit_partition(taskset, platform, test, alpha=1.0)
        if not result.success:
            continue
        if not verify_partition(result, taskset, platform, test):
            out.append(
                Violation(
                    "constrained-partition",
                    f"first-fit({test.name}) succeeded but "
                    f"verify_partition rejects the assignment",
                )
            )
        for j, idxs in enumerate(result.machine_tasks):
            if not idxs:
                continue
            machine = [taskset[i] for i in idxs]
            speed = platform[j].speed * (1.0 + config.margin)
            if not qpa_edf_feasible(machine, speed):
                out.append(
                    Violation(
                        "constrained-partition",
                        f"first-fit({test.name}) machine {j} fails the "
                        f"exact processor-demand test at its speed",
                    )
                )
    return out


#: All invariant checks by name, in deterministic execution order.
CHECKS: dict[str, Callable[[TaskSet, Platform, OracleConfig], list[Violation]]] = {
    "single-machine-lattice": check_single_machine_lattice,
    "incremental-vs-oneshot": check_incremental_vs_oneshot,
    "verify-partition": check_verify_partition,
    "lp-dominance": check_lp_dominance,
    "theorem-speedup": check_theorem_speedups,
    "certificates": check_certificates,
    "roundtrip": check_roundtrip,
    "service-roundtrip": check_service_roundtrip,
    "backend-equivalence": check_backend_equivalence,
    "constrained-lattice": check_constrained_lattice,
    "constrained-partition": check_constrained_partition,
}

#: The sub-lattice that exercises one admission test in isolation —
#: what the per-test property suites sweep with a large budget.
PER_TEST_CHECKS: tuple[str, ...] = (
    "single-machine-lattice",
    "incremental-vs-oneshot",
    "verify-partition",
    "theorem-speedup",
)


def check_instance(
    taskset: TaskSet, platform: Platform, config: OracleConfig | None = None
) -> list[Violation]:
    """Run the configured invariant checks; return every violation."""
    config = config or OracleConfig()
    out: list[Violation] = []
    for name in config.active_checks():
        try:
            check = CHECKS[name]
        except KeyError:
            raise KeyError(
                f"unknown invariant {name!r}; known: {sorted(CHECKS)}"
            ) from None
        out.extend(check(taskset, platform, config))
    return out
