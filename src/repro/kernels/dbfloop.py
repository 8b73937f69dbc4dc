"""Batched DBF demand walk — first-fit with the exact QPA admission.

The ``edf-dbf`` path of the ``numpy`` backend: per shard, the §III
first-fit loop over plain per-instance machine state, with the O(1)
utilization probe of :mod:`repro.kernels.lockstep` replaced by the
pseudo-polynomial QPA probe of :func:`repro.core.dbf.qpa_feasible_params`.

Bit-identity with the scalar partitioner is *by construction*, not by
replication: both paths resolve every probe through the same
``_PROFILES`` cache in :mod:`repro.core.dbf`, keyed by the name-free
``(wcet, period, deadline)`` triples of the candidate machine set in
placement order.  The scalar ``_DBFState.admits`` builds
``self._tasks + [task]`` and hashes those triples; this loop hands the
triples over directly — same key, same memoized verdict object.  What
the batch path saves is everything *around* the probe: Task/TaskSet
construction, MachineState dispatch, and per-instance re-sorting — and,
across a shard, the profile cache turns repeated candidate sets (common
in campaign sweeps over nearby utilizations) into dictionary hits.

The reported loads replay :class:`~repro.core.bounds._NeumaierSum`
exactly: per instance, two local ``[0.0] * m`` lists hold each machine's
running (sum, compensation) pair, updated by ``add`` inlined on
non-negative utilization streams, so ``PartitionResult.loads`` matches
the scalar result bit for bit.

There is no vectorized variant: QPA is an inherently sequential
fixed-point iteration.  The backends still agree verdict-for-verdict,
which is what the ``backend-equivalence`` oracle check asserts.
"""

from __future__ import annotations

from ..core.dbf import TaskParams, qpa_feasible_params
from .buffers import PlatformEntry, TasksetEntry

__all__ = ["RawResult", "solve_shard_dbf"]

#: Raw per-instance outcome: (machine per sorted position, sorted
#: position of the first failure or -1, final per-machine loads).
RawResult = tuple[list[int], int, list[float]]


def solve_shard_dbf(
    entries: list[TasksetEntry],
    pf: PlatformEntry,
) -> list[RawResult]:
    """First-fit every instance of one uniform shard under QPA admission."""
    S = pf.scaled
    m = len(S)
    out: list[RawResult] = []
    for ent in entries:
        ts = ent.taskset
        # candidate parameters in the processing (utilization-descending)
        # order — position k here is position k of ent.u_sorted
        params = [
            (ts[i].wcet, ts[i].period, ts[i].deadline) for i in ent.order
        ]
        # per-machine assigned params in placement order: exactly the
        # list _DBFState._tasks holds on the scalar path
        machines: list[list[TaskParams]] = [[] for _ in range(m)]
        sums = [0.0] * m
        comps = [0.0] * m
        chosen: list[int] = []
        failed_k = -1
        for k, cand in enumerate(params):
            placed = -1
            for j in range(m):
                if qpa_feasible_params((*machines[j], cand), S[j]):
                    placed = j
                    machines[j].append(cand)
                    u = ent.u_sorted[k]
                    s = sums[j]
                    # _NeumaierSum.add, inlined (operands non-negative)
                    t = s + u
                    if s >= u:
                        pre = (s - t) + u
                    else:
                        pre = (u - t) + s
                    sums[j] = t
                    comps[j] = comps[j] + pre
                    break
            if placed < 0:
                failed_k = k
                break
            chosen.append(placed)
        loads = [sums[j] + comps[j] for j in range(m)]
        out.append((chosen, failed_k, loads))
    return out
