"""Sequential per-instance first-fit walks over flat Python lists.

Two arms of the ``numpy`` backend run the §III first-fit loop one
instance at a time over plain per-instance machine state, with no numpy
at all:

* :func:`solve_shard_flat` — the O(1) ``edf`` / ``rms-ll`` probe, for
  every shard too narrow for the lockstep of
  :mod:`repro.kernels.lockstep` to pay
  (:func:`repro.kernels.batch.takes_lockstep`).  It replays
  ``MachineState.admits`` inline: the Neumaier peek with the scalar
  operand order and the tolerant ``leq`` verbatim.  Before that exact
  probe, a per-machine *headroom* (capacity plus twice the ``leq``
  tolerance, minus the load) drops machines the probe would reject:
  a task larger than the headroom overshoots the largest admitted total
  by ~``EPS`` relative, millions of times any rounding in the skip, so
  the exact predicate still decides every placement.
* :func:`solve_shard_dbf` — ``edf-dbf``, with the pseudo-polynomial QPA
  probe of :func:`repro.core.dbf.qpa_feasible_params` in place of the
  O(1) one.  Both paths compute one deterministic function per probe:
  the scalar ``_DBFState.admits`` runs QPA on ``self._tasks + [task]``,
  and this loop hands :func:`~repro.core.dbf.qpa_feasible_params` the
  name-free ``(wcet, period, deadline)`` triples of the same candidate
  set in the same placement order.  Each instance owns one profile
  memo, as one scalar partitioning run does, so a candidate set probed
  on several machines has its demand profile built once; the memo dies
  with the instance.  QPA is an inherently sequential fixed-point
  iteration, so it has no vectorized variant.

What both save against the scalar path is everything *around* the
probe: Task/TaskSet construction, MachineState dispatch, and
per-instance re-sorting (the cached
:class:`~repro.kernels.buffers.TasksetEntry` holds the sorted
utilizations).  The reported loads replay
:class:`~repro.core.bounds._NeumaierSum` exactly: per instance, two
local ``[0.0] * m`` lists hold each machine's running (sum,
compensation) pair, updated by ``add`` inlined on non-negative
utilization streams, so ``PartitionResult.loads`` matches the scalar
result bit for bit — which is what the ``backend-equivalence`` oracle
check asserts.
"""

from __future__ import annotations

from ..core.dbf import ProfileMemo, TaskParams, qpa_feasible_params
from ..core.model import EPS
from .buffers import PlatformEntry, TasksetEntry

__all__ = ["RawResult", "solve_shard_dbf", "solve_shard_flat"]

#: Raw per-instance outcome: (machine per sorted position, sorted
#: position of the first failure or -1, final per-machine loads).
RawResult = tuple[list[int], int, list[float]]


#: The headroom skip's slack over a capacity ``cap``, in units of
#: ``max(1, cap)``: ``leq`` admits totals up to ~``cap + EPS * max(1,
#: cap)``, so twice its tolerance leaves ~``EPS * max(1, cap)`` between
#: the largest admitted total and the skip, far above float rounding.
_SLACK = 2.0 * EPS


def solve_shard_flat(
    entries: list[TasksetEntry],
    pf: PlatformEntry,
    ll_tab: list[float],
    rms: bool,
) -> list[RawResult]:
    """First-fit every instance of one uniform shard under the ``edf``
    (``rms`` false) or ``rms-ll`` admission; ``ll_tab[c]`` is
    ``liu_layland_bound(c)`` for ``c`` up to the task count plus one."""
    S = pf.scaled
    m = len(S)
    machines = range(m)
    # empty-machine capacities: the bound the scalar state computes,
    # ll(count + 1) * speed, for RMS, the speed itself for EDF
    caps0 = [ll_tab[1] * s for s in S] if rms else list(S)
    mxs0 = [c if c > 1.0 else 1.0 for c in caps0]
    # per machine: a task larger than this is one the probe rejects
    room0 = [c + _SLACK * x for c, x in zip(caps0, mxs0)]
    out: list[RawResult] = []
    for ent in entries:
        sums = [0.0] * m
        comps = [0.0] * m
        room = room0[:]
        if rms:  # an RMS capacity falls with each task the machine takes
            counts = [0] * m
            caps = caps0[:]
            mxs = mxs0[:]
        else:
            caps = caps0
            mxs = mxs0
        chosen: list[int] = []
        failed_k = -1
        for k, u in enumerate(ent.u_sorted):
            placed = -1
            for j in machines:
                if u > room[j]:
                    continue
                s = sums[j]
                # _NeumaierSum.peek, inlined (operands non-negative)
                t = s + u
                if s >= u:
                    pre = (s - t) + u
                else:
                    pre = (u - t) + s
                c = comps[j] + pre
                total = t + c
                cap = caps[j]
                mx = mxs[j]
                # leq(total, cap) verbatim: max(1.0, total, cap) is
                # max(total, mx), and every operand is non-negative
                if total <= cap + EPS * (total if total > mx else mx):
                    # _NeumaierSum.add reuses the peek's t and pre
                    sums[j] = t
                    comps[j] = c
                    if rms:
                        cnt = counts[j] + 1
                        counts[j] = cnt
                        cap = ll_tab[cnt + 1] * S[j]
                        mx = cap if cap > 1.0 else 1.0
                        caps[j] = cap
                        mxs[j] = mx
                    room[j] = (cap + _SLACK * mx) - total
                    placed = j
                    break
            if placed < 0:
                failed_k = k
                break
            chosen.append(placed)
        loads = [sums[j] + comps[j] for j in machines]
        out.append((chosen, failed_k, loads))
    return out


def solve_shard_dbf(
    entries: list[TasksetEntry],
    pf: PlatformEntry,
) -> list[RawResult]:
    """First-fit every instance of one uniform shard under QPA admission."""
    S = pf.scaled
    m = len(S)
    out: list[RawResult] = []
    for ent in entries:
        # one memo per instance, the scope of one scalar partition() run
        memo: ProfileMemo = {}
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
                if qpa_feasible_params((*machines[j], cand), S[j], memo=memo):
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
