"""Sequential per-instance first-fit over flat Python lists.

:func:`solve_shard_flat` is the ``numpy`` backend's arm for every
``edf`` / ``rms-ll`` shard too narrow for the lockstep of
:mod:`repro.kernels.lockstep` to pay
(:func:`repro.kernels.batch.takes_lockstep`).  It runs the §III
first-fit loop one instance at a time over plain per-instance machine
state, with no numpy at all, and replays ``MachineState.admits``
inline: the Neumaier peek with the scalar operand order and the
tolerant ``leq`` verbatim.  Before that exact probe, a per-machine
*headroom* (capacity plus twice the ``leq`` tolerance, minus the load)
drops machines the probe would reject: a task larger than the headroom
overshoots the largest admitted total by ~``EPS`` relative, millions of
times any rounding in the skip, so the exact predicate still decides
every placement.

What it saves against the scalar path is everything *around* the
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

from ..core.model import EPS
from .buffers import PlatformEntry, TasksetEntry

__all__ = ["RawResult", "solve_shard_flat"]

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
