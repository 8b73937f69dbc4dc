"""Vectorized lockstep batch first-fit (the ``numpy`` backend's wide arm).

All ``B`` instances of a shard run the §III first-fit loop *in
lockstep*: step ``k`` places every instance's ``k``-th
largest-utilization task simultaneously against a ``(B, m)``
structure-of-arrays machine state (running Neumaier sums and
compensations over zero-copy ndarray views of the shared flat buffers).
Each step costs ~15 numpy dispatches whatever ``B`` is, so the lockstep
runs only shards wide enough to share that cost
(:func:`repro.kernels.batch.takes_lockstep`, 32 instances or more);
narrower shards take the flat loop of :mod:`repro.kernels.flat`, and
this module — numpy with it — is imported by the first wide shard.

Bit-identity with the scalar path is an invariant, not an aspiration —
the ``backend-equivalence`` oracle check and the property suite compare
full reports.  The arithmetic preserves it operation-for-operation:

* the Neumaier *peek* is computed elementwise with the scalar operand
  order (``t = sums + u``; the ``sums >= u`` branch picks
  ``(sums - t) + u`` or ``(u - t) + sums``; operands are non-negative,
  so the scalar ``abs`` calls select the same branch);
* the tolerant ``leq`` comparison becomes ``total <= T*`` against a
  precomputed *exact crossover* per capacity (:func:`_crossover`): the
  predicate ``t <= cap + EPS * max(1, t, cap)`` is monotone in ``t``,
  so its largest admitted double is found once by bisection replaying
  the scalar float sequence — every decision is bit-identical and the
  tolerance value itself is never part of any result;
* placement *reuses* the peek's ``t``/``pre`` intermediates, the exact
  additions the scalar ``add`` performs on identical inputs;
* ``argmax`` over the admission mask returns the *first* admitting
  machine (machines are speed-ascending), matching first-fit;
* task order comes from the cached stable descending sort, identical to
  ``TaskSet.order_by_utilization`` on ties.

Two engineering choices matter for throughput on small shards: every
per-step operand is materialized at ``(B, m)`` up front (numpy
broadcasting costs ~3x per op at these sizes), and report objects are
built from template dicts via ``object.__setattr__`` rather than the
frozen-dataclass constructor.
"""

from __future__ import annotations

import math
import struct

import numpy as np

from ..core.certificates import partitioned_infeasibility_certificate
from ..core.feasibility import FeasibilityReport
from ..core.model import EPS, Platform
from ..core.partition import PartitionResult
from .batch import ReportMeta
from .buffers import PlatformEntry, TasksetEntry

__all__ = ["evaluate_shard", "reset_lockstep_caches"]


def reset_lockstep_caches() -> None:
    """Drop the index-vector and shard-matrix caches (test isolation)."""
    _IV_CACHE.clear()
    _SHARD_CACHE.clear()

_PR_new = PartitionResult.__new__
_FR_new = FeasibilityReport.__new__
# frozen dataclasses intercept even __dict__ assignment; this bypasses
# the guard without touching per-field __setattr__ costs
_setd = object.__setattr__

#: (B, n, m) -> (rows*m, repeat(rows, n)*m) index vectors, reused across calls
_IV_CACHE: dict[tuple[int, int, int], tuple[np.ndarray, np.ndarray]] = {}
_IV_CACHE_MAX = 32


def _index_vectors(b: int, n: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    key = (b, n, m)
    cached = _IV_CACHE.get(key)
    if cached is None:
        rows = np.arange(b)
        cached = (rows * m, np.repeat(rows, n) * m)
        if len(_IV_CACHE) >= _IV_CACHE_MAX:
            _IV_CACHE.pop(next(iter(_IV_CACHE)))
        _IV_CACHE[key] = cached
    return cached


def _crossover(cap: float, sm: float) -> float:
    """Largest double ``t`` with ``t <= cap + EPS * max(t, sm)``.

    The predicate replays scalar ``leq``'s exact float sequence
    (``abs`` elided: every operand is non-negative), so replacing the
    per-step tolerance computation by ``total <= T*`` keeps every
    admission *decision* bit-identical — the tolerance value itself is
    never stored, only compared.  The predicate is monotone in ``t``
    (left side slope 1, right side slope EPS << 1), so one crossover
    exists; bisection runs over the bit-ordered non-negative doubles
    and the boundary is verified before returning.
    """
    pack, unpack = struct.pack, struct.unpack

    def admit(t: float) -> bool:
        m_ = t if t > sm else sm
        # leq(t, cap) verbatim
        return t <= cap + EPS * m_

    hi = 2.0 * (cap + EPS * sm + 1.0)
    lb = 0  # t = +0.0, always admitted (cap > 0)
    hb = unpack("<q", pack("<d", hi))[0]
    while hb - lb > 1:
        mid = (lb + hb) >> 1
        if admit(unpack("<d", pack("<q", mid))[0]):
            lb = mid
        else:
            hb = mid
    t_star = unpack("<d", pack("<q", lb))[0]
    if not admit(t_star) or admit(math.nextafter(t_star, math.inf)):
        raise AssertionError(
            f"admission crossover not monotone at cap={cap!r} sm={sm!r}"
        )
    return t_star


#: shard composition -> (entries, u_sorted (b,n), u_rep (n,b,m), order2 (b,n)).
#: Multi-tester sweeps and repeated service shards re-evaluate the same
#: entry sequence at different alphas; the gathered matrices are
#: alpha-independent, so they are cached keyed by the entry identities.
#: Held entries pin their ids, not their task sets: a hit needs the
#: caller's live entries, so a dead entry's ``taskset`` is never read.
_SHARD_CACHE: dict[tuple, tuple] = {}
_SHARD_CACHE_MAX = 8


def _shard_matrices(
    entries: list[TasksetEntry], b: int, n: int, m: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    key = (tuple(map(id, entries)), m)
    cached = _SHARD_CACHE.get(key)
    # list == has a C-level identity fast path per element, so a hit
    # costs one C loop; a value-equal rebuild on id reuse is also safe
    if cached is not None and cached[0] == entries:
        del _SHARD_CACHE[key]  # refresh LRU recency
        _SHARD_CACHE[key] = cached
        return cached[1], cached[2], cached[3]
    u_views = []
    append_u = u_views.append
    for e in entries:
        v = e.u_np
        if v is None:  # memoize the zero-copy views on the cached entry
            v = np.frombuffer(e.u_sorted, dtype=np.float64)
            _setd(e, "u_np", v)
            _setd(e, "order_np", np.frombuffer(e.order_arr, dtype=np.int64))
        append_u(v)
    u_sorted = np.concatenate(u_views).reshape(b, n)
    # (n, b, m): u_rep[k] is a contiguous (b, m) block of step k's task
    u_rep = np.repeat(u_sorted.T[:, :, None], m, axis=2)
    order2 = np.concatenate([e.order_np for e in entries]).reshape(b, n)
    if len(_SHARD_CACHE) >= _SHARD_CACHE_MAX:
        _SHARD_CACHE.pop(next(iter(_SHARD_CACHE)))
    _SHARD_CACHE[key] = (list(entries), u_sorted, u_rep, order2)
    return u_sorted, u_rep, order2


def evaluate_shard(
    entries: list[TasksetEntry],
    platforms: list[Platform],
    pf: PlatformEntry,
    alpha: float,
    rms: bool,
    test_name: str,
    ll_tab: list[float],
    meta: ReportMeta | None,
) -> list:
    """Evaluate one uniform shard; list of ``PartitionResult`` (when
    ``meta`` is None) or ``FeasibilityReport`` otherwise, input order."""
    b = len(entries)
    n = len(entries[0].order)
    m = len(pf.scaled)
    b_m = b * m

    # ---- admission thresholds (exact crossover per capacity) -------------
    if rms:
        thr_tab = pf.thr_rms
        if thr_tab is None:
            thr_tab = {}
            _setd(pf, "thr_rms", thr_tab)
        thr_flat = thr_tab.get(n)
        if thr_flat is None:
            scaled = pf.scaled
            thr_flat = np.empty((n + 2) * m)
            for c in range(n + 2):
                llc = ll_tab[c]
                for j in range(m):
                    # cap exactly as the scalar bound: ll(count) * speed
                    cap = llc * scaled[j]
                    thr_flat[c * m + j] = _crossover(
                        cap, cap if cap > 1.0 else 1.0
                    )
            thr_tab[n] = thr_flat
        # cidx holds ((tasks placed) + 1) * m + machine: the flat index
        # into thr_flat for the *next* admission probe on that machine
        cidx = np.empty((b, m), dtype=np.int64)
        cidx[:] = np.arange(m) + m
        cidx_f = cidx.ravel()
    else:
        thr_row = pf.thr_edf_np
        if thr_row is None:
            thr_row = np.array(
                [_crossover(c, mx) for c, mx in zip(pf.scaled, pf.scaled_max1)]
            )
            _setd(pf, "thr_edf_np", thr_row)
        thr = np.empty((b, m))
        thr[:] = thr_row

    u_sorted, u_rep, order2 = _shard_matrices(entries, b, n, m)

    sums = np.zeros((b, m))
    comps = np.zeros((b, m))
    sums_f = sums.ravel()
    comps_f = comps.ravel()
    chosen_kb = np.full((n, b), -1, dtype=np.int64)
    failed_at = np.full(b, -1, dtype=np.int64)
    active = np.ones(b, dtype=bool)
    all_active = True
    rows_m, iv_all_m = _index_vectors(b, n, m)

    # per-call workspace: every loop operation writes into one of these
    # (out=), so the step body allocates nothing at steady state
    t_ = np.empty((b, m))
    pre = np.empty((b, m))
    tmp = np.empty((b, m))
    cc = np.empty((b, m))
    admit = np.empty((b, m), dtype=bool)
    t_f = t_.ravel()
    pre_f = pre.ravel()
    admit_f = admit.ravel()

    cnz = np.count_nonzero
    nadd, nmax, nmin, nleq = np.add, np.maximum, np.minimum, np.less_equal
    k = -1
    for u, choice in zip(u_rep, chosen_kb):
        k += 1
        # Neumaier peek, elementwise and branchless: the scalar branch
        # computes (s - t) + u when s >= u else (u - t) + s, which is
        # exactly (max(s, u) - t) + min(s, u) — maximum/minimum select
        # an operand bit-for-bit, so this is the same float sequence
        nadd(sums, u, out=t_)
        nmax(sums, u, out=pre)
        pre -= t_
        nmin(sums, u, out=tmp)
        pre += tmp
        nadd(comps, pre, out=cc)
        cc += t_  # total load after placing task k
        # leq(total, cap) via the precomputed exact crossover: the
        # decision total <= T*(cap) is bit-identical to the scalar
        # tolerance comparison (see _crossover)
        if rms:
            nleq(cc, thr_flat[cidx], out=admit)
        else:
            nleq(cc, thr, out=admit)
        admit.argmax(axis=1, out=choice)  # first admitting machine
        idx = rows_m + choice
        adm = admit_f[idx]
        n_adm = cnz(adm)
        if not (all_active and n_adm == b):
            act = active
            ok = act & adm
            choice[~ok] = -1  # restore the "unplaced" marker
            nf = act & ~adm
            failed_at[nf] = k
            active = act & ~nf
            all_active = False
            if not cnz(active):
                break
            idx = idx[ok]
        # Neumaier add at the chosen machine: reuse the peek intermediates
        g = comps_f[idx]
        g += pre_f[idx]
        comps_f[idx] = g  # compensation term of the inlined Neumaier add
        sums_f[idx] = t_f[idx]
        if rms:
            c2 = cidx_f[idx]
            c2 += m
            cidx_f[idx] = c2

    sums += comps  # final compensated loads

    # ---- vectorized assembly ---------------------------------------------
    chosen2 = chosen_kb.T
    assign = np.full((b, n), -1, dtype=np.int64)
    np.put_along_axis(assign, order2, chosen2, axis=1)
    # machine_tasks via one global stable grouping sort: group id =
    # instance * m + machine, values = original task indices in placement
    # (= utilization-descending) order
    if all_active:
        jv = chosen2.ravel()
        tv = order2.ravel()
        g2 = iv_all_m + jv
    else:
        ivf, kvf = np.nonzero(chosen2 >= 0)
        jv = chosen2[ivf, kvf]
        tv = order2[ivf, kvf]
        g2 = ivf * m + jv
    perm = np.argsort(g2, kind="stable")
    tvs = tuple(tv[perm].tolist())  # slicing a tuple yields each group tuple directly
    group_sizes = np.bincount(g2, minlength=b_m)
    offs_arr = np.zeros(b_m + 1, dtype=np.int64)
    np.cumsum(group_sizes, out=offs_arr[1:])
    offs = offs_arr.tolist()
    groups = [tvs[a:z] for a, z in zip(offs, offs[1:])]

    # m consecutive groups per instance, split by one C-level zip pass
    mtups = list(zip(*(iter(groups),) * m))
    atups = list(map(tuple, assign.tolist()))
    ldtups = list(map(tuple, sums.tolist()))
    out: list = []
    append = out.append
    if meta is not None:
        scheduler, adversary, theorem = meta.scheduler, meta.adversary, meta.theorem
    if all_active:  # every instance accepted: lean path
        for atup, mtup, ldtup, ent in zip(atups, mtups, ldtups, entries):
            result = _PR_new(PartitionResult)
            _setd(
                result,
                "__dict__",
                {
                    "success": True,
                    "assignment": atup,
                    "machine_tasks": mtup,
                    "loads": ldtup,
                    "failed_task": None,
                    "alpha": alpha,
                    "test_name": test_name,
                    "order": ent.order,
                },
            )
            if meta is None:
                append(result)
            else:
                rep = _FR_new(FeasibilityReport)
                _setd(
                    rep,
                    "__dict__",
                    {
                        "accepted": True,
                        "scheduler": scheduler,
                        "adversary": adversary,
                        "alpha": alpha,
                        "theorem": theorem,
                        "partition": result,
                        "certificate": None,
                    },
                )
                append(rep)
        return out

    fa = failed_at.tolist()
    for i, (atup, mtup, ldtup, ent) in enumerate(
        zip(atups, mtups, ldtups, entries)
    ):
        fk = fa[i]
        success = fk < 0
        order = ent.order
        if success:
            assignment = atup
            failed = None
        else:
            assignment = tuple(j if j >= 0 else None for j in atup)
            failed = order[fk]
        result = _PR_new(PartitionResult)
        _setd(
            result,
            "__dict__",
            {
                "success": success,
                "assignment": assignment,
                "machine_tasks": mtup,
                "loads": ldtup,
                "failed_task": failed,
                "alpha": alpha,
                "test_name": test_name,
                "order": order,
            },
        )
        if meta is None:
            append(result)
        else:
            cert = None
            if not success:
                cert = partitioned_infeasibility_certificate(
                    ent.taskset, platforms[i], result
                )
            rep = _FR_new(FeasibilityReport)
            _setd(
                rep,
                "__dict__",
                {
                    "accepted": success,
                    "scheduler": scheduler,
                    "adversary": adversary,
                    "alpha": alpha,
                    "theorem": theorem,
                    "partition": result,
                    "certificate": cert,
                },
            )
            append(rep)
    return out
