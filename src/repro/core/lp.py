"""The paper's feasibility linear program (§II) and Lemma II.1.

Any schedule — partitioned or fully migratory — induces a feasible
solution of the LP below, so LP infeasibility certifies that *no*
scheduler can meet all deadlines.  The paper's 2.98/3.34 analyses compare
against exactly this LP, which makes it our "non-partitioned adversary"
oracle.  Variables ``u[i, j]`` give the utilization of task ``i`` served
by machine ``j``::

    (1)  for all i:  sum_j u[i, j]          == w_i      (task fully served)
    (2)  for all i:  sum_j u[i, j] / s_j    <= 1        (no self-parallelism)
    (3)  for all j:  sum_i u[i, j] / s_j    <= 1        (machine capacity)
    (4)  u >= 0

Besides the yes/no oracle we expose the *stress* ``beta*``: the minimum
uniform relaxation of constraints (2)+(3) that admits a solution —
``beta* <= 1`` iff the LP is feasible, and the value is a useful
continuous measure of how overloaded an instance is (equivalently,
``1/beta*`` is the largest factor by which the platform could be slowed
while staying LP-feasible).

No solver is needed.  Put ``x[i, j] = u[i, j] / s_j``, the share of time
task ``i`` spends on machine ``j``: (1) becomes ``sum_j s_j x[i, j] ==
w_i``, and (2)+(3) relaxed by ``beta`` say that no task runs, and no
machine is busy, for more than ``beta`` of the time.  That is preemptive
scheduling of jobs of size ``w_i`` on uniform machines within makespan
``beta``, whose optimum has a closed form (Horvath, Lam & Sethi 1977;
Gonzalez & Sahni 1978; the implicit-deadline uniform-multiprocessor test
of Funk, Goossens & Baruah 2001).  With ``w`` and ``s`` sorted
descending::

    beta* = max( max_{1 <= k <= min(n, m-1)} sum_{i<=k} w_i / sum_{j<=k} s_j,
                 sum_i w_i / sum_j s_j )

The ``k`` largest tasks run at most ``beta`` each and can at best
occupy the ``k`` fastest machines, which bounds ``beta`` from below; the
level algorithm meets every bound at once.  :func:`check_lp_solution`
and :func:`verify_lemma_ii1` audit an explicit ``u`` independently.
"""

from __future__ import annotations

from math import fsum
from typing import TYPE_CHECKING

from .model import Platform, TaskSet, leq

if TYPE_CHECKING:
    from numpy import ndarray

# numpy is imported inside each verifier that computes with it: every
# process imports this module through `repro`, and most never verify a
# witness.

__all__ = [
    "lp_feasible",
    "lp_stress",
    "check_lp_solution",
    "verify_lemma_ii1",
    "tol_leq",
    "tol_geq",
]

#: Slack granted on the LP side: ``beta* <= 1 + LP_TOL`` (relative above
#: magnitude 1) counts as feasible, and the verifiers accept constraint
#: violations up to it.
LP_TOL: float = 1e-7


def tol_leq(a, b, *, tol: float = LP_TOL):
    """Tolerant ``a <= b`` — *the* tolerance convention for LP-side checks.

    Identical shape to :func:`repro.core.model.leq` (relative to the
    larger magnitude, absolute near zero) but at the LP's looser ``tol``;
    works elementwise on numpy arrays.  Every comparison in
    :func:`check_lp_solution` and :func:`verify_lemma_ii1` goes through
    this one helper so the two verifiers can never disagree about what
    "on the boundary" means.
    """
    import numpy as np

    scale = np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))
    return a <= b + tol * scale


def tol_geq(a, b, *, tol: float = LP_TOL):
    """Tolerant ``a >= b`` (see :func:`tol_leq`)."""
    return tol_leq(b, a, tol=tol)


def _necessary_conditions(taskset: TaskSet, platform: Platform) -> bool:
    """Cheap necessary conditions: every task fits the fastest machine
    (constraint 2 summed against s_m) and total utilization fits total
    speed (constraints 1+3 summed)."""
    s_max = platform.fastest_speed
    if any(t.utilization > s_max * (1.0 + LP_TOL) for t in taskset):
        return False
    if taskset.total_utilization > platform.total_speed * (1.0 + LP_TOL):
        return False
    return True


def lp_stress(taskset: TaskSet, platform: Platform) -> float:
    """Minimum uniform relaxation ``beta*``, in closed form (see module
    docstring); 0 for an empty task set."""
    w = sorted(taskset.utilizations, reverse=True)
    if not w:
        return 0.0
    s = sorted(platform.speeds, reverse=True)
    beta = fsum(w) / fsum(s)
    for k in range(1, min(len(w), len(s) - 1) + 1):
        beta = max(beta, fsum(w[:k]) / fsum(s[:k]))
    return beta


def lp_feasible(taskset: TaskSet, platform: Platform) -> bool:
    """Is the paper's LP (constraints 1-4) feasible for this instance?

    Feasible is a *necessary* condition for any scheduler (even migratory)
    to meet all deadlines; infeasible certifies the instance hopeless.
    """
    if not _necessary_conditions(taskset, platform):
        return False
    # tol_leq's formula on one float: numpy stays unloaded
    return leq(lp_stress(taskset, platform), 1.0, eps=LP_TOL)


def check_lp_solution(
    u: ndarray,
    taskset: TaskSet,
    platform: Platform,
    *,
    tol: float = LP_TOL,
) -> bool:
    """Independently verify a candidate assignment matrix against (1)-(4)."""
    import numpy as np

    n, m = len(taskset), len(platform)
    u = np.asarray(u, dtype=float)
    if u.shape != (n, m):
        return False
    if not np.all(tol_geq(u, 0.0, tol=tol)):
        return False
    w = np.array(taskset.utilizations)
    s = np.array(platform.speeds)
    served = u.sum(axis=1)
    if not np.all(tol_leq(served, w, tol=tol) & tol_geq(served, w, tol=tol)):
        return False
    if not np.all(tol_leq((u / s).sum(axis=1), 1.0, tol=tol)):
        return False
    if not np.all(tol_leq((u / s).sum(axis=0), 1.0, tol=tol)):
        return False
    return True


def verify_lemma_ii1(
    u: ndarray,
    taskset: TaskSet,
    platform: Platform,
    alpha: float,
    *,
    tol: float = LP_TOL,
) -> bool:
    """Check Lemma II.1 on a feasible LP solution.

    The lemma (from [2], as *used* in §IV/§V — the statement in the text
    garbles the precondition): fix ``alpha > 1`` and a feasible solution
    ``u``.  For every task ``i`` and every machine count ``k`` such that
    the first ``k`` machines are all too slow for the task even when
    augmented (``w_i >= alpha * s_j`` for all ``j <= k``, i.e. ``w_i >=
    alpha * s_k`` under the speed-ascending order):

        ``w_i <= alpha/(alpha-1) * sum_{j > k} u[i, j]``

    Derivation: LP constraint (2) gives ``sum_j u[i,j]/s_j <= 1``; on the
    slow prefix ``u[i,j]/s_j >= alpha*u[i,j]/w_i``, so the prefix carries
    at most ``w_i/alpha`` of the task, leaving at least ``w_i*(1-1/alpha)``
    on the suffix.  ``k = 0`` is the trivial case (suffix = everything).

    All boundary comparisons use :func:`tol_leq`/:func:`tol_geq` — the
    same convention as :func:`check_lp_solution` — so a ``w_i ~= alpha *
    s_k`` instance that one verifier treats as "on the prefix" cannot be
    treated as "off it" by the other.
    """
    if alpha <= 1.0:
        raise ValueError("Lemma II.1 needs alpha > 1")
    import numpy as np

    n, m = len(taskset), len(platform)
    u = np.asarray(u, dtype=float)
    s = platform.speeds
    factor = alpha / (alpha - 1.0)
    for i in range(n):
        w_i = taskset[i].utilization
        # suffixes[k] = sum_{j >= k} u[i, j]
        suffixes = [0.0] * (m + 1)
        for j in range(m - 1, -1, -1):
            suffixes[j] = suffixes[j + 1] + u[i, j]
        for k in range(0, m + 1):
            if k > 0 and not tol_geq(w_i, alpha * s[k - 1], tol=tol):
                break  # machines only get faster: no further k applies
            if not tol_leq(w_i, factor * suffixes[k], tol=tol):
                return False
    return True
