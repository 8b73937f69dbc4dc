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

Solved with scipy's HiGHS.  Besides the yes/no oracle we expose the
*stress* ``beta*``: the minimum uniform relaxation of constraints (2)+(3)
that admits a solution — ``beta* <= 1`` iff the LP is feasible, and the
value is a useful continuous measure of how overloaded an instance is
(equivalently, ``1/beta*`` is the largest factor by which the platform
could be slowed while staying LP-feasible).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import Platform, TaskSet

# scipy is imported inside the two functions that build and solve the LP:
# it costs ~45 MB and ~0.2 s in every process, and most never solve one.

__all__ = [
    "LPSolution",
    "lp_feasible",
    "lp_stress",
    "lp_solve",
    "check_lp_solution",
    "verify_lemma_ii1",
    "tol_leq",
    "tol_geq",
]

#: Feasibility slack granted to the solver's answer.  HiGHS enforces
#: constraints to ~1e-9; we accept 1e-7 to be safe across platforms.
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
    scale = np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))
    return a <= b + tol * scale


def tol_geq(a, b, *, tol: float = LP_TOL):
    """Tolerant ``a >= b`` (see :func:`tol_leq`)."""
    return tol_leq(b, a, tol=tol)


@dataclass(frozen=True)
class LPSolution:
    """A solved LP instance."""

    #: n x m utilization-assignment matrix (or None when infeasible)
    u: np.ndarray | None
    #: minimum uniform relaxation beta* of constraints (2)+(3)
    stress: float

    @property
    def feasible(self) -> bool:
        return bool(tol_leq(self.stress, 1.0))


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


def _build_stress_lp(taskset: TaskSet, platform: Platform):
    """Build ``min beta`` subject to (1), (2)<=beta, (3)<=beta, u>=0.

    Variables: u flattened row-major (i*m + j), then beta last.
    """
    from scipy.sparse import coo_matrix

    n = len(taskset)
    m = len(platform)
    w = np.array(taskset.utilizations)
    s = np.array(platform.speeds)
    nv = n * m + 1

    # Equality (1): one row per task.
    eq_rows = np.repeat(np.arange(n), m)
    eq_cols = np.arange(n * m)
    eq_vals = np.ones(n * m)
    a_eq = coo_matrix((eq_vals, (eq_rows, eq_cols)), shape=(n, nv)).tocsr()
    b_eq = w

    # Inequalities: n rows of (2) then m rows of (3); each has -beta.
    rows = []
    cols = []
    vals = []
    inv_s = 1.0 / s
    for i in range(n):
        for j in range(m):
            rows.append(i)
            cols.append(i * m + j)
            vals.append(inv_s[j])
        rows.append(i)
        cols.append(n * m)
        vals.append(-1.0)
    for j in range(m):
        r = n + j
        for i in range(n):
            rows.append(r)
            cols.append(i * m + j)
            vals.append(inv_s[j])
        rows.append(r)
        cols.append(n * m)
        vals.append(-1.0)
    a_ub = coo_matrix((vals, (rows, cols)), shape=(n + m, nv)).tocsr()
    b_ub = np.zeros(n + m)

    c = np.zeros(nv)
    c[-1] = 1.0
    return c, a_ub, b_ub, a_eq, b_eq


def lp_solve(taskset: TaskSet, platform: Platform) -> LPSolution:
    """Solve the stress LP; always succeeds (beta can absorb any overload).

    Returns the assignment matrix at the optimum and ``beta*``.
    """
    from scipy.optimize import linprog

    n = len(taskset)
    if n == 0:
        m = len(platform)
        return LPSolution(u=np.zeros((0, m)), stress=0.0)
    m = len(platform)
    c, a_ub, b_ub, a_eq, b_eq = _build_stress_lp(taskset, platform)
    res = linprog(
        c,
        A_ub=a_ub,
        b_ub=b_ub,
        A_eq=a_eq,
        b_eq=b_eq,
        bounds=[(0, None)] * (n * m + 1),
        method="highs",
    )
    if not res.success:  # pragma: no cover - stress LP is always feasible
        raise RuntimeError(f"LP solver failed unexpectedly: {res.message}")
    u = np.asarray(res.x[: n * m]).reshape(n, m)
    return LPSolution(u=u, stress=float(res.x[-1]))


def lp_stress(taskset: TaskSet, platform: Platform) -> float:
    """Minimum uniform relaxation ``beta*`` (see module docstring)."""
    return lp_solve(taskset, platform).stress


def lp_feasible(taskset: TaskSet, platform: Platform) -> bool:
    """Is the paper's LP (constraints 1-4) feasible for this instance?

    Feasible is a *necessary* condition for any scheduler (even migratory)
    to meet all deadlines; infeasible certifies the instance hopeless.
    """
    if not _necessary_conditions(taskset, platform):
        return False
    return lp_solve(taskset, platform).feasible


def check_lp_solution(
    u: np.ndarray,
    taskset: TaskSet,
    platform: Platform,
    *,
    tol: float = LP_TOL,
) -> bool:
    """Independently verify a candidate assignment matrix against (1)-(4)."""
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
    u: np.ndarray,
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
