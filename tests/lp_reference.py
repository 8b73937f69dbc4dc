"""The §II stress LP solved by scipy's HiGHS: the tests' reference.

:func:`repro.core.lp.lp_stress` computes ``beta*`` in closed form.  This
module solves the same LP with a general solver — ``min beta`` subject
to (1), (2) <= beta, (3) <= beta and u >= 0 — so the tests can compare
the two, and so ``check_lp_solution`` and ``verify_lemma_ii1`` have an
explicit witness ``u`` to audit.  It is the only module that imports
scipy.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import linprog

from repro.core.model import Platform, TaskSet


def reference_lp(taskset: TaskSet, platform: Platform) -> tuple[np.ndarray, float]:
    """Solve the stress LP; return the n x m witness ``u`` and ``beta*``.

    Variables are ``u`` flattened row-major (``i*m + j``), then ``beta``.
    """
    n, m = len(taskset), len(platform)
    if n == 0:
        return np.zeros((0, m)), 0.0
    inv_s = 1.0 / np.array(platform.speeds)
    no_beta = np.zeros((n, 1))
    a_eq = np.hstack([np.kron(np.eye(n), np.ones(m)), no_beta])  # (1)
    self_parallel = np.kron(np.eye(n), inv_s)  # (2), one row per task
    capacity = np.kron(np.ones(n), np.diag(inv_s))  # (3), one row per machine
    a_ub = np.hstack([np.vstack([self_parallel, capacity]), -np.ones((n + m, 1))])
    c = np.zeros(n * m + 1)
    c[-1] = 1.0
    res = linprog(
        c,
        A_ub=a_ub,
        b_ub=np.zeros(n + m),
        A_eq=a_eq,
        b_eq=np.array(taskset.utilizations),
        bounds=[(0, None)] * (n * m + 1),
        method="highs",
    )
    assert res.success, f"the stress LP is always feasible: {res.message}"
    return np.asarray(res.x[:-1]).reshape(n, m), float(res.x[-1])
