"""The analysis constants of §IV/§V and the arithmetic behind the theorems.

The paper's non-partitioned-adversary results hinge on four free constants
``c_s, c_f, f_w, f_f`` per scheduler and three inequalities that must all
exceed 1 for the proof's contradictions to fire:

EDF (§IV, Theorem I.3, alpha = 2.98):

* *fast-case*   ``(alpha-1) * (1/2 + 1/(2 c_f) - 1/(c_s c_f)) > 1``
  (end of proof of Lemma IV.1),
* *split*       ``alpha * c_f * f_f * (1-f_w) / 2 > 1``
  (end of proof of Lemma IV.5),
* *slow-case*   ``alpha * f_w * f_im / 2 > 1`` with
  ``f_im = (1 + alpha f_f - alpha) / (alpha (1/c_s - 1))``
  (Lemma IV.7 plugged into the proof of Lemma IV.4).

RMS (§V, Theorem I.4, alpha = 3.34): the same three shapes with the EDF
half-load ``1/2`` replaced by ``sqrt(2)-1`` (Lemma V.3) and the fast-group
load ``1 - 1/c_s`` replaced by ``ln 2 - 1/c_s`` (Lemma V.2).

The partitioned-adversary results need no constants:

* Theorem I.1 (EDF):  alpha = 2       (Corollary IV.3),
* Theorem I.2 (RMS):  alpha = 1/(sqrt(2)-1) = 1 + sqrt(2) ~= 2.414
  (Lemma V.3; the theorem statement in the text says "non-partitioned"
  but abstract/intro/proof all say partitioned — we follow the proof).

This module verifies the paper's printed constants, and — because the
constants are free parameters of the proof — optimizes over them to find
the smallest alpha the technique supports (experiment E12).  The inner
optimization collapses analytically: for fixed ``alpha``, the fast-case
condition upper-bounds ``c_f``, the split condition lower-bounds ``f_f``
given ``(c_f, f_w)``, so feasibility reduces to a 2-D search over
``(c_s, f_w)`` of the slow-case slack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal

from .model import geq

# numpy is imported inside the two grid searches that use it: a serving
# front end imports this module for the alpha constants alone.

__all__ = [
    "SQRT2",
    "LN2",
    "ALPHA_EDF_PARTITIONED",
    "ALPHA_RMS_PARTITIONED",
    "ALPHA_EDF_LP",
    "ALPHA_RMS_LP",
    "ALPHA_EDF_PRIOR",
    "ALPHA_RMS_PRIOR",
    "ProofConstants",
    "EDF_LP_CONSTANTS",
    "RMS_LP_CONSTANTS",
    "f_im",
    "edf_conditions",
    "rms_conditions",
    "conditions",
    "constants_valid",
    "slow_case_slack",
    "best_constants_for_alpha",
    "minimal_alpha",
    "alpha_frontier",
]

SQRT2 = math.sqrt(2.0)
LN2 = math.log(2.0)

#: Theorem I.1 — EDF first-fit vs a partitioned adversary.
ALPHA_EDF_PARTITIONED: float = 2.0
#: Theorem I.2 — RMS first-fit vs a partitioned adversary (= 1 + sqrt 2).
ALPHA_RMS_PARTITIONED: float = 1.0 / (SQRT2 - 1.0)
#: Theorem I.3 — EDF first-fit vs the LP (any, possibly migratory, adversary).
ALPHA_EDF_LP: float = 2.98
#: Theorem I.4 — RMS first-fit vs the LP.
ALPHA_RMS_LP: float = 3.34
#: Prior work [2] (Andersson & Tovar): EDF vs any adversary.
ALPHA_EDF_PRIOR: float = 3.0
#: Prior work [3]: RMS vs any adversary (1 + 1/(sqrt(2)-1) = 2 + sqrt(2)).
ALPHA_RMS_PRIOR: float = 2.0 + SQRT2


Scheduler = Literal["edf", "rms"]


@dataclass(frozen=True)
class ProofConstants:
    """One choice of the free constants of the §IV/§V analyses."""

    alpha: float
    c_s: float
    c_f: float
    f_w: float
    f_f: float


#: The constants printed in §IV.A/§IV.B for Theorem I.3.
EDF_LP_CONSTANTS = ProofConstants(
    alpha=ALPHA_EDF_LP, c_s=2.868, c_f=28.412, f_w=0.811, f_f=0.125
)
#: The constants printed in §V.A/§V.B for Theorem I.4.
RMS_LP_CONSTANTS = ProofConstants(
    alpha=ALPHA_RMS_LP, c_s=2.00, c_f=13.25, f_w=0.72, f_f=0.1956
)


def f_im(alpha: float, c_s: float, f_f: float) -> float:
    """Lemma IV.7 / V.7 lower bound on the medium-machine fraction:

    ``f_im = (1 + alpha f_f - alpha) / (alpha (1/c_s - 1))``

    For ``alpha > 1``, ``c_s > 1`` and ``f_f < 1 - 1/alpha`` both numerator
    and denominator are negative, so the bound is positive.
    """
    if c_s <= 1.0:
        raise ValueError("c_s must exceed 1")
    return (1.0 + alpha * f_f - alpha) / (alpha * (1.0 / c_s - 1.0))


def edf_conditions(pc: ProofConstants) -> dict[str, float]:
    """The three §IV proof expressions; all must exceed 1."""
    a, c_s, c_f, f_w, f_f = pc.alpha, pc.c_s, pc.c_f, pc.f_w, pc.f_f
    fim = f_im(a, c_s, f_f)
    return {
        "fast-case": (a - 1.0) * (0.5 + 1.0 / (2.0 * c_f) - 1.0 / (c_s * c_f)),
        "split": a * c_f * f_f * (1.0 - f_w) / 2.0,
        "slow-case": a * f_w * fim / 2.0,
    }


def rms_conditions(pc: ProofConstants) -> dict[str, float]:
    """The three §V proof expressions; all must exceed 1."""
    a, c_s, c_f, f_w, f_f = pc.alpha, pc.c_s, pc.c_f, pc.f_w, pc.f_f
    fim = f_im(a, c_s, f_f)
    med = SQRT2 - 1.0
    return {
        "fast-case": (a - 1.0) * (med + (LN2 - 1.0 / c_s) / c_f),
        "split": med * a * c_f * f_f * (1.0 - f_w),
        "slow-case": med * a * f_w * fim,
    }


def conditions(pc: ProofConstants, scheduler: Scheduler) -> dict[str, float]:
    """Dispatch on scheduler."""
    if scheduler == "edf":
        return edf_conditions(pc)
    if scheduler == "rms":
        return rms_conditions(pc)
    raise ValueError(f"unknown scheduler {scheduler!r}")


def _side_constraints_ok(pc: ProofConstants, scheduler: Scheduler) -> bool:
    if not (0.0 < pc.f_w < 1.0 and 0.0 < pc.f_f < 1.0 and pc.c_f > 0.0):
        return False
    if scheduler == "edf":
        # Corollary IV.3 needs 1 - 1/c_s >= 1/2.
        return pc.c_s > 2.0 or math.isclose(pc.c_s, 2.0)
    # Lemma V.2 needs ln 2 - 1/c_s > 0.
    return pc.c_s > 1.0 / LN2


def constants_valid(pc: ProofConstants, scheduler: Scheduler) -> bool:
    """Do the constants satisfy the side constraints and all three
    proof inequalities (strictly above 1)?"""
    if not _side_constraints_ok(pc, scheduler):
        return False
    return all(v > 1.0 for v in conditions(pc, scheduler).values())


# ---------------------------------------------------------------------------
# Optimizing the free constants (experiment E12)
# ---------------------------------------------------------------------------


def _med_coeff(scheduler: Scheduler) -> float:
    """Per-machine guaranteed load fraction on medium(-or-faster) machines:
    1/2 for EDF (§IV medium-machine argument), sqrt(2)-1 for RMS (Lemma V.3)."""
    return 0.5 if scheduler == "edf" else SQRT2 - 1.0


def _max_c_f(alpha: float, c_s: float, scheduler: Scheduler) -> float:
    """Largest ``c_f`` keeping the fast-case condition at >= 1, or +inf.

    The two schedulers' fast-case conditions have (per the paper's own
    algebra) slightly different shapes:

    * EDF (end of Lemma IV.1):
      ``(alpha-1) (1/2 + (1/2 - 1/c_s)/c_f) >= 1`` — the fast group
      contributes its *surplus* over the medium coefficient;
    * RMS (end of Lemma V.1):
      ``(alpha-1) (sqrt2-1 + (ln2 - 1/c_s)/c_f) >= 1`` — the fast group's
      coefficient appears in full.

    Solving each for ``c_f``; the bound is active only when
    ``1/(alpha-1) > med``.
    """
    med = _med_coeff(scheduler)
    need = 1.0 / (alpha - 1.0) - med
    if need <= 0.0:
        return math.inf
    if scheduler == "edf":
        numerator = 0.5 - 1.0 / c_s
    else:
        numerator = LN2 - 1.0 / c_s
    if numerator <= 0.0:
        return 0.0  # fast machines contribute nothing: condition unsatisfiable
    return numerator / need


def _min_f_f(alpha: float, c_f: float, f_w: float, scheduler: Scheduler) -> float:
    """Smallest ``f_f`` keeping the split condition at >= 1.

    EDF split: ``alpha c_f f_f (1-f_w)/2 >= 1``;
    RMS split: ``(sqrt2-1) alpha c_f f_f (1-f_w) >= 1``.
    """
    if scheduler == "edf":
        return 2.0 / (alpha * c_f * (1.0 - f_w))
    return 1.0 / ((SQRT2 - 1.0) * alpha * c_f * (1.0 - f_w))


def slow_case_slack(
    alpha: float, c_s: float, f_w: float, scheduler: Scheduler
) -> float:
    """Value of the slow-case condition with ``c_f`` and ``f_f`` chosen
    optimally for the given ``(alpha, c_s, f_w)``; -inf when the fast-case
    condition already fails for every ``c_f``."""
    c_f = _max_c_f(alpha, c_s, scheduler)
    if c_f <= 0.0:
        return -math.inf
    if math.isinf(c_f):
        f_f = 0.0
    else:
        f_f = _min_f_f(alpha, c_f, f_w, scheduler)
        if geq(f_f, 1.0):
            return -math.inf
    fim = f_im(alpha, c_s, f_f)
    med = _med_coeff(scheduler)
    return med * alpha * f_w * fim


def best_constants_for_alpha(
    alpha: float,
    scheduler: Scheduler,
    *,
    grid: int = 160,
) -> tuple[ProofConstants, float]:
    """Best achievable slow-case slack at a given ``alpha``.

    Searches a refined grid over ``(c_s, f_w)`` (the only free dimensions
    after the analytic reductions) and returns the best constants plus
    the resulting slow-case value.  All three proof conditions hold (>1)
    iff the returned slack exceeds 1.
    """
    if alpha <= 1.0:
        raise ValueError("alpha must exceed 1")
    c_s_lo = 2.0 + 1e-9 if scheduler == "edf" else 1.0 / LN2 + 1e-9
    c_s_hi = 40.0
    f_lo, f_hi = 1e-6, 1.0 - 1e-6

    def evaluate(c_s: float, f_w: float) -> float:
        return slow_case_slack(alpha, c_s, f_w, scheduler)

    import numpy as np

    best = (-math.inf, c_s_lo, 0.5)
    c_s_grid = np.geomspace(c_s_lo, c_s_hi, grid)
    f_w_grid = np.linspace(f_lo, f_hi, grid)
    for c_s in c_s_grid:
        for f_w in f_w_grid:
            v = evaluate(float(c_s), float(f_w))
            if v > best[0]:
                best = (v, float(c_s), float(f_w))

    # Local refinement around the grid optimum.
    v, c_s, f_w = best
    span_c = (c_s_hi - c_s_lo) / grid
    span_f = (f_hi - f_lo) / grid
    for _ in range(40):
        improved = False
        for dc, df in (
            (span_c, 0.0),
            (-span_c, 0.0),
            (0.0, span_f),
            (0.0, -span_f),
        ):
            nc = min(max(c_s + dc, c_s_lo), c_s_hi)
            nf = min(max(f_w + df, f_lo), f_hi)
            nv = evaluate(nc, nf)
            if nv > v:
                v, c_s, f_w = nv, nc, nf
                improved = True
        if not improved:
            span_c *= 0.5
            span_f *= 0.5

    # Back the boundary-tight choices off by a relative sliver so the
    # returned constants satisfy the *strict* inequalities the proof needs
    # (c_f at its max makes the fast-case exactly 1; f_f at its min makes
    # the split exactly 1).
    interior = 1e-9
    c_f = _max_c_f(alpha, c_s, scheduler)
    if math.isinf(c_f):
        c_f = 1e9
        f_f = 1e-9
    elif c_f <= 0.0:
        # fast-case unsatisfiable at the grid optimum: return placeholder
        # constants; the accompanying slack is -inf.
        c_f, f_f = 1.0, 0.5
    else:
        c_f *= 1.0 - interior
        f_f = _min_f_f(alpha, c_f, f_w, scheduler) * (1.0 + interior)
    pc = ProofConstants(alpha=alpha, c_s=c_s, c_f=c_f, f_w=f_w, f_f=f_f)
    return pc, v


def minimal_alpha(
    scheduler: Scheduler,
    *,
    lo: float = 2.0,
    hi: float = 4.0,
    tol: float = 1e-3,
    grid: int = 120,
) -> tuple[float, ProofConstants]:
    """Smallest ``alpha`` for which the proof technique's three conditions
    can all be satisfied, via bisection on the best slow-case slack.

    Reproduces (up to the paper's rounding) the headline constants:
    ~2.97 for EDF (paper states 2.98) and ~3.33 for RMS (paper states
    3.34).
    """

    def feasible(alpha: float) -> tuple[bool, ProofConstants]:
        pc, slack = best_constants_for_alpha(alpha, scheduler, grid=grid)
        return slack > 1.0, pc

    ok_hi, pc_hi = feasible(hi)
    if not ok_hi:
        raise RuntimeError(f"upper alpha {hi} infeasible for {scheduler}")
    ok_lo, pc_lo = feasible(lo)
    if ok_lo:
        return lo, pc_lo
    best_pc = pc_hi
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        ok, pc = feasible(mid)
        if ok:
            hi = mid
            best_pc = pc
        else:
            lo = mid
    return hi, best_pc


def alpha_frontier(
    scheduler: Scheduler,
    c_f_values: list[float],
    *,
    tol: float = 2e-3,
) -> list[tuple[float, float]]:
    """For each pinned ``c_f``, the minimum feasible ``alpha`` (or inf).

    Traces how the choice of the fast-machine threshold constant trades
    against the achievable approximation factor (experiment E12 / Fig. 7).
    """

    import numpy as np

    def feasible(alpha: float, c_f: float) -> bool:
        c_s_lo = 2.0 + 1e-9 if scheduler == "edf" else 1.0 / LN2 + 1e-9
        for c_s in np.geomspace(c_s_lo, 40.0, 80):
            if _max_c_f(alpha, float(c_s), scheduler) < c_f:
                continue  # fast-case fails at this (c_s, c_f)
            for f_w in np.linspace(1e-4, 1.0 - 1e-4, 80):
                f_f = _min_f_f(alpha, c_f, float(f_w), scheduler)
                if f_f >= 1.0:
                    continue
                fim = f_im(alpha, float(c_s), f_f)
                if _med_coeff(scheduler) * alpha * f_w * fim > 1.0:
                    return True
        return False

    out: list[tuple[float, float]] = []
    for c_f in c_f_values:
        lo, hi = 1.5, 6.0
        if not feasible(hi, c_f):
            out.append((c_f, math.inf))
            continue
        while hi - lo > tol:
            mid = 0.5 * (lo + hi)
            if feasible(mid, c_f):
                hi = mid
            else:
                lo = mid
        out.append((c_f, hi))
    return out
