"""UUniFast and UUniFast-Discard utilization generators.

UUniFast (Bini & Buttazzo, 2005) draws ``n`` task utilizations uniformly
from the simplex ``{u : sum u_i = U, u_i >= 0}``.  It is the standard
generator for schedulability studies because it is unbiased over the
simplex, unlike naive normalization.

UUniFast-Discard (Davis & Burns) rejects and redraws any vector with a
coordinate above ``u_max``, giving a uniform draw over the truncated
simplex — needed when total utilization exceeds 1 (multiprocessor
studies) or when per-task caps matter.
"""

from __future__ import annotations

import numpy as np

__all__ = ["uunifast", "uunifast_discard"]


def uunifast(rng: np.random.Generator, n: int, total_utilization: float) -> np.ndarray:
    """Draw ``n`` utilizations summing to ``total_utilization``.

    Parameters
    ----------
    rng:
        Source of randomness (``numpy.random.Generator``).
    n:
        Number of tasks; must be positive.
    total_utilization:
        Target sum; must be positive.

    Returns
    -------
    numpy.ndarray
        Shape ``(n,)``, entries positive (almost surely), summing to
        ``total_utilization``.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if total_utilization <= 0:
        raise ValueError("total_utilization must be positive")
    utils = np.empty(n)
    remaining = total_utilization
    for i in range(n - 1):
        next_remaining = remaining * rng.random() ** (1.0 / (n - 1 - i))
        utils[i] = remaining - next_remaining
        remaining = next_remaining
    utils[n - 1] = remaining
    return utils


def uunifast_discard(
    rng: np.random.Generator,
    n: int,
    total_utilization: float,
    *,
    u_max: float = 1.0,
    max_attempts: int = 10_000,
) -> np.ndarray:
    """UUniFast with rejection of vectors exceeding ``u_max`` per task.

    Raises
    ------
    ValueError
        if the target is impossible (``total_utilization > n * u_max``)
        or uncomfortably tight (rejection would almost never terminate).
    RuntimeError
        if ``max_attempts`` rejections occur (pathologically tight target:
        the largest of ``n`` simplex shares runs ~``ln n`` times the mean
        ``U / n``, so acceptance collapses well before the mean reaches
        ``u_max``, e.g. with about as many tasks as machines at high
        stress).  ``generate_taskset(..., method="randfixedsum")`` samples
        the capped simplex directly instead.
    """
    if u_max <= 0:
        raise ValueError("u_max must be positive")
    if total_utilization > n * u_max:
        raise ValueError(
            f"cannot split U={total_utilization} into {n} tasks of <= {u_max}"
        )
    for _ in range(max_attempts):
        utils = uunifast(rng, n, total_utilization)
        if (utils <= u_max).all():
            return utils
    raise RuntimeError(
        f"uunifast_discard: gave up after {max_attempts} attempts at "
        f"n={n}, U={total_utilization}, u_max={u_max}: the mean utilization "
        f"U/n is {total_utilization / (n * u_max):.0%} of u_max, where almost "
        f"every draw puts some task above the cap (acceptance collapses when "
        f"n is close to the machine count m at high stress); draw with "
        f'method="randfixedsum", which samples the capped simplex directly'
    )
