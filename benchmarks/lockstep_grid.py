"""Where the numpy lockstep beats the flat loop: the grid behind
:func:`repro.kernels.batch.takes_lockstep`.

For each theorem scheduler, shard shape (n tasks x m machines) and
shard width (instances sharing that shape), times the two arms of the
``numpy`` backend on the same instances: the flat per-instance loop
(:func:`repro.kernels.flat.solve_shard_flat`) and the lockstep
evaluator (:mod:`repro.kernels.lockstep`), interleaved round by round so
slow host phases hit both alike.  Every round evaluates fresh
``TaskSet`` copies, as a served cache miss does, so both arms pay their
buffer build each time; the platform's admission thresholds are warm, as
in any long-lived process.  Before anything is timed, every cell asserts
that the scalar reference (``feasibility_test`` per instance), the flat
loop and the lockstep return identical reports.

Prints one markdown table, a row per shape and a column per width.  The
first column is the scalar reference's median microseconds per lone
instance, EDF · RMS (its cost per instance does not depend on the
width).  Each width cell reads ``flat/lockstep`` median microseconds per
instance for EDF, then for RMS, and the arm the size rule picks: **F**
(flat loop) or **L** (lockstep).

    PYTHONPATH=src python benchmarks/lockstep_grid.py [--rounds 25]
"""

from __future__ import annotations

import argparse
import statistics
import time

import numpy as np

from repro.core.feasibility import feasibility_test
from repro.core.model import TaskSet
from repro.io_.serialize import report_to_dict
from repro.kernels.batch import (
    _flat_feasibility_batch,
    _lockstep_feasibility_batch,
    takes_lockstep,
)
from repro.workloads.builder import generate_taskset
from repro.workloads.platforms import geometric_platform

SEED = 20160516
#: the serving corpora's stress and platform ratio (benchmarks/perf)
STRESS = 0.85
SPEED_RATIO = 4.0
#: E19's 16 x 4 shard, then the serving shapes up to serve-miss's 128 x 64
SHAPES = (
    (16, 4), (8, 8), (16, 8), (16, 16), (32, 16), (32, 32), (64, 32), (128, 32), (128, 64)
)
WIDTHS = (1, 2, 4, 8, 16, 32, 64, 256)


def _instances(rng, n, m, width):
    # randfixedsum draws from the same capped simplex as UUniFast-Discard,
    # whose rejection rate is high when n is near m at this stress
    platform = geometric_platform(m, SPEED_RATIO)
    return [
        (
            generate_taskset(
                rng,
                n,
                STRESS * platform.total_speed,
                method="randfixedsum",
                u_max=platform.fastest_speed,
            ),
            platform,
        )
        for _ in range(width)
    ]


def _fresh(instances):
    return [(TaskSet(ts.tasks), pf) for ts, pf in instances]


def _median_us(times, width=1):
    return 1e6 * statistics.median(times) / width


def _scalar_us(instances, scheduler, rounds):
    ts, pf = instances[0]
    times = []
    for _ in range(rounds):
        fresh = TaskSet(ts.tasks)
        t0 = time.perf_counter()
        feasibility_test(fresh, pf, scheduler)
        times.append(time.perf_counter() - t0)
    return _median_us(times)


def _cell(instances, scheduler, rounds):
    arms = [
        ("flat", lambda b: _flat_feasibility_batch(b, scheduler, "partitioned")),
        ("lockstep", lambda b: _lockstep_feasibility_batch(b, scheduler, "partitioned")),
    ]
    want = [report_to_dict(feasibility_test(ts, pf, scheduler)) for ts, pf in instances]
    for name, arm in arms:
        got = [report_to_dict(r) for r in arm(_fresh(instances))]
        assert got == want, f"{name} != scalar for {scheduler}"
    times = {name: [] for name, _ in arms}
    for r in range(rounds):
        for name, arm in arms if r % 2 else arms[::-1]:
            batch = _fresh(instances)
            t0 = time.perf_counter()
            arm(batch)
            times[name].append(time.perf_counter() - t0)
    width = len(instances)
    return _median_us(times["flat"], width), _median_us(times["lockstep"], width)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, default=25)
    args = parser.parse_args()
    rng = np.random.default_rng(SEED)
    schedulers = ("edf", "rms")
    print("| n×m | scalar | " + " | ".join(f"width {w}" for w in WIDTHS) + " |")
    print("|---" * (len(WIDTHS) + 2) + "|")
    for n, m in SHAPES:
        cells = []
        scalar = None
        for width in WIDTHS:
            instances = _instances(rng, n, m, width)
            if scalar is None:
                scalar = " · ".join(
                    f"{_scalar_us(instances, s, args.rounds):.0f}" for s in schedulers
                )
            timed = [_cell(instances, s, args.rounds) for s in schedulers]
            rule = "L" if takes_lockstep(width, n, m) else "F"
            cells.append(
                " · ".join(f"{f:.0f}/{k:.0f}" for f, k in timed) + f" **{rule}**"
            )
        print(f"| {n}×{m} | {scalar} | " + " | ".join(cells) + " |", flush=True)


if __name__ == "__main__":
    main()
