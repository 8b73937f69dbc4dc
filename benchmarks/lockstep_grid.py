"""Where the numpy lockstep beats the scalar loop: the grid behind
:func:`repro.kernels.batch.takes_lockstep`.

For each theorem scheduler, shard shape (n tasks x m machines) and
shard width (instances sharing that shape), times the scalar loop
(``feasibility_test`` per instance) against the lockstep evaluator on the
same instances, interleaved round by round so slow host phases hit both
arms alike.  Every round evaluates fresh ``TaskSet`` copies, as a served
cache miss does, so the lockstep pays its buffer build each time; the
platform's admission thresholds are warm, as in any long-lived process.
Reports are asserted identical before anything is timed.

Prints one markdown table, a row per shape and a column per width.  Each
cell reads ``scalar/lockstep`` median microseconds per instance for EDF,
then for RMS, and the arm the size rule picks: **S** (scalar loop) or
**L** (lockstep).

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
from repro.kernels.batch import _lockstep_feasibility_batch, takes_lockstep
from repro.workloads.builder import generate_taskset
from repro.workloads.platforms import geometric_platform

SEED = 20160516
#: the serving corpora's stress and platform ratio (benchmarks/perf)
STRESS = 0.85
SPEED_RATIO = 4.0
SHAPES = ((8, 8), (16, 8), (16, 16), (32, 16), (32, 32), (64, 32), (128, 32), (128, 64))
WIDTHS = (1, 2, 4, 8)


def _instances(rng, n, m, width):
    platform = geometric_platform(m, SPEED_RATIO)
    return [
        (
            generate_taskset(
                rng, n, STRESS * platform.total_speed, u_max=platform.fastest_speed
            ),
            platform,
        )
        for _ in range(width)
    ]


def _fresh(instances):
    return [(TaskSet(ts.tasks), pf) for ts, pf in instances]


def _cell(instances, scheduler, rounds):
    def scalar(batch):
        for ts, pf in batch:
            feasibility_test(ts, pf, scheduler, "partitioned")

    def lockstep(batch):
        _lockstep_feasibility_batch(batch, scheduler, "partitioned")

    want = [report_to_dict(feasibility_test(ts, pf, scheduler)) for ts, pf in instances]
    got = _lockstep_feasibility_batch(_fresh(instances), scheduler, "partitioned")
    assert [report_to_dict(r) for r in got] == want, "lockstep != scalar"
    times = {"scalar": [], "lockstep": []}
    arms = [("scalar", scalar), ("lockstep", lockstep)]
    for r in range(rounds):
        for name, arm in arms if r % 2 else arms[::-1]:
            batch = _fresh(instances)
            t0 = time.perf_counter()
            arm(batch)
            times[name].append(time.perf_counter() - t0)
    width = len(instances)
    return (
        1e6 * statistics.median(times["scalar"]) / width,
        1e6 * statistics.median(times["lockstep"]) / width,
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, default=25)
    args = parser.parse_args()
    rng = np.random.default_rng(SEED)
    print("| n×m | " + " | ".join(f"width {w}" for w in WIDTHS) + " |")
    print("|---" * (len(WIDTHS) + 1) + "|")
    for n, m in SHAPES:
        cells = []
        for width in WIDTHS:
            instances = _instances(rng, n, m, width)
            timed = [_cell(instances, s, args.rounds) for s in ("edf", "rms")]
            rule = "L" if takes_lockstep(width, n, m) else "S"
            cells.append(
                " · ".join(f"{s:.0f}/{k:.0f}" for s, k in timed) + f" **{rule}**"
            )
        print(f"| {n}×{m} | " + " | ".join(cells) + " |", flush=True)


if __name__ == "__main__":
    main()
