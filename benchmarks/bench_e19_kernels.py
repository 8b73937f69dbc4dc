"""Bench E19/E20: batch kernel throughput vs the scalar loop.

Times :func:`repro.kernels.test_feasibility_batch` against the
equivalent ``feasibility_test`` loop on the fixed E18 corpus (256
instances, the campaign/service batch shape) for the ``numpy`` backend
and both theorem schedulers, then archives the table under
``results/e20.txt`` / ``.csv`` and the machine-readable summary as
``BENCH_kernels.json`` at the repository root (the CI ``bench-kernels``
job uploads it as an artifact).

Methodology
-----------
Bit-identity is asserted *before* any timing: a backend that disagrees
with the scalar path on a single report byte fails the benchmark.  Each
arm is then timed **block-interleaved best-of**: per cycle, a block of
back-to-back rounds per arm, alternating arms across several cycles,
keeping the minimum round time per arm.  Blocks measure honest
steady-state batch-consumer throughput (a batch consumer runs the kernel
repeatedly, caches warm); interleaving the blocks across cycles cancels
slow host phases (shared CPU noise hits every arm); best-of discards
scheduler preemptions.  The ratio of minima is the speedup headline.

Like E18 this is a harness artifact, not a paper experiment, so it is
not in the E1–E17 registry; it builds its ExperimentResult directly.
"""

import json
import os
import platform as platform_mod
import time
from pathlib import Path

import numpy as np

from repro.core.feasibility import feasibility_test
from repro.io_.serialize import report_to_dict
from repro.kernels import BACKENDS, reset_kernel_caches
from repro.kernels import test_feasibility_batch as feasibility_batch
from repro.experiments.base import ExperimentResult
from repro.workloads.builder import generate_taskset
from repro.workloads.platforms import geometric_platform

SEED = 20160516  # the E18 corpus seed (the paper's conference date)
BATCH = 256
N_TASKS = 16
MACHINES = 4
SPEED_RATIO = 8.0
STRESS_CYCLE = (0.80, 0.90, 1.0)

#: Rounds per block and interleaving cycles per arm (see module docs).
BLOCK = 12
CYCLES = 8

BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_kernels.json"


def _corpus():
    rng = np.random.default_rng(SEED)
    platform = geometric_platform(MACHINES, SPEED_RATIO)
    out = []
    for k in range(BATCH):
        stress = STRESS_CYCLE[k % len(STRESS_CYCLE)]
        taskset = generate_taskset(
            rng,
            N_TASKS,
            stress * platform.total_speed,
            u_max=platform.fastest_speed,
        )
        out.append((taskset, platform))
    return out


def _scalar_arm(corpus, scheduler):
    for taskset, platform in corpus:
        feasibility_test(taskset, platform, scheduler, "partitioned")


def _kernel_arm(corpus, scheduler, backend):
    feasibility_batch(corpus, scheduler, "partitioned", backend=backend)


def _assert_equivalent(corpus, scheduler, backend):
    scalar = [
        report_to_dict(
            feasibility_test(ts, pf, scheduler, "partitioned")
        )
        for ts, pf in corpus
    ]
    batch = [
        report_to_dict(r)
        for r in feasibility_batch(
            corpus, scheduler, "partitioned", backend=backend
        )
    ]
    assert batch == scalar, (
        f"{backend} reports differ from scalar for {scheduler}; "
        "refusing to time a wrong backend"
    )


def _measure(corpus):
    """Block-interleaved best-of over every (scheduler, arm) pair."""
    backends = [b for b in BACKENDS if b != "scalar"]
    best: dict[tuple[str, str], float] = {}
    for scheduler in ("edf", "rms"):
        for backend in backends:
            _assert_equivalent(corpus, scheduler, backend)
        arms = [("scalar", lambda s=scheduler: _scalar_arm(corpus, s))]
        arms += [
            (
                backend,
                lambda s=scheduler, b=backend: _kernel_arm(corpus, s, b),
            )
            for backend in backends
        ]
        for _ in range(CYCLES):
            for name, arm in arms:
                key = (scheduler, name)
                for _ in range(BLOCK):
                    t0 = time.perf_counter()
                    arm()
                    dt = time.perf_counter() - t0
                    if dt < best.get(key, float("inf")):
                        best[key] = dt
    return best, backends


def test_e19_kernel_throughput(run_once, record_result):
    corpus = _corpus()
    reset_kernel_caches()
    # One untimed pass per arm warms the buffer/threshold caches — the
    # steady state a batch consumer lives in.
    for scheduler in ("edf", "rms"):
        _scalar_arm(corpus, scheduler)
        for backend in BACKENDS:
            if backend != "scalar":
                _kernel_arm(corpus, scheduler, backend)

    best, backends = run_once(_measure, corpus)

    rows = []
    results = []
    headline = {"speedup_batch256": 0.0}
    for scheduler in ("edf", "rms"):
        scalar_t = best[(scheduler, "scalar")]
        for name in ["scalar"] + backends:
            t = best[(scheduler, name)]
            speedup = scalar_t / t
            entry = {
                "scheduler": scheduler,
                "backend": name,
                "batch_size": BATCH,
                "best_seconds": t,
                "instances_per_second": BATCH / t,
                "speedup_vs_scalar": speedup,
            }
            results.append(entry)
            rows.append(
                {
                    "scheduler": scheduler,
                    "backend": name,
                    "batch ms": 1e3 * t,
                    "instances/s": BATCH / t,
                    "speedup": speedup,
                }
            )
            if name != "scalar" and speedup > headline["speedup_batch256"]:
                headline = {
                    "speedup_batch256": speedup,
                    "scheduler": scheduler,
                    "backend": name,
                }

    payload = {
        "schema": "repro/bench-kernels/v1",
        "corpus": {
            "name": "e18",
            "seed": SEED,
            "instances": BATCH,
            "n_tasks": N_TASKS,
            "machines": MACHINES,
            "speed_ratio": SPEED_RATIO,
            "stress_cycle": list(STRESS_CYCLE),
        },
        "methodology": (
            f"block-interleaved best-of: {BLOCK} rounds per block, "
            f"{CYCLES} cycles per arm, equivalence asserted before timing"
        ),
        "host": {
            "cpus": os.cpu_count(),
            "python": platform_mod.python_version(),
            "numpy": np.__version__,
        },
        "equivalence_checked": True,
        "results": results,
        "headline": headline,
    }
    BENCH_JSON.write_text(json.dumps(payload, indent=2) + "\n")

    record_result(
        ExperimentResult(
            experiment_id="e20",
            title="Batch kernel throughput vs the scalar loop (E18 corpus)",
            rows=rows,
            notes=(
                f"Corpus: {BATCH} instances (n={N_TASKS}, m={MACHINES}, "
                f"geometric ratio {SPEED_RATIO:g}, seed {SEED}); "
                f"block-interleaved best-of ({BLOCK} rounds x {CYCLES} "
                "cycles per arm). Reports verified bit-identical to the "
                "scalar path before timing. Machine-readable summary: "
                "BENCH_kernels.json."
            ),
        )
    )

    assert headline["speedup_batch256"] >= 10.0, (
        f"acceptance floor is 10x at batch {BATCH}; "
        f"measured {headline['speedup_batch256']:.2f}x "
        f"({headline.get('scheduler')}/{headline.get('backend')})"
    )
