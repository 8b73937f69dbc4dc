"""campaign-e22: the E22 quick acceptance campaign, run the way users run it.

``get_experiment("e22")(seed=..., scale="quick", jobs=2)`` on the default
scalar backend: trial generation, first-fit with QPA and approx-dbf,
Han-Zhao, Chen-DM and the runner's process pool do all the work, and no
service code runs.  Its rows must equal the ``backend="numpy"`` run,
which the kernels guarantee bit for bit.

The timed runs happen in a dedicated interpreter (this file run as a
script), so the peak RSS of its children is that of the timed runs' pool
workers alone: the numpy reference run and the set-up interpreters are
children of the benchmark process, not of the timing one.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import resource
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

#: 4 deadline bands x 6 utilization points x 40 samples at quick scale.
TRIALS = 960
JOBS = 2
#: the timing interpreter's own limit; a run takes about 3 s
CHILD_TIMEOUT_S = 150.0


class CampaignMismatch(Exception):
    """The campaign's rows differ from the numpy reference run."""


def _env(root: Path) -> dict[str, str]:
    return dict(os.environ, PYTHONPATH=str(root / "src"))


def import_seconds(root: Path) -> float:
    """Wall time for a fresh interpreter to ``import repro.experiments``."""
    t0 = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", "import repro.experiments"], cwd=root, env=_env(root), check=True
    )
    return time.perf_counter() - t0


def run_e22(seed: int, *, jobs: int = JOBS, backend: str | None = None) -> list[dict]:
    from repro.experiments import get_experiment

    return get_experiment("e22")(seed=seed, scale="quick", jobs=jobs, backend=backend).rows


def rows_digest(rows: list[dict]) -> str:
    return hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest()


@dataclass
class CampaignResult:
    #: rows of the numpy reference run
    reference: list[dict]
    #: wall seconds of each timed campaign run
    walls: list[float]
    #: runner telemetry summed over the timed runs, or ``None``
    telemetry: dict[str, float] | None
    telemetry_reason: str | None
    #: largest pool worker's peak RSS over the timed runs (MB)
    rss_mb: float


def _telemetry():
    """``repro.runner.telemetry`` if this version still has it."""
    try:
        from repro.runner import telemetry
    except ImportError as exc:
        return None, f"repro.runner.telemetry unavailable: {exc}"
    return telemetry, None


def fingerprint(seed: int) -> str:
    """The campaign's inputs are the experiment, its scale and the seed."""
    return hashlib.sha256(f"campaign-e22|{seed}|quick|jobs={JOBS}".encode()).hexdigest()


def timed_runs(seed: int, seconds: float, min_runs: int) -> dict:
    """Scalar E22 runs in this interpreter until ``seconds`` elapse."""
    from repro.experiments import get_experiment

    get_experiment("e22")  # imports stay outside the timed runs
    telemetry, reason = _telemetry()
    walls: list[float] = []
    digests: list[str] = []
    totals = {"trials": 0, "wall": 0.0, "cpu": 0.0, "jobs": 0}
    while len(walls) < min_runs or sum(walls) < seconds:
        with (telemetry or contextlib.nullcontext)() as tele:
            t0 = time.perf_counter()
            rows = run_e22(seed)
            walls.append(time.perf_counter() - t0)
        for stats in getattr(tele, "runs", ()):
            totals["trials"] += stats.trials
            totals["wall"] += stats.wall_time
            totals["cpu"] += stats.cpu_time
            totals["jobs"] = max(totals["jobs"], stats.jobs)
        digests.append(rows_digest(rows))
    return {
        "walls": walls,
        "digests": digests,
        "telemetry": totals if telemetry is not None else None,
        "telemetry_reason": reason,
        # Pool workers are reaped when each sweep's pool shuts down, and
        # this interpreter starts no other child.
        "rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
    }


def _timed_child(root: Path, seed: int, seconds: float, min_runs: int) -> dict:
    argv = [sys.executable, __file__, str(seed), repr(seconds), str(min_runs)]
    proc = subprocess.Popen(argv, cwd=root, env=_env(root), stdout=subprocess.PIPE)
    try:
        stdout, _ = proc.communicate(timeout=seconds + CHILD_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            # the child's SIGTERM handler unwinds its pool before it exits
            proc.terminate()
            try:
                proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"timed e22 interpreter exited with {proc.returncode}")
    return json.loads(stdout.decode().strip().splitlines()[-1])


def measure(root: Path, seed: int, seconds: float, min_runs: int) -> CampaignResult:
    """The numpy reference here, then the timed runs in a fresh interpreter;
    every timed run's rows must equal the reference's."""
    reference = run_e22(seed, backend="numpy")
    if len(reference) != 24:
        raise CampaignMismatch(f"expected 24 rows from e22 quick, got {len(reference)}")
    timed = _timed_child(root, seed, seconds, min_runs)
    expected = rows_digest(reference)
    for k, digest in enumerate(timed["digests"], 1):
        if digest != expected:
            raise CampaignMismatch(f"timed run {k} differs from the numpy reference")
    return CampaignResult(
        reference=reference,
        walls=timed["walls"],
        telemetry=timed["telemetry"],
        telemetry_reason=timed["telemetry_reason"],
        rss_mb=timed["rss_mb"],
    )


if __name__ == "__main__":
    # python3 campaign.py SEED SECONDS MIN_RUNS, with src/ on PYTHONPATH
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    seed_arg, seconds_arg, runs_arg = sys.argv[1:4]
    print(json.dumps(timed_runs(int(seed_arg), float(seconds_arg), int(runs_arg))))
