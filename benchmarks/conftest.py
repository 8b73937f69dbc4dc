"""Shared fixtures for the harness benchmarks.

``bench_e18_throughput``, ``bench_e19_kernels`` and ``bench_service``
each time one harness artifact (E18, E20, E21) under pytest-benchmark
and archive its rendered table to ``results/eNN.txt`` (+ ``.csv``).
The paper experiments E1-E23 are not benchmarked here: tier-1 diffs
their quick tables against ``results/quick/`` (tests/test_experiments.py).
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.experiments.base import ExperimentResult
from repro.io_.tables import write_csv

RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"


def pytest_addoption(parser: pytest.Parser) -> None:
    parser.addoption(
        "--jobs",
        action="store",
        type=int,
        default=1,
        help=(
            "worker processes for campaign-based benchmarks "
            "(0: all cores; 1: serial in-process). Archived tables are "
            "identical for every value; only the timings change."
        ),
    )


@pytest.fixture(scope="session")
def jobs(request: pytest.FixtureRequest) -> int:
    return request.config.getoption("--jobs")


@pytest.fixture(scope="session")
def results_dir() -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture
def record_result(results_dir):
    """Persist an ExperimentResult's tables under results/."""

    def save(result: ExperimentResult) -> None:
        stem = results_dir / result.experiment_id
        stem.with_suffix(".txt").write_text(result.render() + "\n")
        write_csv(stem.with_suffix(".csv"), result.rows)

    return save


@pytest.fixture
def run_once(benchmark):
    """Run a whole-experiment callable exactly once under timing.

    Macro-experiments are seconds-long and internally randomized from a
    fixed seed; a single timed round is the honest measurement.
    """

    def run(fn, *args, **kwargs):
        return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)

    return run
