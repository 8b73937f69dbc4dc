"""Smoke tests for the benchmark itself; the default ``tests/`` run does not collect them.

    PYTHONPATH=src python -m pytest benchmarks/perf/test_perf_smoke.py -q

One ``--quick`` run of all four workloads backs the output checks; the
gate and degradation tests run one quick workload in-process so they can
monkeypatch it.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import corpus  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def quick(tmp_path_factory):
    out = tmp_path_factory.mktemp("perf")
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--quick", "--out", str(out)],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-4000:]
    return out, proc.stdout


def test_every_metric_printed_with_its_unit(quick):
    out, stdout = quick
    sections = stdout.split("== ")[1:]
    assert [s.split()[0] for s in sections] == list(run.WORKLOADS)
    for section in sections:
        workload = section.split()[0]
        printed = {line.split()[0]: line.split() for line in section.splitlines()[1:]}
        record = json.loads((out / f"result-{workload}.json").read_text())
        for m in SPEC["end_to_end"] + SPEC["per_layer"]:
            assert m["unit"] in printed[m["name"]], (workload, m["name"])
        for m in SPEC["end_to_end"]:
            assert record["metrics"][m["name"]]["value"] > 0, (workload, m["name"])
        for m in SPEC["per_layer"]:
            value = record["layers"][m["name"]]["value"]
            assert value is not None or m["name"] in record["reasons"], (workload, m["name"])


def test_trace_files_nest(quick):
    out, _ = quick
    for workload in run.WORKLOADS:
        trace = json.loads((out / f"trace-{workload}.json").read_text())
        spans = trace["spans"]
        assert spans, workload
        for span in spans:
            assert span["start_us"] <= span["end_us"]
            if span["parent"] >= 0:
                parent = spans[span["parent"]]
                assert parent["start_us"] <= span["start_us"], (workload, span)
                assert span["end_us"] <= parent["end_us"], (workload, span)
                assert span["request"] == parent["request"], (workload, span)


def test_driver_stays_within_nproc_connections(quick):
    out, _ = quick
    nproc = len(os.sched_getaffinity(0))
    for workload in run.WORKLOADS:
        record = json.loads((out / f"result-{workload}.json").read_text())
        assert record["peak_connections"] <= nproc, workload


def _spread(value, q1, q3):
    return {"value": value, "q1": q1, "q3": q3}


@pytest.mark.parametrize(
    ("b", "label"),
    [
        (_spread(99.6, 99.6, 99.6), "within bound"),  # a 0.4% drop is no gain
        (_spread(85.0, 84.0, 86.0), "better"),
        (_spread(95.0, 84.0, 96.0), "within bound"),
        (_spread(112.0, 105.0, 115.0), "unresolved"),
        (_spread(120.0, 115.0, 125.0), "worse"),
    ],
)
def test_verdict_counts_only_changes_beyond_the_bound(b, label):
    a = _spread(100.0, 99.0, 101.0)
    assert run.verdict(a, b, "lower", 0.1)[1] == label


def test_several_runs_pool_into_quartiles_between_runs():
    stats = [_spread(v, v - 1.0, v + 1.0) for v in (10.0, 12.0, 20.0)]
    assert run.pooled(stats) == run.spread([10.0, 12.0, 20.0])
    assert run.pooled(stats[:1]) == stats[0]


def test_compare_refuses_runs_of_different_lengths(quick, tmp_path):
    out, _ = quick
    record = json.loads((out / "result-serve-hit.json").read_text())
    longer = tmp_path / "longer.json"
    longer.write_text(json.dumps({**record, "seconds": record["seconds"] * 2}))
    assert run.compare(str(out / "result-serve-hit.json"), str(longer)) == 2
    assert run.compare(str(out / "result-serve-hit.json"), str(out / "results.json")) == 0


def test_gate_trips_on_a_corrupt_reference(monkeypatch, tmp_path, capsys):
    original = corpus.reference_report
    calls = []

    def corrupt_first(taskset, platform):
        report = original(taskset, platform)
        if not calls:
            report["accepted"] = not report["accepted"]
        calls.append(1)
        return report

    monkeypatch.setattr(corpus, "reference_report", corrupt_first)
    code = run.main(["--workload", "serve-hit", "--quick", "--out", str(tmp_path)])
    assert code != 0
    stdout = capsys.readouterr().out
    assert '"metrics"' not in stdout


def test_missing_wrap_target_yields_null(monkeypatch, tmp_path, capsys):
    import repro.service.shard as shard

    # The numpy-backed shard never calls feasibility_test, so the program
    # still runs; only the benchmark's wrap target is gone.
    monkeypatch.delattr(shard, "feasibility_test")
    code = run.main(
        ["--workload", "serve-hit", "--quick", "--trace", "1", "--out", str(tmp_path)]
    )
    assert code == 0
    line = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert line["metrics"]["core.eval_us"]["value"] is None
    assert line["metrics"]["json.decode_us"]["value"] is not None
    record = json.loads((tmp_path / "result-serve-hit.json").read_text())
    assert "feasibility_test" in record["reasons"]["core.eval_us"]
