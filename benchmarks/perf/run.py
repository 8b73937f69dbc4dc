#!/usr/bin/env python3
"""The repro benchmark: four workloads, end-to-end metrics, a traced layer replay.

One workload (the form ``BENCHMARK.json`` names)::

    python3 benchmarks/perf/run.py --workload serve-miss --seed 7 --seconds 15 --trace 0

All four workloads, each followed by its traced replay::

    python3 benchmarks/perf/run.py --seed 20160516 --out DIR
    python3 benchmarks/perf/run.py --quick --out DIR          # ~30 s smoke
    python3 benchmarks/perf/run.py --compare A/results.json B/results.json

``--seconds`` defaults to ``run_seconds`` of ``BENCHMARK.json`` and
``--out`` to ``benchmarks/perf/out/``.  ``--compare`` also takes
directories of runs (see README.md).

A single-workload run ends its standard output with one JSON line:
``{"correct", "attempted", "failed", "metrics"}``, holding the end-to-end
metrics with ``--trace 0`` and the per-layer metrics with ``--trace 1``.
Any output that disagrees with its reference exits non-zero and prints no
metrics.  See README.md next to this file.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import itertools
import json
import math
import os
import platform
import selectors
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
sys.path[:0] = [str(HERE), str(SRC)]

WORKLOADS = ("serve-miss", "serve-hit", "serve-mixed", "campaign-e22")
WINDOWS = 5
QUICK_SECONDS = 1.0
#: untimed load before the first window (the gate pass has already filled
#: the caches; this settles connections and allocator state)
WARMUP_S = 1.0
#: set-ups per run; ``setup_s`` is their median
SETUPS = 3
#: requests per replay pass (each measured pass follows a warm-up pass)
REPLAY = {"serve-miss": 512, "serve-hit": 2048, "serve-mixed": 1024}
QUICK_REPLAY = {"serve-miss": 48, "serve-hit": 128, "serve-mixed": 128}
#: a verdict the server answers before any corpus request, outside every corpus
PROBE_BODY = json.dumps({
    "taskset": {"tasks": [{"wcet": 1.0, "period": 10.0}]},
    "platform": {"machines": [{"speed": 1.0}]},
    "scheduler": "rms",
    "adversary": "partitioned",
}).encode()

#: traced stages reported as ``<stage>_us``, self µs per request or trial
SERVE_STAGES = (
    "json.decode", "json.encode", "service.validation.parse", "service.shard.digest",
    "io_.serialize.order", "service.cache.lookup", "service.shard.core",
    "service.frontend.remap", "kernels.eval", "io_.serialize.report", "core.eval",
)
CAMPAIGN_STAGES = (
    "workloads.generate", "analysis.ff_qpa", "analysis.ff_approx",
    "baselines.han_zhao", "baselines.chen",
)
#: traced stages whose self time the front end spends (edge = the rest)
FRONTEND_STAGES = (
    "json.decode", "service.validation.parse", "service.shard.digest",
    "io_.serialize.order", "service.protocol.front", "service.frontend.remap",
    "json.encode",
)


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def check_sources() -> None:
    """Refuse to run against anything but this checkout's ``src/``."""
    try:
        import repro
    except ImportError as exc:
        sys.exit(f"run.py: cannot import repro from {SRC}: {exc}")
    if Path(repro.__file__).resolve().parents[1] != SRC.resolve():
        sys.exit(f"run.py: repro resolves to {repro.__file__}, not under {SRC}")


def host_info() -> dict:
    import numpy

    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
            capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": sha,
    }


# -- statistics ------------------------------------------------------------------


def spread(values: list[float]) -> dict[str, float]:
    """Median and quartiles (``statistics.quantiles``, n=4)."""
    if len(values) == 1:
        return {"value": values[0], "q1": values[0], "q3": values[0]}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"value": statistics.median(values), "q1": q1, "q3": q3}


def percentile(values: list[float], q: float) -> float:
    import numpy

    return float(numpy.percentile(values, q)) if values else 0.0


def ratio(num: float, den: float) -> float:
    """``num / den``, 0 when nothing was attempted (as ``CacheStats``)."""
    return num / den if den else 0.0


# -- serving workloads ----------------------------------------------------------


async def serve_pass(
    workload: str, corpus, stream, seconds: float, trace: bool, quick: bool, out: Path
) -> dict:
    """Set up, gate, warm up, then time WINDOWS windows against a live server.

    Every workload is timed as a closed loop: its capacity gives the
    end-to-end metrics.  With ``trace``, serve-mixed then runs the same mix
    as an open loop at the pinned rate for as long again (latency from
    the due time, per-layer metrics only).
    """
    from corpus import MIXED_RATE, arrivals, post, scan
    from serving import (
        CONNECTIONS, MAX_LATENESS_MS, SLO_MS, Client, GateError, Timeline,
        drive, gate, scrape_cache, start_server,
    )

    client = Client()
    log = out / f"server-{workload}.log"
    setups = []
    n_setups = 1 if quick else SETUPS
    for k in range(n_setups):
        server, seconds_to_ready = await start_server(
            client, ROOT, corpus.cache_size, log, post("/v1/test", PROBE_BODY, ())
        )
        setups.append(seconds_to_ready)
        if k < n_setups - 1:
            server.stop()
    mixed = workload == "serve-mixed"
    open_loop = mixed and trace
    window = seconds / WINDOWS

    def timeline() -> Timeline:
        return Timeline(time.perf_counter() + 0.01, min(window, WARMUP_S), window, WINDOWS)

    try:
        conns = [await client.connect(server.port) for _ in range(CONNECTIONS)]
        batches = [r for r in stream if r.path == "/v1/batch"][:8]
        gated = await gate(conns[0], corpus, batches)
        before = await scrape_cache(conns[0])
        if mixed:
            shared = itertools.cycle(stream)
            walks = [shared] * CONNECTIONS
        else:
            walks = [scan(corpus, c, CONNECTIONS) for c in range(CONNECTIONS)]
        load = await drive(conns, server, corpus, timeline(), closed=walks)
        if open_loop:
            schedule = list(zip(arrivals(corpus.seed, MIXED_RATE, len(stream)), stream))
            opened = await drive(conns, server, corpus, timeline(), schedule=schedule)
        after = await scrape_cache(conns[0])
        rss = server.rss_mb()
        await client.close_all()
    finally:
        server.stop()
    for result in (load, opened) if open_loop else (load,):
        if result.failures:
            raise GateError(
                f"{len(result.failures)} timed response(s) failed; first: {result.failures[0]}"
            )

    timed = [lat for win in load.latencies for lat in win]
    per_window = [
        {
            "ops_per_s": len(win) / window,
            "latency_p50_ms": percentile(win, 50),
            "latency_p99_ms": percentile(win, 99),
        }
        for win in load.latencies
    ]
    metrics = {"setup_s": spread(setups), "rss_mb": spread([rss])}
    n = len(timed)
    layers: dict = {
        "ops_per_s": statistics.median(w["ops_per_s"] for w in per_window),
        "latency_p50_ms": statistics.median(w["latency_p50_ms"] for w in per_window),
        # pooled over the windows: a per-window p99 has too few samples beyond it
        "latency_p99_ms": percentile(timed, 99),
        "client.cpu_ms_per_req": ratio(load.cpu["client"] * 1e3, n),
        "service.frontend.cpu_ms_per_req": ratio(load.cpu["frontend"] * 1e3, n),
    }
    reasons = {}
    if load.cpu["shard"] is None:
        layers["service.shard.cpu_ms_per_req"] = None
        reasons["service.shard.cpu_ms_per_req"] = "the server has no worker process"
    else:
        layers["service.shard.cpu_ms_per_req"] = ratio(load.cpu["shard"] * 1e3, n)
    requests = load.requests + (opened.requests if open_loop else 0)
    if before is None or after is None:
        for name in ("service.cache.hit_ratio", "service.cache.evictions_per_req"):
            layers[name] = None
            reasons[name] = "/metrics exports no repro_shard_cache_* series"
    else:
        d = {k: after[k] - before[k] for k in after}
        layers["service.cache.hit_ratio"] = ratio(d["hits"], d["hits"] + d["misses"])
        layers["service.cache.evictions_per_req"] = ratio(d["evictions"], requests)
    valid = True
    if open_loop:
        due = [lat for win in opened.latencies for lat in win]
        lateness = percentile(opened.lateness_ms, 99)
        layers.update({
            "open_loop.latency_p50_ms": percentile(due, 50),
            "open_loop.latency_p99_ms": percentile(due, 99),
            "slo_ok_frac": ratio(sum(1 for lat in due if lat <= SLO_MS), len(due)),
            "client.lateness_p99_ms": lateness,
        })
        valid = lateness <= MAX_LATENESS_MS
        if not valid:
            print(f"run.py: {workload} invalid: generator lateness p99 {lateness:.2f} ms "
                  f"> {MAX_LATENESS_MS} ms", file=sys.stderr)
    return {
        "metrics": metrics,
        "layers": layers,
        "reasons": reasons,
        "windows": per_window,
        "setups_s": setups,
        "window_s": window,
        "attempted": gated + requests,
        "timed_requests": n,
        "peak_connections": client.peak,
        "valid": valid,
    }


def serve_trace(workload: str, corpus, stream, quick: bool) -> tuple[dict, dict, "object"]:
    """The same requests replayed untraced, then traced, each time on a
    fresh front end + shard warmed by the same preceding requests."""
    from tracing import ServeReplay, Tracer, cache_counters

    n = (QUICK_REPLAY if quick else REPLAY)[workload]

    def measured_pass(tracer):
        replay = ServeReplay(corpus)
        try:
            replay.run(stream[:n])
            counters, sent = cache_counters(), replay.frame_bytes
            wall = replay.run(stream[n : 2 * n], tracer)
            return wall, counters, cache_counters(), replay.frame_bytes - sent
        finally:
            replay.close()

    untraced = measured_pass(None)[0]
    tracer = Tracer()
    traced, counters0, counters1, frame_bytes = measured_pass(tracer)
    summary = tracer.summary()
    layers, reasons = stage_layers(SERVE_STAGES, summary, tracer.missing, n)
    halves = stage_layers(
        ("service.protocol.front", "service.protocol.shard"), summary, tracer.missing, n
    )[0]
    layers["service.protocol.hop_us"] = sum(halves.values())
    layers["service.protocol.front_us"] = halves["service.protocol.front_us"]
    kernel_calls = summary.get("kernels.eval", {}).get("calls", 0)
    layers["kernels.instances_per_call"] = (
        None if "kernels.eval" in tracer.missing
        else ratio(tracer.counts.get("kernels.eval", 0), kernel_calls)
    )
    layers["service.protocol.bytes_per_req"] = ratio(frame_bytes, n)
    hit_ratios(layers, reasons, counters0, counters1)
    info = trace_info(summary, traced, untraced, n)
    layers["trace.overhead_frac"] = traced / untraced - 1.0
    return layers, {"reasons": reasons, **info}, tracer


def stage_layers(stages, summary: dict, missing: dict, ops: int) -> tuple[dict, dict]:
    """``<stage>_us``: self µs per op; ``None`` where a wrap target is gone."""
    layers, reasons = {}, {}
    for stage in stages:
        metric = f"{stage}_us"
        if stage in missing:
            layers[metric], reasons[metric] = None, missing[stage]
        else:
            layers[metric] = ratio(summary.get(stage, {}).get("self_s", 0.0) * 1e6, ops)
    return layers, reasons


def hit_ratios(layers: dict, reasons: dict, before: dict, after: dict) -> None:
    for metric, key in (
        ("kernels.buffer_hit_ratio", "kernels"),
        ("core.dbf.profile_hit_ratio", "profiles"),
    ):
        if isinstance(after[key], str):
            layers[metric], reasons[metric] = None, after[key]
        else:
            hits, misses = (a - b for a, b in zip(after[key], before[key]))
            layers[metric] = ratio(hits, hits + misses)


def trace_info(summary: dict, traced: float, untraced: float | None, ops: int) -> dict:
    from tracing import ROOTS

    stage_self = sum(row["self_s"] for name, row in summary.items() if name not in ROOTS)
    return {
        "wall_s": traced,
        "untraced_wall_s": untraced,
        "ops": ops,
        "coverage_frac": ratio(stage_self, traced),
        "stages": {
            name: {"self_us_per_op": row["self_s"] * 1e6 / ops, "calls_per_op": row["calls"] / ops}
            for name, row in sorted(summary.items())
        },
    }


def run_serve(workload: str, seed: int, seconds: float, trace: bool, quick: bool, out: Path) -> dict:
    from corpus import MIXED_RATE, build, interleaved_scan, mixed_requests
    from serving import CONNECTIONS

    corpus = build(workload, seed, quick=quick)
    n = (QUICK_REPLAY if quick else REPLAY)[workload]
    if workload == "serve-mixed":
        need = math.ceil(MIXED_RATE * (seconds + WARMUP_S) * 1.5) + 64
        stream = mixed_requests(corpus, max(need, 2 * n))
    else:
        stream = interleaved_scan(corpus, CONNECTIONS, 2 * n)
    # select(2) takes a microsecond timeout where epoll's is a millisecond,
    # which would make the open-loop dispatcher wake up to 1 ms late.
    loop = asyncio.SelectorEventLoop(selectors.SelectSelector())
    task = loop.create_task(serve_pass(workload, corpus, stream, seconds, trace, quick, out))
    try:
        result = loop.run_until_complete(task)
    finally:
        if not task.done():
            # interrupted from outside the loop: unwind the pass so its
            # ``finally`` stops the server before the process exits
            task.cancel()
            with contextlib.suppress(asyncio.CancelledError, Exception):
                loop.run_until_complete(task)
        loop.close()
    result["fingerprint"] = corpus.fingerprint
    if trace:
        traced_layers(result, lambda: serve_trace(workload, corpus, stream, quick), out, workload, seed)
        edge_layer(result)
    return result


def edge_layer(result: dict) -> None:
    """Front-end CPU per request the traced stages do not explain: the
    HTTP/asyncio edge."""
    layers = result["layers"]
    traced = [f"{s}_us" for s in FRONTEND_STAGES]
    if any(layers.get(name) is None for name in traced):
        layers["service.frontend.edge_ms_per_req"] = None
        result["reasons"]["service.frontend.edge_ms_per_req"] = "a front-end stage was not traced"
        return
    spent_us = sum(layers[name] for name in traced)
    layers["service.frontend.edge_ms_per_req"] = (
        layers["service.frontend.cpu_ms_per_req"] - spent_us / 1e3
    )


def traced_layers(result: dict, replay, out: Path, workload: str, seed: int) -> None:
    """Run a traced replay into ``result``; a replay that breaks nulls its
    metrics, but a wrong answer still fails the run."""
    from campaign import CampaignMismatch
    from serving import GateError
    from tracing import write_trace

    try:
        layers, info, tracer = replay()
    except (GateError, CampaignMismatch):
        raise
    except Exception as exc:  # noqa: BLE001 - a replay that breaks degrades, never crashes
        result["trace"] = {"error": f"{type(exc).__name__}: {exc}"}
        result["replay_failed"] = result["trace"]["error"]
        return
    result["reasons"].update(info.pop("reasons"))
    result["layers"].update(layers)
    path = out / f"trace-{workload}.json"
    write_trace(path, tracer, {"workload": workload, "seed": seed, **info})
    result["trace"] = {"file": path.name, **info}


# -- the campaign ---------------------------------------------------------------------


def campaign_trace(seed: int, quick: bool, reference: list[dict]) -> tuple[dict, dict, "object"]:
    from campaign import TRIALS, CampaignMismatch
    from tracing import Tracer, cache_counters, replay_campaign, reset_caches

    untraced = None
    if not quick:
        reset_caches()
        untraced = replay_campaign(seed)[0]
    reset_caches()
    tracer = Tracer()
    counters0 = cache_counters()
    traced, rows = replay_campaign(seed, tracer)
    counters1 = cache_counters()
    if rows != reference:
        raise CampaignMismatch("traced e22 rows differ from the numpy reference")
    summary = tracer.summary()
    layers, reasons = stage_layers(CAMPAIGN_STAGES, summary, tracer.missing, TRIALS)
    hit_ratios(layers, reasons, counters0, counters1)
    info = trace_info(summary, traced, untraced, TRIALS)
    if untraced is None:
        layers["trace.overhead_frac"] = None
        reasons["trace.overhead_frac"] = "--quick runs no untraced campaign replay"
    else:
        layers["trace.overhead_frac"] = traced / untraced - 1.0
    return layers, {"reasons": reasons, **info}, tracer


def run_campaign(seed: int, seconds: float, trace: bool, quick: bool, out: Path) -> dict:
    from campaign import TRIALS, fingerprint, import_seconds, measure

    if not quick:
        import_seconds(ROOT)  # untimed: compiles bytecode a later set-up would pay
    setups = [import_seconds(ROOT) for _ in range(1 if quick else SETUPS)]
    res = measure(ROOT, seed, seconds, min_runs=1 if quick else 3)
    walls_ms = [w * 1e3 for w in res.walls]
    layers: dict = {
        "ops_per_s": statistics.median(TRIALS / w for w in res.walls),
        "latency_p50_ms": statistics.median(walls_ms),
        "latency_p99_ms": percentile(walls_ms, 99),
    }
    reasons: dict = {}
    if res.telemetry is None:
        for name in ("runner.parallel_speedup", "runner.worker_utilization", "runner.cpu_ms_per_trial"):
            layers[name], reasons[name] = None, res.telemetry_reason
    else:
        t = res.telemetry
        layers["runner.parallel_speedup"] = ratio(t["cpu"], t["wall"])
        layers["runner.worker_utilization"] = ratio(t["cpu"], t["wall"] * t["jobs"])
        layers["runner.cpu_ms_per_trial"] = ratio(t["cpu"] * 1e3, t["trials"])
    result = {
        "metrics": {"setup_s": spread(setups), "rss_mb": spread([res.rss_mb])},
        "layers": layers,
        "reasons": reasons,
        "windows": [{"ops_per_s": TRIALS / w, "latency_ms": w * 1e3} for w in res.walls],
        "setups_s": setups,
        "window_s": None,
        "attempted": TRIALS * len(res.walls),
        "peak_connections": 0,
        "valid": True,
        "fingerprint": fingerprint(seed),
    }
    if trace:
        traced_layers(
            result, lambda: campaign_trace(seed, quick, res.reference), out, "campaign-e22", seed
        )
    return result


# -- one workload -------------------------------------------------------------------------


def run_workload(workload: str, seed: int, seconds: float, trace: bool, quick: bool, out: Path) -> dict:
    out.mkdir(parents=True, exist_ok=True)
    if workload == "campaign-e22":
        result = run_campaign(seed, seconds, trace, quick, out)
    else:
        result = run_serve(workload, seed, seconds, trace, quick, out)
    spec = load_spec()
    layers = {}
    for m in spec["per_layer"]:
        name = m["name"]
        if name in result["layers"]:
            value = result["layers"][name]
        elif trace and name not in result["reasons"] and "replay_failed" not in result:
            value = 0.0  # the traced workload never reached this layer
        else:
            value = None
            result["reasons"].setdefault(name, result.get("replay_failed", "not measured (--trace 0)"))
        layers[name] = {"value": value, "unit": m["unit"]}
    metrics = {
        m["name"]: {**result["metrics"][m["name"]], "unit": m["unit"]} for m in spec["end_to_end"]
    }
    record = {
        "workload": workload,
        "seed": seed,
        "quick": quick,
        "seconds": seconds,
        "windows_count": WINDOWS,
        "host": host_info(),
        **{k: v for k, v in result.items() if k not in ("metrics", "layers", "replay_failed")},
        "failed": 0,
        "metrics": metrics,
        "layers": layers,
    }
    (out / f"result-{workload}.json").write_text(json.dumps(record, indent=2) + "\n")
    return record


def result_line(record: dict, trace: bool) -> str:
    chosen = record["layers"] if trace else record["metrics"]
    return json.dumps({
        "correct": True,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {k: {"value": v["value"], "unit": v["unit"]} for k, v in chosen.items()},
    })


# -- all workloads, and comparing two runs --------------------------------------------------


def run_all(seed: int, seconds: float, quick: bool, out: Path) -> int:
    """Each workload in a fresh interpreter (so memory and caches do not
    leak between them), traced; then one merged ``results.json``."""
    out.mkdir(parents=True, exist_ok=True)
    records = {}
    for workload in WORKLOADS:
        argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                "--seed", str(seed), "--seconds", str(seconds), "--trace", "1", "--out", str(out)]
        if quick:
            argv.append("--quick")
        proc = subprocess.run(argv, stdout=subprocess.DEVNULL)
        if proc.returncode != 0:
            print(f"run.py: {workload} failed (exit {proc.returncode})", file=sys.stderr)
            return proc.returncode
        records[workload] = json.loads((out / f"result-{workload}.json").read_text())
    (out / "results.json").write_text(
        json.dumps({"seed": seed, "workloads": records}, indent=2) + "\n"
    )
    for workload, record in records.items():
        print(f"== {workload}  (fingerprint {record['fingerprint'][:12]})")
        for name, m in {**record["metrics"], **record["layers"]}.items():
            value = "null" if m["value"] is None else f"{m['value']:.6g}"
            note = record["reasons"].get(name, "")
            print(f"  {name:36s} {value:>14s} {m['unit']:8s} {note}")
    return 0


def runs_of(path: str) -> dict[str, list[dict]]:
    """Result records by workload, from a ``results.json``, a
    ``result-<workload>.json``, a file of ``runs`` (as the baselines), or
    every ``result-*.json`` under a directory, one run each."""
    p = Path(path)
    files = sorted(p.rglob("result-*.json")) if p.is_dir() else [p]
    runs: dict[str, list[dict]] = {}
    for f in files:
        data = json.loads(f.read_text())
        records = data.get("runs") or list(data.get("workloads", {}).values()) or [data]
        for record in records:
            runs.setdefault(record["workload"], []).append(record)
    return runs


def pooled(stats: list[dict]) -> dict:
    """One run: the median and quartiles of its windows.  Several: those of
    the runs' medians, which include the host's drift between runs."""
    return stats[0] if len(stats) == 1 else spread([s["value"] for s in stats])


def verdict(a: dict, b: dict, better: str, bound: float) -> tuple[float, str]:
    """(B/A, verdict).  Worsening is a share of A's median, taken between the
    medians and between every pairing of A's and B's quartiles.  A change
    counts only beyond the bound, either way: the quartiles of one run's
    windows do not see the drift between runs, and the bound is what the
    benchmark allows for it."""
    sign = 1.0 if better == "lower" else -1.0
    pairs = [(a["value"], b["value"]), *itertools.product((a["q1"], a["q3"]), (b["q1"], b["q3"]))]
    worse = [sign * (y - x) / a["value"] for x, y in pairs]
    if min(worse) > bound:
        label = "worse"
    elif max(worse) < -bound:
        label = "better"
    elif max(worse) <= bound:
        label = "within bound"
    else:
        label = "unresolved"
    return b["value"] / a["value"], label


def compare(path_a: str, path_b: str) -> int:
    spec = load_spec()
    a_runs, b_runs = runs_of(path_a), runs_of(path_b)
    for workload in sorted(set(a_runs) & set(b_runs), key=WORKLOADS.index):
        a, b = a_runs[workload], b_runs[workload]
        inputs = [sorted(r["fingerprint"] for r in side) for side in (a, b)]
        if inputs[0] != inputs[1]:
            print(f"{workload}: corpus fingerprints differ (other seeds or shapes); "
                  "refusing to compare", file=sys.stderr)
            return 2
        lengths = {(r["seconds"], r["quick"]) for r in a + b}
        if len(lengths) > 1:
            print(f"{workload}: runs differ in --seconds/--quick {sorted(lengths)}; "
                  "refusing to compare", file=sys.stderr)
            return 2
        print(f"== {workload}  ({len(a)} vs {len(b)} runs)")
        print(f"  {'metric':32s} {'A median [q1, q3]':>28s} {'B median [q1, q3]':>28s} "
              f"{'B/A':>7s}  verdict (bound)")
        for m in spec["end_to_end"]:
            ma, mb = (pooled([r["metrics"][m["name"]] for r in side]) for side in (a, b))
            r, label = verdict(ma, mb, m["better"], m["bound"])
            fmt = lambda s: f"{s['value']:.4g} [{s['q1']:.4g}, {s['q3']:.4g}]"  # noqa: E731
            print(f"  {m['name']:32s} {fmt(ma):>28s} {fmt(mb):>28s} {r:7.3f}  "
                  f"{label} ({m['bound']:.0%}, {m['unit']})")
        for m in spec["per_layer"]:
            va, vb = (
                [v for r in side if (v := r["layers"].get(m["name"], {}).get("value")) is not None]
                for side in (a, b)
            )
            if va and vb and statistics.median(va):
                ma, mb = statistics.median(va), statistics.median(vb)
                print(f"  {m['name']:32s} {ma:>28.4g} {mb:>28.4g} {mb / ma:7.3f}  "
                      f"per-layer, no bound ({m['unit']})")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=HERE / "out")
    parser.add_argument("--quick", action="store_true", help="~2 s per workload smoke run")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    check_sources()
    from corpus import DEFAULT_SEED

    seed = DEFAULT_SEED if args.seed is None else args.seed
    seconds = args.seconds or (QUICK_SECONDS if args.quick else load_spec()["run_seconds"])
    if args.workload is None:
        return run_all(seed, seconds, args.quick, args.out)
    from campaign import CampaignMismatch
    from serving import GateError

    try:
        record = run_workload(args.workload, seed, seconds, bool(args.trace), args.quick, args.out)
    except (GateError, CampaignMismatch) as exc:
        print(f"run.py: correctness gate failed: {exc}", file=sys.stderr)
        return 1
    print(result_line(record, bool(args.trace)))
    return 0


if __name__ == "__main__":
    # A terminated run still unwinds, so every server it started is stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    sys.exit(main())
