"""Tests for the sharded multi-process service front end.

Three layers:

* unit — digest→shard routing, the frame protocol over a real
  socketpair, and the per-shard Prometheus rendering;
* cross-process determinism — the sharded server's ``/v1/test``,
  ``/v1/partition``, and ``/v1/batch`` responses must be byte-identical
  to the ``--workers 0`` in-process server for every worker count
  (1, 2, 4) and evaluation backend;
* robustness — a worker killed mid-request (chaos fault injection) is
  respawned with an empty cache, the poisoned request is replayed once
  before surfacing a 503, and a SIGTERM drain under load finishes the
  in-flight request before exiting 0 at every worker count.
"""

from __future__ import annotations

import json
import os
import re
import signal
import socket
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.io_.serialize import SHARD_KEY_HEX_DIGITS, shard_for_digest
from repro.service.frontend import ShardedFrontend
from repro.service.metrics import render_shard_prometheus
from repro.service.protocol import (
    MAX_FRAME_BYTES,
    frame_bytes,
    recv_frame,
    send_frame,
)
from repro.service.shard import CHAOS_EXIT_NAME, CHAOS_SLEEP_PREFIX
from repro.workloads.builder import generate_taskset
from repro.workloads.platforms import geometric_platform


def _request_body(seed: int, n: int = 8, scheduler: str = "edf",
                  adversary: str = "partitioned") -> dict:
    rng = np.random.default_rng(seed)
    platform = geometric_platform(3, 4.0)
    taskset = generate_taskset(
        rng, n, 0.8 * platform.total_speed, u_max=platform.fastest_speed
    )
    return {
        "taskset": {
            "tasks": [
                {"wcet": t.wcet, "period": t.period, "name": t.name}
                for t in taskset
            ]
        },
        "platform": {
            "machines": [{"speed": m.speed, "name": m.name} for m in platform]
        },
        "scheduler": scheduler,
        "adversary": adversary,
    }


def _post(url: str, body: dict | bytes) -> tuple[int, bytes]:
    data = body if isinstance(body, bytes) else json.dumps(body).encode()
    request = urllib.request.Request(
        url, data=data, headers={"Content-Type": "application/json"},
        method="POST",
    )
    try:
        with urllib.request.urlopen(request, timeout=60) as resp:
            return resp.status, resp.read()
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read()


def _get(url: str) -> tuple[int, bytes]:
    try:
        with urllib.request.urlopen(url, timeout=30) as resp:
            return resp.status, resp.read()
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read()


class _ShardedProc:
    """A ``repro serve --workers N`` subprocess on an ephemeral port."""

    def __init__(self, workers: int, *extra: str):
        src_dir = Path(repro.__file__).resolve().parent.parent
        env = dict(os.environ)
        env["PYTHONPATH"] = str(src_dir) + os.pathsep + env.get("PYTHONPATH", "")
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve", "--port", "0",
                "--workers", str(workers), *extra,
            ],
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        )
        assert self.proc.stderr is not None
        banner = self.proc.stderr.readline()
        match = re.search(r"http://([\d.]+):(\d+)", banner)
        assert match, f"no listening banner, got: {banner!r}"
        self.url = f"http://{match.group(1)}:{match.group(2)}"

    def terminate(self, expect_code: int = 0) -> None:
        self.proc.send_signal(signal.SIGTERM)
        assert self.proc.wait(timeout=30) == expect_code

    def __enter__(self) -> "_ShardedProc":
        return self

    def __exit__(self, *exc: object) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait(timeout=10)
        if self.proc.stderr is not None:
            self.proc.stderr.close()


class TestShardRouting:
    def test_routes_are_stable_and_in_range(self):
        digests = [f"{k:064x}" for k in range(50)]
        for shards in (1, 2, 4, 7):
            routes = [shard_for_digest(d, shards) for d in digests]
            assert all(0 <= r < shards for r in routes)
            assert routes == [shard_for_digest(d, shards) for d in digests]

    def test_one_shard_takes_everything(self):
        assert shard_for_digest("ff" * 32, 1) == 0

    def test_only_the_prefix_matters(self):
        prefix = "ab" * (SHARD_KEY_HEX_DIGITS // 2)
        a = prefix + "0" * (64 - SHARD_KEY_HEX_DIGITS)
        b = prefix + "f" * (64 - SHARD_KEY_HEX_DIGITS)
        for shards in (2, 4, 8):
            assert shard_for_digest(a, shards) == shard_for_digest(b, shards)

    def test_rejects_nonpositive_shard_counts(self):
        with pytest.raises(ValueError):
            shard_for_digest("0" * 64, 0)

    def test_spreads_uniform_digests(self):
        rng = np.random.default_rng(7)
        digests = [
            "".join(rng.choice(list("0123456789abcdef"), size=64))
            for _ in range(400)
        ]
        counts = [0, 0, 0, 0]
        for d in digests:
            counts[shard_for_digest(d, 4)] += 1
        assert min(counts) > 50  # no shard starved


class TestFrameProtocol:
    def test_roundtrip_over_socketpair(self):
        a, b = socket.socketpair()
        try:
            message = ("test", 7, {"payload": [1.5, "x"], "nested": (1, 2)})
            send_frame(a, message)
            assert recv_frame(b) == message
        finally:
            a.close()
            b.close()

    def test_clean_eof_returns_none(self):
        a, b = socket.socketpair()
        a.close()
        try:
            assert recv_frame(b) is None
        finally:
            b.close()

    def test_eof_mid_frame_raises(self):
        a, b = socket.socketpair()
        try:
            blob = frame_bytes(("op", 0, None))
            a.sendall(blob[: len(blob) - 2])
            a.close()
            with pytest.raises(ConnectionError):
                recv_frame(b)
        finally:
            b.close()

    def test_oversized_length_prefix_rejected(self):
        a, b = socket.socketpair()
        try:
            a.sendall((MAX_FRAME_BYTES + 1).to_bytes(8, "big"))
            with pytest.raises(ConnectionError):
                recv_frame(b)
        finally:
            a.close()
            b.close()


class TestShardPrometheus:
    def test_renders_live_and_dead_shards(self):
        snapshots = [
            {
                "shard": 0,
                "state": "ok",
                "restarts": 1,
                "queue_depth": 3,
                "stats": {
                    "requests": {"test": 10, "batch": 2},
                    "items": 42,
                    "cache": {"hits": 30, "misses": 12, "evictions": 4,
                              "size": 8},
                    "backend_tests": {"scalar": 12},
                },
            },
            # A dead shard answers no stats, but liveness/restarts/queue
            # depth come from the front end's view and must still render.
            {
                "shard": 1,
                "state": "restarting",
                "restarts": 2,
                "queue_depth": 5,
                "stats": None,
            },
        ]
        text = render_shard_prometheus(snapshots)
        assert 'repro_shard_up{shard="0"} 1' in text
        assert 'repro_shard_up{shard="1"} 0' in text
        assert 'repro_shard_restarts_total{shard="1"} 2' in text
        assert 'repro_shard_queue_depth{shard="1"} 5' in text
        assert 'repro_shard_requests_total{shard="0",op="test"} 10' in text
        assert 'repro_shard_cache_hits_total{shard="0"} 30' in text
        assert 'repro_shard_backend_tests_total{shard="0",backend="scalar"} 12' in text
        # No stats series for the dead shard.
        assert 'repro_shard_cache_hits_total{shard="1"}' not in text

    def test_empty_snapshot_list_renders_empty(self):
        assert render_shard_prometheus([]) == ""


class TestHealthzAggregation:
    def test_degraded_when_any_worker_not_ok(self):
        frontend = ShardedFrontend(workers=2)
        # Handles that never started report state "starting" — anything
        # other than "ok" must flip the aggregate to degraded.
        from repro.service.frontend import _WorkerHandle

        ok = _WorkerHandle.__new__(_WorkerHandle)
        ok.frontend, ok.index, ok.state, ok.restarts = frontend, 0, "ok", 0
        ok.proc, ok.pending = None, {}
        bad = _WorkerHandle.__new__(_WorkerHandle)
        bad.frontend, bad.index, bad.state, bad.restarts = frontend, 1, "restarting", 1
        bad.proc, bad.pending = None, {}
        frontend.handles = [ok, bad]
        health = frontend.handle_healthz()
        assert health["status"] == "degraded"
        assert [s["state"] for s in health["shards"]] == ["ok", "restarting"]
        bad.state = "ok"
        assert frontend.handle_healthz()["status"] == "ok"


@pytest.fixture()
def reference(start_server):
    """Fresh ``--workers 0`` reference server per test.

    Function-scoped on purpose: the byte-identity tests compare cold
    verdicts (``cached: false``) on both sides, so the reference cache
    must not stay warm across parametrized runs.
    """
    return start_server(cache_size=4096).url


class TestCrossProcessDeterminism:
    """The acceptance property: bytes must not depend on the topology."""

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_test_and_partition_bytes_match_reference(self, reference, workers):
        bodies = [_request_body(seed) for seed in range(6)]
        partition = {
            "taskset": bodies[0]["taskset"],
            "platform": bodies[0]["platform"],
            "test": "edf",
            "alpha": 2.0,
        }
        with _ShardedProc(workers) as sharded:
            for body in bodies:
                expected = _post(reference + "/v1/test", body)
                got = _post(sharded.url + "/v1/test", body)
                assert got == expected
            assert (
                _post(sharded.url + "/v1/partition", partition)
                == _post(reference + "/v1/partition", partition)
            )
            sharded.terminate()

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_batch_bytes_match_reference(self, reference, workers):
        instances = [
            _request_body(seed, scheduler=sch, adversary=adv)
            for seed in range(3)
            for sch in ("edf", "rms")
            for adv in ("partitioned", "any")
        ]
        # Duplicates exercise the dedup discipline across the shard split.
        batch = {"instances": instances + instances[:4]}
        expected = _post(reference + "/v1/batch", batch)
        assert expected[0] == 200
        with _ShardedProc(workers) as sharded:
            assert _post(sharded.url + "/v1/batch", batch) == expected
            sharded.terminate()

    @pytest.mark.parametrize("backend", ["kernel", "numpy"])
    def test_backends_agree_on_batch_verdicts(self, reference, backend):
        """Kernel-backend shards return the same verdicts (modulo the
        documented ``backend`` provenance key) as the scalar reference."""
        if backend == "numpy":
            pytest.importorskip("numpy")
        batch = {
            "instances": [
                _request_body(seed, scheduler=sch)
                for seed in range(3)
                for sch in ("edf", "rms")
            ]
        }
        status, raw = _post(reference + "/v1/batch", batch)
        assert status == 200
        scalar = json.loads(raw)
        with _ShardedProc(2, "--backend", backend) as sharded:
            status, raw = _post(sharded.url + "/v1/batch", batch)
            assert status == 200
            fast = json.loads(raw)
            sharded.terminate()
        assert len(fast["results"]) == len(scalar["results"])
        for got, want in zip(fast["results"], scalar["results"]):
            assert got["digest"] == want["digest"]
            report = dict(got["report"])
            assert report.pop("backend", None) == backend
            assert report == want["report"]

    def test_error_paths_match_reference(self, reference):
        with _ShardedProc(2) as sharded:
            for path, body in (
                ("/v1/test", {"bogus": True}),
                ("/nowhere", {"x": 1}),
            ):
                assert (
                    _post(sharded.url + path, body)
                    == _post(reference + path, body)
                )
            sharded.terminate()

    def test_same_instance_lands_on_same_shard_cache(self):
        body = _request_body(99)
        with _ShardedProc(4) as sharded:
            first = json.loads(_post(sharded.url + "/v1/test", body)[1])
            second = json.loads(_post(sharded.url + "/v1/test", body)[1])
            assert first["cached"] is False
            assert second["cached"] is True
            assert second["report"] == first["report"]
            sharded.terminate()


class TestWorkerCrashRobustness:
    def test_poisoned_request_gets_503_after_one_replay(self):
        poison = _request_body(1)
        poison["taskset"]["tasks"][0]["name"] = CHAOS_EXIT_NAME
        good = _request_body(2)
        with _ShardedProc(2, "--chaos") as sharded:
            status, raw = _post(sharded.url + "/v1/test", good)
            assert status == 200
            status, raw = _post(sharded.url + "/v1/test", poison)
            assert status == 503
            assert "unavailable" in json.loads(raw)["error"]["message"]
            # The shard died twice (original + one replay) and respawned
            # both times; the pool must be serving again.
            status, raw = _post(sharded.url + "/v1/test", good)
            assert status == 200
            health = json.loads(_get(sharded.url + "/healthz")[1])
            assert health["status"] == "ok"
            assert sum(s["restarts"] for s in health["shards"]) == 2
            text = _get(sharded.url + "/metrics?format=prometheus")[1].decode()
            assert re.search(r'repro_shard_restarts_total\{shard="\d"\} 2', text)
            sharded.terminate()

    def test_respawned_worker_starts_with_empty_cache(self):
        body = _request_body(3)
        poison = _request_body(4)
        poison["taskset"]["tasks"][0]["name"] = CHAOS_EXIT_NAME
        with _ShardedProc(1, "--chaos") as sharded:
            first = json.loads(_post(sharded.url + "/v1/test", body)[1])
            assert first["cached"] is False
            assert json.loads(_post(sharded.url + "/v1/test", body)[1])["cached"]
            assert _post(sharded.url + "/v1/test", poison)[0] == 503
            # Same instance again: the respawned worker's LRU is empty,
            # so this is a recomputation, not a hit — and the verdict
            # bytes must still match the pre-crash response.
            after = json.loads(_post(sharded.url + "/v1/test", body)[1])
            assert after["cached"] is False
            assert after["report"] == first["report"]
            sharded.terminate()

    def test_mid_batch_crash_fails_only_that_batch(self):
        instances = [_request_body(seed) for seed in range(4)]
        poisoned = [dict(b) for b in instances]
        poisoned[2] = json.loads(json.dumps(poisoned[2]))
        poisoned[2]["taskset"]["tasks"][0]["name"] = CHAOS_EXIT_NAME
        with _ShardedProc(2, "--chaos") as sharded:
            status, raw = _post(
                sharded.url + "/v1/batch", {"instances": poisoned}
            )
            assert status == 503
            # The pool recovered; the clean batch now answers fully.
            status, raw = _post(
                sharded.url + "/v1/batch", {"instances": instances}
            )
            assert status == 200
            assert json.loads(raw)["count"] == 4
            sharded.terminate()


class TestShardedDrain:
    @pytest.mark.parametrize("workers", [0, 2])
    def test_sigterm_finishes_inflight_request_then_exits_zero(self, workers):
        slow = _request_body(5)
        slow["taskset"]["tasks"][0]["name"] = f"{CHAOS_SLEEP_PREFIX}800__"
        with _ShardedProc(workers, "--chaos") as sharded:
            results: list[tuple[int, bytes]] = []

            def fire():
                results.append(_post(sharded.url + "/v1/test", slow))

            thread = threading.Thread(target=fire)
            thread.start()
            time.sleep(0.3)  # let the slow request reach the worker
            sharded.proc.send_signal(signal.SIGTERM)
            thread.join(timeout=30)
            assert sharded.proc.wait(timeout=30) == 0
            assert results and results[0][0] == 200

    def test_metrics_json_reports_shard_stats(self):
        with _ShardedProc(2) as sharded:
            _post(sharded.url + "/v1/test", _request_body(6))
            metrics = json.loads(_get(sharded.url + "/metrics")[1])
            assert metrics["workers"] == 2
            assert len(metrics["shards"]) == 2
            polled = [s["stats"] for s in metrics["shards"] if s["stats"]]
            assert polled, "no shard answered a stats frame"
            assert sum(s["items"] for s in polled) == 1
            sharded.terminate()
