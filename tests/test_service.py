"""Live-server tests for the feasibility-query service.

A real ``--workers 0`` front end (one in-process shard) on an ephemeral
port, exercised through ``ServiceClient`` and raw sockets:
correctness-vs-direct-call equivalence, canonical-instance cache
behaviour, concurrent clients, structured error paths, HTTP edge
hardening, metrics, and the ``repro serve`` process lifecycle.
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
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.core.feasibility import feasibility_test
from repro.core.model import Platform, Task, TaskSet
from repro.core.partition import first_fit_partition
from repro.io_.serialize import (
    instance_digest,
    partition_result_to_dict,
    platform_to_dict,
    report_to_dict,
    taskset_to_dict,
)
from repro.loadgen.client import HttpClient
from repro.service import LRUCache, ServiceClient, ServiceError
from repro.workloads.builder import generate_taskset
from repro.workloads.platforms import geometric_platform


def _instance(seed: int, n: int = 12, stress: float = 0.9):
    rng = np.random.default_rng(seed)
    platform = geometric_platform(4, 8.0)
    taskset = generate_taskset(
        rng, n, stress * platform.total_speed, u_max=platform.fastest_speed
    )
    return taskset, platform


def _rejected_instance():
    """Overloaded by construction: 5 x utilization 0.9 on two unit machines
    exceeds even alpha=2 aggregate capacity, so every theorem test rejects."""
    taskset = TaskSet([Task(wcet=9, period=10) for _ in range(5)])
    platform = Platform.from_speeds([1.0, 1.0])
    return taskset, platform


@pytest.fixture(scope="module")
def base_url(live_server):
    return live_server.url


@pytest.fixture(scope="module")
def client(base_url):
    return ServiceClient(base_url, timeout=30.0)


def _cache_stats(client: ServiceClient) -> dict:
    """The in-process shard's verdict-cache counters."""
    (shard,) = client.metrics()["shards"]
    return shard["stats"]["cache"]


def _raw_post(base_url: str, path: str, body: bytes):
    request = urllib.request.Request(
        base_url + path,
        data=body,
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    try:
        with urllib.request.urlopen(request, timeout=10) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


class TestHealth:
    def test_healthz(self, client):
        health = client.health()
        assert health["status"] == "ok"
        assert health["version"] == repro.__version__
        assert health["uptime_seconds"] >= 0
        assert health["architecture"] == "in-process"
        assert health["workers"] == 0
        (shard,) = health["shards"]
        assert shard["state"] == "ok"
        assert shard["pid"] == os.getpid()  # the in-thread server's process
        assert _cache_stats(client)["capacity"] == 256


class TestEquivalence:
    """Acceptance: /v1/test responses byte-identical to direct calls."""

    @pytest.mark.parametrize("scheduler", ["edf", "rms"])
    @pytest.mark.parametrize("adversary", ["partitioned", "any"])
    def test_all_theorems_match_direct_call(self, client, scheduler, adversary):
        for seed in range(5):
            taskset, platform = _instance(seed)
            direct = report_to_dict(
                feasibility_test(taskset, platform, scheduler, adversary)
            )
            response = client.test(taskset, platform, scheduler, adversary)
            assert response["report"] == direct

    def test_rejection_with_certificate_matches(self, client):
        taskset, platform = _rejected_instance()
        direct = report_to_dict(feasibility_test(taskset, platform))
        response = client.test(taskset, platform)
        assert not direct["accepted"]
        assert response["report"] == direct
        assert response["report"]["certificate"]["certifies"]

    def test_alpha_override_matches(self, client):
        taskset, platform = _instance(11, stress=1.05)
        direct = report_to_dict(
            feasibility_test(taskset, platform, alpha=1.0)
        )
        response = client.test(taskset, platform, alpha=1.0)
        assert response["report"] == direct

    def test_client_report_equals_direct_object(self, client):
        taskset, platform = _instance(3)
        assert client.test_report(taskset, platform) == feasibility_test(
            taskset, platform
        )


class TestCache:
    """Acceptance: repeated queries hit the cache, verdict unchanged."""

    def test_repeat_query_is_cached(self, client):
        taskset, platform = _instance(100)
        hits_before = _cache_stats(client)["hits"]
        first = client.test(taskset, platform)
        second = client.test(taskset, platform)
        assert first["cached"] is False
        assert second["cached"] is True
        assert second["report"] == first["report"]
        assert second["digest"] == first["digest"]
        assert _cache_stats(client)["hits"] > hits_before

    def test_task_permutation_hits_cache_with_correct_indices(self, client):
        taskset, platform = _instance(101)
        first = client.test(taskset, platform)
        permuted = taskset.subset(list(range(len(taskset)))[::-1])
        response = client.test(permuted, platform)
        assert response["digest"] == first["digest"]
        assert response["cached"] is True
        # the remapped response equals a direct call on the permuted order
        assert response["report"] == report_to_dict(
            feasibility_test(permuted, platform)
        )

    def test_machine_permutation_and_names_hit_cache(self, client):
        taskset, platform = _instance(102)
        first = client.test(taskset, platform)
        renamed = Platform.from_speeds(list(platform.speeds)[::-1])
        response = client.test(taskset, renamed)
        assert response["digest"] == first["digest"]
        assert response["cached"] is True
        assert response["report"] == first["report"]

    def test_default_and_explicit_theorem_alpha_share_entry(self, client):
        taskset, platform = _instance(103)
        first = client.test(taskset, platform, "edf", "partitioned")
        second = client.test(taskset, platform, "edf", "partitioned", alpha=2.0)
        assert second["digest"] == first["digest"]
        assert second["cached"] is True

    def test_different_query_different_entry(self, client):
        taskset, platform = _instance(104)
        edf = client.test(taskset, platform, "edf")
        rms = client.test(taskset, platform, "rms")
        assert edf["digest"] != rms["digest"]
        assert rms["cached"] is False


class TestPartition:
    def test_matches_direct_first_fit(self, client):
        taskset, platform = _instance(7)
        for test, alpha in (("edf", 1.0), ("edf", 2.0), ("rms-ll", 2.5)):
            direct = partition_result_to_dict(
                first_fit_partition(taskset, platform, test, alpha=alpha)
            )
            response = client.partition(taskset, platform, test, alpha=alpha)
            assert response["result"] == direct

    def test_constrained_deadlines_allowed(self, client):
        taskset = TaskSet(
            [Task(wcet=1, period=10, deadline=4), Task(wcet=2, period=8)]
        )
        platform = Platform.from_speeds([1.0, 2.0])
        direct = partition_result_to_dict(
            first_fit_partition(taskset, platform, "edf-dbf", alpha=1.0)
        )
        response = client.partition(taskset, platform, "edf-dbf")
        assert response["result"] == direct

    def test_partition_cached_on_repeat(self, client):
        taskset, platform = _instance(8)
        first = client.partition(taskset, platform, "edf", alpha=1.5)
        second = client.partition(taskset, platform, "edf", alpha=1.5)
        assert first["cached"] is False
        assert second["cached"] is True
        assert second["result"] == first["result"]


class TestBatch:
    def test_batch_matches_individual_direct_calls(self, client):
        pairs = [_instance(200 + k) for k in range(6)]
        response = client.batch(pairs)
        assert response["count"] == 6
        assert len(response["results"]) == 6
        for (taskset, platform), item in zip(pairs, response["results"]):
            assert item["report"] == report_to_dict(
                feasibility_test(taskset, platform)
            )
            assert item["digest"] == instance_digest(
                taskset,
                platform,
                query={
                    "kind": "test",
                    "scheduler": "edf",
                    "adversary": "partitioned",
                    "alpha": 2.0,
                },
            )

    def test_batch_reuses_cache(self, client):
        pairs = [_instance(300 + k) for k in range(3)]
        first = client.batch(pairs)
        second = client.batch(pairs)
        assert first["cached"] == 0
        assert second["cached"] == 3
        assert [r["report"] for r in second["results"]] == [
            r["report"] for r in first["results"]
        ]

    def test_batch_deduplicates_permutations(self, client):
        taskset, platform = _instance(400)
        permuted = taskset.subset(list(range(len(taskset)))[::-1])
        response = client.batch([(taskset, platform), (permuted, platform)])
        assert response["results"][0]["digest"] == response["results"][1]["digest"]
        assert response["results"][1]["report"] == report_to_dict(
            feasibility_test(permuted, platform)
        )


class TestConcurrency:
    """Acceptance: 8 concurrent clients on /v1/batch, no corruption."""

    def test_eight_concurrent_batch_clients(self, base_url):
        n_clients = 8
        shared = [_instance(500 + k) for k in range(3)]
        per_client = {
            c: shared + [_instance(600 + 10 * c + k) for k in range(3)]
            for c in range(n_clients)
        }
        expected = {
            c: [
                report_to_dict(feasibility_test(ts, pf))
                for ts, pf in pairs
            ]
            for c, pairs in per_client.items()
        }

        def hammer(c: int):
            local_client = ServiceClient(base_url, timeout=60.0)
            out = []
            for _ in range(3):
                response = local_client.batch(per_client[c])
                out.append([item["report"] for item in response["results"]])
            return out

        with ThreadPoolExecutor(max_workers=n_clients) as pool:
            results = list(pool.map(hammer, range(n_clients)))
        for c, rounds in enumerate(results):
            for reports in rounds:
                assert reports == expected[c]


class TestKeepAlive:
    def test_sequential_requests_on_one_socket_are_not_stalled(self, live_server):
        """Nagle plus the client's delayed ACK held each response ~40 ms."""
        host, port = live_server.host, live_server.port
        taskset, platform = _instance(21, n=4)
        body = json.dumps({
            "taskset": taskset_to_dict(taskset),
            "platform": platform_to_dict(platform),
        }).encode()
        with HttpClient(host, port) as http:
            assert http.request("POST", "/v1/test", body)[0] == 200
            t0 = time.perf_counter()
            for _ in range(50):
                assert http.request("POST", "/v1/test", body)[0] == 200
            elapsed = time.perf_counter() - t0
        assert elapsed < 1.0, f"50 keep-alive cache hits took {elapsed:.2f} s"


class TestErrors:
    def test_malformed_json(self, base_url):
        status, body = _raw_post(base_url, "/v1/test", b"{not json")
        assert status == 400
        assert "not valid JSON" in body["error"]["message"]

    def test_non_object_body(self, base_url):
        status, body = _raw_post(base_url, "/v1/test", b"[1, 2, 3]")
        assert status == 400
        assert body["error"]["fields"]

    def test_field_level_errors(self, base_url):
        payload = {
            "taskset": {"tasks": [{"wcet": -1, "period": 5}, {"wcet": 1}]},
            "platform": {"machines": [{"speed": 0}]},
            "scheduler": "fifo",
        }
        status, body = _raw_post(
            base_url, "/v1/test", json.dumps(payload).encode()
        )
        assert status == 400
        fields = {e["field"] for e in body["error"]["fields"]}
        assert "taskset.tasks[0].wcet" in fields
        assert "taskset.tasks[1].period" in fields
        assert "platform.machines[0].speed" in fields
        assert "scheduler" in fields

    def test_constrained_deadline_rejected_on_test(self, base_url):
        payload = {
            "taskset": {"tasks": [{"wcet": 1, "period": 10, "deadline": 4}]},
            "platform": {"machines": [{"speed": 1.0}]},
        }
        status, body = _raw_post(
            base_url, "/v1/test", json.dumps(payload).encode()
        )
        assert status == 400
        assert any(
            "implicit deadlines" in e["message"] for e in body["error"]["fields"]
        )

    def test_batch_item_errors_are_indexed(self, base_url):
        good = {
            "taskset": {"tasks": [{"wcet": 1, "period": 10}]},
            "platform": {"machines": [{"speed": 1.0}]},
        }
        bad = {
            "taskset": {"tasks": [{"wcet": "x", "period": 10}]},
            "platform": {"machines": [{"speed": 1.0}]},
        }
        status, body = _raw_post(
            base_url,
            "/v1/batch",
            json.dumps({"instances": [good, bad]}).encode(),
        )
        assert status == 400
        fields = {e["field"] for e in body["error"]["fields"]}
        assert "instances[1].taskset.tasks[0].wcet" in fields

    def test_unknown_endpoint_404(self, base_url):
        status, body = _raw_post(base_url, "/v1/nope", b"{}")
        assert status == 404
        assert "unknown endpoint" in body["error"]["message"]

    def test_wrong_method_405(self, base_url):
        with pytest.raises(urllib.error.HTTPError) as exc_info:
            urllib.request.urlopen(base_url + "/v1/test", timeout=10)
        assert exc_info.value.code == 405

    def test_bad_metrics_format_400(self, client):
        with pytest.raises(ServiceError) as exc_info:
            client.metrics("xml")
        assert exc_info.value.status == 400

    def test_client_error_carries_fields(self, base_url):
        bad_client = ServiceClient(base_url)
        taskset, platform = _instance(2)
        with pytest.raises(ServiceError) as exc_info:
            bad_client.test(taskset, platform, scheduler="bogus")
        assert exc_info.value.status == 400
        assert any(e["field"] == "scheduler" for e in exc_info.value.fields)


def _raw_exchange(live_server, request: bytes) -> bytes:
    """Send raw bytes on a fresh connection; read until the server closes."""
    with socket.create_connection((live_server.host, live_server.port), timeout=10) as sock:
        sock.sendall(request)
        chunks = []
        while chunk := sock.recv(65536):
            chunks.append(chunk)
    return b"".join(chunks)


def _split_response(raw: bytes) -> tuple[int, dict[str, str], bytes]:
    head, _, body = raw.partition(b"\r\n\r\n")
    status_line, *header_lines = head.decode("latin-1").split("\r\n")
    headers = {}
    for line in header_lines:
        key, _, value = line.partition(":")
        headers[key.strip().lower()] = value.strip()
    return int(status_line.split(" ")[1]), headers, body


class TestHttpEdge:
    """Malformed framing gets a JSON error and a closed connection, never a
    500 or a silent drop, and the server keeps serving afterwards."""

    def _assert_still_serving(self, live_server):
        with HttpClient(live_server.host, live_server.port) as http:
            assert http.request("GET", "/healthz")[0] == 200

    def test_negative_content_length_is_400(self, live_server):
        raw = _raw_exchange(
            live_server,
            b"POST /v1/test HTTP/1.1\r\nHost: x\r\nContent-Length: -5\r\n\r\n",
        )
        status, headers, body = _split_response(raw)
        assert status == 400
        assert headers["connection"] == "close"
        assert "non-negative" in json.loads(body)["error"]["message"]
        self._assert_still_serving(live_server)

    def test_overlong_header_line_is_431(self, live_server):
        raw = _raw_exchange(
            live_server,
            b"GET /healthz HTTP/1.1\r\nX-Long: " + b"a" * 70_000 + b"\r\n\r\n",
        )
        status, headers, body = _split_response(raw)
        assert status == 431
        assert headers["connection"] == "close"
        assert headers["content-type"].startswith("application/json")
        assert "too long" in json.loads(body)["error"]["message"]
        self._assert_still_serving(live_server)

    def test_overlong_request_line_is_431(self, live_server):
        raw = _raw_exchange(
            live_server, b"GET /" + b"a" * 70_000 + b" HTTP/1.1\r\n\r\n"
        )
        assert _split_response(raw)[0] == 431
        self._assert_still_serving(live_server)


class TestConstrainedValidation:
    """Deadline-axis validation (constrained-family satellites): the
    tolerant implicit check snaps float-round-trip deadlines, and the
    rejection body for constrained submissions is byte-identical no
    matter which evaluation backend the server runs."""

    def test_float_roundtrip_deadline_snaps_to_implicit(self, base_url):
        # 0.1 + 0.2 != 0.3 exactly; a client that computed the period and
        # serialized the deadline separately still submitted an implicit
        # instance, so validation must snap (not reject, not crash later
        # in a theorem test that requires Task.is_implicit)
        period = 0.1 + 0.2
        payload = {
            "taskset": {
                "tasks": [{"wcet": 0.1, "period": period, "deadline": 0.3}]
            },
            "platform": {"machines": [{"speed": 1.0}]},
        }
        status, body = _raw_post(
            base_url, "/v1/test", json.dumps(payload).encode()
        )
        assert status == 200
        direct = feasibility_test(
            TaskSet([Task(wcet=0.1, period=period)]),
            Platform.from_speeds([1.0]),
        )
        assert body["report"] == report_to_dict(direct)

    def test_truly_constrained_deadline_still_rejected(self, base_url):
        # the snap is a tolerance, not a loophole: a deadline well below
        # the period keeps its field-level error
        payload = {
            "taskset": {
                "tasks": [{"wcet": 0.1, "period": 0.3, "deadline": 0.15}]
            },
            "platform": {"machines": [{"speed": 1.0}]},
        }
        status, body = _raw_post(
            base_url, "/v1/test", json.dumps(payload).encode()
        )
        assert status == 400
        assert any(
            e["field"] == "taskset.tasks[0].deadline"
            for e in body["error"]["fields"]
        )

    def test_batch_rejection_is_backend_identical(self, base_url, start_server):
        # a constrained instance inside /v1/batch must fail up front in
        # validation with the same indexed field errors on every backend
        # — never as a mid-batch ValueError from a kernel
        payload = json.dumps(
            {
                "instances": [
                    {
                        "taskset": {"tasks": [{"wcet": 1, "period": 10}]},
                        "platform": {"machines": [{"speed": 1.0}]},
                    },
                    {
                        "taskset": {
                            "tasks": [{"wcet": 1, "period": 10, "deadline": 4}]
                        },
                        "platform": {"machines": [{"speed": 1.0}]},
                    },
                ]
            }
        ).encode()
        scalar_status, scalar_body = _raw_post(base_url, "/v1/batch", payload)
        assert scalar_status == 400
        fields = {e["field"] for e in scalar_body["error"]["fields"]}
        assert "instances[1].taskset.tasks[0].deadline" in fields

        srv = start_server(cache_size=16, backend="numpy")
        status, body = _raw_post(srv.url, "/v1/batch", payload)
        assert status == scalar_status
        assert body == scalar_body


class TestMetrics:
    def test_json_snapshot_structure(self, client):
        client.health()  # ensure at least one observed request
        metrics = client.metrics()
        assert set(metrics) >= {"frontend", "shards", "workers", "uptime_seconds"}
        assert metrics["workers"] == 0
        frontend = metrics["frontend"]
        assert "/healthz" in frontend["requests"]
        assert frontend["requests"]["/healthz"]["200"] >= 1
        hist = frontend["latency"]["/healthz"]
        assert hist["count"] >= 1
        assert hist["buckets"]["+Inf"] == hist["count"]
        cache = _cache_stats(client)
        assert 0.0 <= cache["hit_ratio"] <= 1.0
        assert cache["hits"] + cache["misses"] > 0

    def test_latency_counts_match_request_counts(self, client):
        metrics = client.metrics()["frontend"]
        for endpoint, by_status in metrics["requests"].items():
            assert metrics["latency"][endpoint]["count"] == sum(
                by_status.values()
            )

    def test_prometheus_rendering(self, client):
        text = client.metrics("prometheus")
        assert isinstance(text, str)
        assert "# TYPE repro_requests_total counter" in text
        assert re.search(
            r'repro_requests_total\{endpoint="/healthz",status="200"\} \d+', text
        )
        assert 'repro_request_latency_seconds_bucket{endpoint="/healthz",le="+Inf"}' in text
        assert re.search(r'repro_shard_cache_hits_total\{shard="0"\} \d+', text)
        assert re.search(r'repro_shard_cache_misses_total\{shard="0"\} \d+', text)
        assert 'repro_shard_up{shard="0"} 1' in text

    def test_error_requests_are_counted(self, client, base_url):
        def count() -> int:
            requests = client.metrics()["frontend"]["requests"]
            return requests.get("/v1/test", {}).get("400", 0)

        before = count()
        _raw_post(base_url, "/v1/test", b"{not json")
        after = count()
        assert after == before + 1


class TestServeProcess:
    def test_sigterm_drains_and_exits_zero(self):
        src_dir = Path(repro.__file__).resolve().parent.parent
        env = dict(os.environ)
        env["PYTHONPATH"] = str(src_dir) + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0"],
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        )
        try:
            banner = proc.stderr.readline()
            match = re.search(r"http://([\d.]+):(\d+)", banner)
            assert match, f"no listening banner, got: {banner!r}"
            url = f"http://{match.group(1)}:{match.group(2)}"
            with urllib.request.urlopen(url + "/healthz", timeout=10) as resp:
                health = json.loads(resp.read())
            assert health["status"] == "ok"
            assert health["architecture"] == "in-process"
            assert health["shards"][0]["pid"] == proc.pid
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=20) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)


class TestLRUCacheUnit:
    def test_eviction_is_least_recently_used(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refresh 'a'
        cache.put("c", 3)  # evicts 'b'
        assert "b" not in cache
        assert cache.get("a") == 1
        assert cache.get("c") == 3
        stats = cache.stats()
        assert stats.evictions == 1
        assert stats.size == 2

    def test_hit_ratio_counters(self):
        cache = LRUCache(4)
        cache.put("k", "v")
        assert cache.get("k") == "v"
        assert cache.get("missing") is None
        stats = cache.stats()
        assert stats.hits == 1
        assert stats.misses == 1
        assert stats.hit_ratio == 0.5

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            LRUCache(0)

    def test_clear_keeps_counters(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.get("a")
        cache.clear()
        assert len(cache) == 0
        assert cache.stats().hits == 1

    def test_concurrent_access_is_safe(self):
        cache = LRUCache(64)

        def worker(base: int):
            for i in range(500):
                cache.put((base, i % 80), i)
                cache.get((base, (i * 7) % 80))

        threads = [threading.Thread(target=worker, args=(b,)) for b in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        stats = cache.stats()
        assert stats.size <= 64
        assert stats.hits + stats.misses == 8 * 500
