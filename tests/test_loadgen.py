"""Tests for repro.loadgen (arrivals, profiles, harness, CLI) and its HttpClient.

The generator's whole value is replayability — every sequence it emits
(corpus bodies, access order, arrival times) must be a pure function of
the profile seed — so most tests here are determinism tests.  The
harness smoke tests drive a real in-thread ``--workers 0`` server, the
default topology the CI loadgen smoke job also exercises (next to the
sharded one).
"""

from __future__ import annotations

import json
import socket
import threading
import time

import numpy as np
import pytest

from repro.cli import main as cli_main
from repro.loadgen import (
    PROFILES,
    burst_arrivals,
    poisson_arrivals,
    run_load,
)
from repro.loadgen.harness import percentile
from repro.loadgen.profiles import (
    build_corpus,
    request_indices,
    stream_seed,
    zipf_draws,
)
from repro.service import HttpClient, HttpError
from repro.service.validation import parse_test_request


class TestArrivals:
    def test_poisson_is_deterministic(self):
        a = poisson_arrivals(np.random.default_rng(42), 100.0, 5.0)
        b = poisson_arrivals(np.random.default_rng(42), 100.0, 5.0)
        assert a == b

    def test_poisson_offsets_are_increasing_and_bounded(self):
        offsets = poisson_arrivals(np.random.default_rng(0), 50.0, 4.0)
        assert all(0.0 < t < 4.0 for t in offsets)
        assert offsets == sorted(offsets)

    def test_poisson_rate_is_roughly_honoured(self):
        # Mean count is rate*duration = 2000; 5 sigma ~ +/- 224.
        count = len(poisson_arrivals(np.random.default_rng(7), 200.0, 10.0))
        assert 1776 < count < 2224

    def test_poisson_rejects_bad_parameters(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            poisson_arrivals(rng, 0.0, 1.0)
        with pytest.raises(ValueError):
            poisson_arrivals(rng, 10.0, 0.0)

    def test_burst_is_deterministic_and_bounded(self):
        a = burst_arrivals(np.random.default_rng(3), 50.0, 200.0, 6.0)
        b = burst_arrivals(np.random.default_rng(3), 50.0, 200.0, 6.0)
        assert a == b
        assert all(0.0 < t < 6.0 for t in a)
        assert a == sorted(a)

    def test_burst_phases_actually_surge(self):
        offsets = burst_arrivals(
            np.random.default_rng(11), 40.0, 400.0, 20.0,
            period=2.0, burst_fraction=0.25,
        )
        in_burst = sum(1 for t in offsets if (t % 2.0) < 0.5)
        outside = len(offsets) - in_burst
        # Burst windows cover 25% of the time but a 10x rate: the burst
        # share of arrivals must dominate despite the smaller window.
        assert in_burst > 2 * outside

    def test_burst_rejects_inverted_rates(self):
        with pytest.raises(ValueError):
            burst_arrivals(np.random.default_rng(0), 100.0, 50.0, 1.0)


class TestPercentile:
    def test_nearest_rank_edges(self):
        samples = [1.0, 2.0, 3.0, 4.0]
        assert percentile(samples, 0) == 1.0
        assert percentile(samples, 50) == 2.0
        assert percentile(samples, 75) == 3.0
        assert percentile(samples, 76) == 4.0
        assert percentile(samples, 100) == 4.0

    def test_single_sample(self):
        assert percentile([5.0], 1) == 5.0
        assert percentile([5.0], 99) == 5.0

    def test_empty_is_zero(self):
        assert percentile([], 50) == 0.0

    def test_rejects_out_of_range_q(self):
        with pytest.raises(ValueError):
            percentile([1.0], 101)
        with pytest.raises(ValueError):
            percentile([1.0], -1)


class TestStreamSeed:
    def test_distinct_across_streams_and_clients(self):
        seeds = {
            stream_seed(20160516, stream, client)
            for stream in range(4)
            for client in range(16)
        }
        assert len(seeds) == 64

    def test_pure_integer_derivation(self):
        # Replayable across processes regardless of PYTHONHASHSEED.
        assert stream_seed(1, 2, 3) == stream_seed(1, 2, 3)
        assert isinstance(stream_seed(1, 2, 3), int)


class TestRequestIndices:
    def test_scan_clients_are_staggered(self):
        profile = PROFILES["closed-warm"]
        w, clients = profile.working_set, profile.concurrency
        starts = [request_indices(profile, c, 1)[0] for c in range(clients)]
        assert starts == [(c * w) // clients for c in range(clients)]
        assert len(set(starts)) == clients

    def test_scan_wraps_cyclically(self):
        profile = PROFILES["smoke"]
        w = profile.working_set
        seq = request_indices(profile, 0, 2 * w + 3)
        assert seq[:w] == list(range(w))
        assert seq[w] == 0
        assert seq[2 * w + 2] == 2

    def test_scan_union_covers_the_working_set(self):
        profile = PROFILES["closed-warm"]
        w = profile.working_set
        per_client = w // profile.concurrency
        touched = {
            k
            for c in range(profile.concurrency)
            for k in request_indices(profile, c, per_client)
        }
        assert touched == set(range(w))

    def test_zipf_is_deterministic_per_client(self):
        profile = PROFILES["zipf-skew"]
        assert (
            request_indices(profile, 3, 500)
            == request_indices(profile, 3, 500)
        )
        assert (
            request_indices(profile, 3, 500)
            != request_indices(profile, 4, 500)
        )

    def test_zipf_is_skewed_toward_low_ranks(self):
        draws = zipf_draws(np.random.default_rng(5), 256, 1.1, 4000)
        top = sum(1 for d in draws if d < 8)
        assert top > len(draws) // 4  # 8 of 256 keys take >25% of traffic
        assert all(0 <= d < 256 for d in draws)

    def test_unknown_access_pattern_raises(self):
        profile = PROFILES["smoke"].__class__(
            **{**PROFILES["smoke"].__dict__, "access": "lifo"}
        )
        with pytest.raises(ValueError):
            request_indices(profile, 0, 1)


class TestBuildCorpus:
    def test_bytes_are_deterministic(self):
        profile = PROFILES["smoke"]
        assert build_corpus(profile) == build_corpus(profile)

    def test_entries_are_distinct_valid_requests(self):
        profile = PROFILES["smoke"]
        corpus = build_corpus(profile)
        assert len(corpus) == profile.working_set
        assert len(set(corpus)) == profile.working_set
        for raw in corpus:
            query = parse_test_request(json.loads(raw))
            assert query.scheduler == profile.scheduler
            assert query.adversary == profile.adversary
            assert len(query.taskset) == profile.n_tasks
            assert len(query.platform) == profile.n_machines

    def test_seed_override_changes_the_corpus(self):
        profile = PROFILES["smoke"]
        assert build_corpus(profile) != build_corpus(
            profile.with_overrides(seed=1)
        )


class TestProfiles:
    def test_registry_is_consistent(self):
        for name, profile in PROFILES.items():
            assert profile.name == name
            assert profile.mode in ("closed", "open")
            assert profile.access in ("scan", "zipf")
            assert profile.working_set > 0

    def test_overrides_only_touch_requested_fields(self):
        base = PROFILES["closed-warm"]
        tweaked = base.with_overrides(duration=1.0)
        assert tweaked.duration == 1.0
        assert tweaked.working_set == base.working_set
        assert tweaked.seed == base.seed
        assert base.duration != 1.0  # frozen original untouched

    def test_as_dict_hides_open_loop_fields_for_closed(self):
        d = PROFILES["closed-hot"].as_dict()
        assert d["arrivals"] is None and d["rate"] is None
        d = PROFILES["open-poisson"].as_dict()
        assert d["arrivals"] == "poisson" and d["rate"] == 200.0


class TestHttpClient:
    def test_keep_alive_get_and_post(self, live_server):
        host, port = live_server.host, live_server.port
        corpus = build_corpus(PROFILES["smoke"])
        with HttpClient(host, port) as http:
            status, body = http.request("GET", "/healthz")
            assert status == 200
            assert json.loads(body)["status"] == "ok"
            status, body = http.request("POST", "/v1/test", corpus[0])
            assert status == 200
            # Same socket, next request still works (keep-alive).
            status, _ = http.request("POST", "/v1/test", corpus[0])
            assert status == 200

    def test_error_statuses_are_returned_not_raised(self, live_server):
        host, port = live_server.host, live_server.port
        with HttpClient(host, port) as http:
            status, body = http.request("POST", "/v1/test", b"not json")
            assert status == 400
            assert b"error" in body

    def test_connect_failure_raises_http_error(self):
        with HttpClient("127.0.0.1", 1) as http:
            with pytest.raises(HttpError):
                http.request("GET", "/healthz")

    def test_timeout_is_not_retried(self):
        """A hung server sees the request once, and the caller waits
        one timeout, not two."""
        timeout = 0.3
        with socket.create_server(("127.0.0.1", 0)) as listener:
            port = listener.getsockname()[1]
            with HttpClient("127.0.0.1", port, timeout=timeout) as http:
                t0 = time.perf_counter()
                with pytest.raises(HttpError):
                    http.request("GET", "/healthz")
                elapsed = time.perf_counter() - t0
            # The kernel completes each handshake into the backlog, so
            # every connection the client made is accepted here.
            listener.settimeout(0.2)
            connections = []
            try:
                while True:
                    connections.append(listener.accept()[0])
            except TimeoutError:
                pass
            for conn in connections:
                conn.close()
        assert len(connections) == 1
        assert elapsed < 2 * timeout

    def test_idle_close_is_retried_on_one_new_connection(self):
        response = b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok"
        closed = threading.Event()
        accepted = []

        def serve(listener: socket.socket) -> None:
            listener.settimeout(10)
            for _ in range(2):
                conn, _ = listener.accept()
                accepted.append(conn)
                with conn:
                    request = b""
                    while b"\r\n\r\n" not in request and (
                        chunk := conn.recv(65536)
                    ):
                        request += chunk
                    conn.sendall(response)
                closed.set()  # an idle keep-alive connection, closed

        with socket.create_server(("127.0.0.1", 0)) as listener:
            server = threading.Thread(target=serve, args=(listener,))
            server.start()
            with HttpClient("127.0.0.1", listener.getsockname()[1]) as http:
                assert http.request("GET", "/a") == (200, b"ok")
                assert closed.wait(10)
                assert http.request("GET", "/b") == (200, b"ok")
            server.join(10)
        assert len(accepted) == 2


class TestRunLoad:
    def test_closed_loop_smoke(self, live_server):
        host, port = live_server.host, live_server.port
        profile = PROFILES["smoke"].with_overrides(duration=1.0)
        report = run_load(host, port, profile)
        assert report.requests > 0
        assert report.errors == 0
        assert report.status_counts == {"200": report.requests}
        assert report.rps > 0
        assert report.latency_ms["p50"] <= report.latency_ms["p99"]
        assert report.open_loop is None
        assert report.server is not None and report.server["status"] == "ok"
        assert "req/s" in report.summary()

    def test_open_loop_smoke(self, live_server):
        host, port = live_server.host, live_server.port
        profile = PROFILES["open-poisson"].with_overrides(
            duration=1.0, rate=40.0
        )
        corpus = build_corpus(
            PROFILES["smoke"].with_overrides(seed=profile.seed)
        )
        # The open driver indexes corpus[0..working_set); reuse the tiny
        # smoke corpus by shrinking the indexed range to its size.
        profile = profile.__class__(
            **{**profile.__dict__, "working_set": len(corpus)}
        )
        report = run_load(host, port, profile, corpus=corpus)
        assert report.errors == 0
        assert report.open_loop is not None
        assert report.requests == report.open_loop["offered"] > 0
        assert report.open_loop["lateness_ms"]["p99"] >= 0.0
        assert "offered" in report.summary()

    def test_report_round_trips_through_json(self, live_server):
        host, port = live_server.host, live_server.port
        profile = PROFILES["smoke"].with_overrides(duration=0.5)
        report = run_load(host, port, profile)
        decoded = json.loads(json.dumps(report.as_dict()))
        assert decoded["requests"] == report.requests
        assert decoded["profile"]["name"] == "smoke"


class TestLoadgenCli:
    def test_list_profiles(self, capsys):
        assert cli_main(["loadgen", "--list-profiles"]) == 0
        out = capsys.readouterr().out
        for name in PROFILES:
            assert name in out

    def test_port_is_required(self, capsys):
        assert cli_main(["loadgen"]) == 2
        assert "--port is required" in capsys.readouterr().err

    def test_unknown_profile_is_rejected(self, capsys):
        assert cli_main(["loadgen", "--port", "1", "--profile", "nope"]) == 2
        assert "unknown profile" in capsys.readouterr().err

    def test_end_to_end_against_live_server(
        self, live_server, capsys, tmp_path
    ):
        host, port = live_server.host, live_server.port
        out_json = tmp_path / "report.json"
        code = cli_main(
            [
                "loadgen",
                "--host", host,
                "--port", str(port),
                "--profile", "smoke",
                "--duration", "1.0",
                "--json", str(out_json),
            ]
        )
        assert code == 0
        captured = capsys.readouterr().out
        assert "req/s" in captured
        report = json.loads(out_json.read_text())
        assert report["errors"] == 0
        assert report["requests"] > 0
        assert report["profile"]["duration"] == 1.0
