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

import gc
import json
import os
import re
import signal
import socket
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path
from urllib.parse import urlsplit

import numpy as np
import pytest

import repro
from repro.core.bounds import ADMISSION_TEST_NAMES
from repro.core.model import Machine, Platform, Task, TaskSet
from repro.io_.serialize import (
    SHARD_KEY_HEX_DIGITS,
    canonical_task_order,
    shard_for_digest,
)
from repro.kernels import buffers, kernel_cache_stats, reset_kernel_caches
from repro.kernels.batch import LOCKSTEP_MIN_WIDTH
from repro.service import HttpClient
from repro.service.frontend import ShardedFrontend
from repro.service.metrics import render_shard_prometheus
from repro.service.protocol import (
    MAX_FRAME_BYTES,
    PartitionUnit,
    frame_bytes,
    recv_frame,
    send_frame,
)
from repro.service.protocol import TestUnit as Unit  # not a test class
from repro.service.shard import CHAOS_EXIT_NAME, CHAOS_SLEEP_PREFIX, ShardCore
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
    return _request("POST", url, data)


def _get(url: str) -> tuple[int, bytes]:
    return _request("GET", url)


def _request(method: str, url: str, body: bytes | None = None):
    """One request on a fresh connection → ``(status, body bytes)``."""
    parts = urlsplit(url)
    target = parts.path + (f"?{parts.query}" if parts.query else "")
    with HttpClient(parts.hostname, parts.port, timeout=60) as http:
        return http.request(method, target, body)


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


def _units() -> tuple[Unit, Unit, PartitionUnit]:
    """A test unit, a one-task one-machine one, and a constrained
    partition unit with fault-injection names."""
    pf = geometric_platform(5, 4.0)
    ts = generate_taskset(
        np.random.default_rng(11), 9, 0.7 * pf.total_speed, u_max=pf.fastest_speed
    )
    small = TaskSet([Task(wcet=0.5, period=2.0, name="only")])
    constrained = TaskSet(
        Task(t.wcet, t.period, name=f"t{i}", deadline=0.8 * t.period)
        for i, t in enumerate(ts)
    )
    hooks = (CHAOS_EXIT_NAME, f"{CHAOS_SLEEP_PREFIX}5__")
    return (
        Unit("a" * 64, ts, canonical_task_order(ts), pf, "rms", "any", None),
        Unit("0" * 64, small, [0], Platform.from_speeds([3.0]), "edf", "partitioned", 2.5),
        PartitionUnit(
            "f" * 64, constrained, canonical_task_order(constrained), pf,
            "edf-dbf", 1.25, chaos=hooks,
        ),
    )


def _frames() -> list[tuple]:
    test, small, part = _units()
    return [("test", 3, test), ("test", 4, small), ("partition", 5, part),
            ("batch", 6, [test, small, test])]


class TestUnitFrames:
    """Test, batch and partition requests travel as packed columns."""

    @pytest.mark.parametrize("message", _frames(), ids=lambda m: f"{m[0]}-{m[1]}")
    def test_roundtrip_keeps_every_field(self, message):
        a, b = socket.socketpair()
        try:
            send_frame(a, message)
            decoded = recv_frame(b)
        finally:
            a.close()
            b.close()
        assert decoded == message
        units = message[2] if message[0] == "batch" else [message[2]]
        for unit in decoded[2] if message[0] == "batch" else [decoded[2]]:
            assert unit in units

    def test_columns_hold_the_canonical_instance(self):
        """What a miss evaluates is the submitted instance permuted into
        canonical order, names dropped."""
        pf = geometric_platform(3, 2.0)
        ts = TaskSet([Task(1.0, 4.0, name="x"), Task(3.0, 4.0, name="y", deadline=3.0),
                      Task(1.0, 2.0, name="z")])
        order = canonical_task_order(ts)
        unit = Unit("c" * 64, ts, order, pf, "edf", "partitioned", None)
        expected = TaskSet(Task(t.wcet, t.period, deadline=t.deadline)
                           for t in ts.subset(order))
        assert unit.canonical_taskset() == expected
        assert unit.canonical_platform() == Platform(Machine(s) for s in pf.speeds)
        assert list(unit.order) == order == [1, 2, 0]
        assert unit.chaos == ()

    def test_frames_carry_no_pickle(self):
        for message in _frames():
            assert frame_bytes(message)[8:9] != b"\x80"  # pickle's PROTO opcode

    def test_a_misrouted_unit_is_refused(self):
        test, _, _ = _units()
        with pytest.raises(ValueError):
            frame_bytes(("partition", 1, test))
        with pytest.raises(ValueError):
            frame_bytes(("test", 1, Unit("ab", TaskSet([Task(1.0, 2.0)]), [0],
                                         Platform.from_speeds([1.0]), "edf",
                                         "partitioned", None)))

    @staticmethod
    def _decode(body: bytes):
        a, b = socket.socketpair()
        try:
            a.sendall(len(body).to_bytes(8, "big") + body)
            return recv_frame(b)
        finally:
            a.close()
            b.close()

    @pytest.mark.parametrize("message", _frames()[1:3], ids=["test", "partition"])
    def test_every_truncation_raises_connection_error(self, message):
        body = frame_bytes(message)[8:]
        for cut in range(1, len(body)):
            with pytest.raises(ConnectionError):
                self._decode(body[:cut])

    def test_corrupt_frames_raise_connection_error(self):
        body = frame_bytes(_frames()[1])[8:]
        with pytest.raises(ConnectionError, match="trailing"):
            self._decode(body + b"\0")
        # a test frame announcing two units
        with pytest.raises(ConnectionError):
            self._decode(body[:9] + (2).to_bytes(4, sys.byteorder) + body[13:])
        # a digest that is not ASCII
        with pytest.raises(ConnectionError):
            self._decode(body[:13] + b"\xff" + body[14:])


class TestShardCoreMemory:
    def test_misses_leave_no_kernel_taskset_entries(self):
        """A worker's kernel buffers do not grow with its miss count."""
        reset_kernel_caches()
        core = ShardCore(cache_size=1024, backend="numpy")
        pf = geometric_platform(4, 4.0)
        rng = np.random.default_rng(41)
        a, b = socket.socketpair()
        try:
            for k in range(600):
                ts = generate_taskset(
                    rng, 8, 0.7 * pf.total_speed, u_max=pf.fastest_speed
                )
                send_frame(a, Unit(
                    f"{k:064x}", ts, tuple(canonical_task_order(ts)), pf,
                    "edf", "partitioned", None,
                ))
                unit = recv_frame(b)
                _, cached = core.test(unit)
                assert not cached
            del ts, unit
        finally:
            a.close()
            b.close()
        assert core.backend_tests == {"numpy": 600}
        assert not buffers._TS_CACHE

    def test_lockstep_misses_leave_no_kernel_taskset_entries(self):
        """Lone large instances (64 x 32), too."""
        reset_kernel_caches()
        core = ShardCore(cache_size=1024, backend="numpy")
        pf = geometric_platform(32, 4.0)
        rng = np.random.default_rng(42)
        for k in range(40):
            ts = generate_taskset(
                rng, 64, 0.7 * pf.total_speed, u_max=pf.fastest_speed
            )
            _, cached = core.test(Unit(
                f"{k:064x}", ts, tuple(canonical_task_order(ts)), pf,
                "edf", "partitioned", None,
            ))
            assert not cached
        del ts
        assert core.backend_tests == {"numpy": 40}
        assert kernel_cache_stats().misses > 40  # entries were built
        assert not buffers._TS_CACHE

    def test_cached_verdicts_are_compact_bytes(self):
        """A cached 128 x 64 verdict is its ~2 KB pickle, not ~10 KB of
        nested dicts and lists."""
        reset_kernel_caches()
        core = ShardCore(cache_size=1024, backend="numpy")
        pf = geometric_platform(64, 8.0)
        rng = np.random.default_rng(43)

        def miss(k: int) -> str:
            ts = generate_taskset(
                rng, 128, 0.5 * pf.total_speed, u_max=pf.fastest_speed
            )
            unit = Unit(
                f"{k:064x}", ts, tuple(canonical_task_order(ts)), pf,
                "edf", "partitioned", None,
            )
            assert not core.test(unit)[1]
            return unit.digest

        n_warm, n_measured = 16, 64
        tracemalloc.start()
        try:
            # the warm-up fills the kernels' bounded shard-matrix cache,
            # whose replacements then net out of the measured window
            digests = [miss(k) for k in range(n_warm)]
            gc.collect()
            before = tracemalloc.get_traced_memory()[0]
            digests += [miss(k) for k in range(n_warm, n_warm + n_measured)]
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert all(isinstance(core.cache.get(d), bytes) for d in digests)
        assert retained / n_measured < 6 * 1024


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
        ok.pid, ok.pending = None, {}
        bad = _WorkerHandle.__new__(_WorkerHandle)
        bad.frontend, bad.index, bad.state, bad.restarts = frontend, 1, "restarting", 1
        bad.pid, bad.pending = None, {}
        frontend.handles = [ok, bad]
        health = frontend.handle_healthz()
        assert health["status"] == "degraded"
        assert [s["state"] for s in health["shards"]] == ["ok", "restarting"]
        bad.state = "ok"
        assert frontend.handle_healthz()["status"] == "ok"


@pytest.mark.skipif(
    not Path("/proc/self/task").exists(),
    reason="counts the worker's threads in /proc",
)
class TestWorkerEnvironment:
    """No worker code calls BLAS, so a worker starts no OpenBLAS thread
    pool unless the operator asks for one.

    A forked worker sets ``OPENBLAS_NUM_THREADS`` in its own
    ``os.environ``, which ``/proc/<pid>/environ`` (the environment the
    front end was exec'd with) never shows.  The value in effect is read
    from what it governs instead: the threads numpy's import starts in
    the worker.
    """

    @pytest.mark.parametrize("given,expected", [(None, "1"), ("3", "3")])
    def test_openblas_threads(self, monkeypatch, given, expected):
        if given is None:
            monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        else:
            monkeypatch.setenv("OPENBLAS_NUM_THREADS", given)
        cores = os.cpu_count() or 1
        if int(expected) > 1 and cores < 2:
            pytest.skip("OpenBLAS starts at most one thread per core")
        # A batch as wide as the lockstep's floor makes the worker
        # import numpy, and with it OpenBLAS.
        batch = {
            "instances": [_request_body(seed) for seed in range(LOCKSTEP_MIN_WIDTH)]
        }
        with _ShardedProc(1, "--backend", "numpy") as sharded:
            assert _post(sharded.url + "/v1/batch", batch)[0] == 200
            (shard,) = json.loads(_get(sharded.url + "/healthz")[1])["shards"]
            threads = len(os.listdir(f"/proc/{shard['pid']}/task"))
            sharded.terminate()
        if expected == "1":
            assert threads == 1
        else:
            assert 1 < threads <= int(expected)


def _threads(pid: int) -> int:
    return len(os.listdir(f"/proc/{pid}/task"))


def _mapped(pid: int) -> set[str]:
    """Base names of the files ``pid`` maps."""
    maps = Path(f"/proc/{pid}/maps").read_text()
    return {line.split()[-1].rsplit("/", 1)[-1] for line in maps.splitlines()}


def _matching(mapped: set[str], prefixes: tuple[str, ...]) -> list[str]:
    return sorted(name for name in mapped if name.startswith(prefixes))


@pytest.mark.skipif(
    not Path("/proc/self/maps").exists(), reason="reads /proc/<pid>/maps and task"
)
class TestServeProcessFootprint:
    """What a real ``repro serve --workers 1`` maps and runs.

    The worker is forked before the front end imports its HTTP stack, so
    it maps no TLS.  The front end's own loop loads neither asyncio nor
    ssl, and it digests queries with CPython's built-in SHA-256, so a
    worker respawned from it maps no TLS and no OpenSSL either.  The
    front end forks respawns from its event loop, which is safe only
    while it holds exactly one thread.
    """

    _TLS = ("_ssl.", "libssl", "_asyncio.")
    _OPENSSL = ("_hashlib.", "libcrypto")

    def test_worker_maps_no_openssl(self):
        with _ShardedProc(1) as sharded:
            assert _post(sharded.url + "/v1/test", _request_body(7))[0] == 200
            (shard,) = json.loads(_get(sharded.url + "/healthz")[1])["shards"]
            mapped = _mapped(shard["pid"])
            sharded.terminate()
        assert _matching(mapped, self._TLS + self._OPENSSL) == []

    def test_front_end_maps_no_tls_or_asyncio(self):
        with _ShardedProc(1) as sharded:
            assert _post(sharded.url + "/v1/test", _request_body(7))[0] == 200
            mapped = _mapped(sharded.proc.pid)
            sharded.terminate()
        assert _matching(mapped, ("_socket.",)) != []  # the probe sees maps
        assert _matching(mapped, self._TLS + self._OPENSSL) == []

    def test_respawned_worker_maps_no_tls_or_asyncio(self):
        poison = _request_body(8)
        poison["taskset"]["tasks"][0]["name"] = CHAOS_EXIT_NAME
        with _ShardedProc(1, "--chaos") as sharded:
            assert _post(sharded.url + "/v1/test", poison)[0] == 503
            assert _post(sharded.url + "/v1/test", _request_body(9))[0] == 200
            (shard,) = json.loads(_get(sharded.url + "/healthz")[1])["shards"]
            assert shard["restarts"] == 2
            mapped = _mapped(shard["pid"])
            sharded.terminate()
        assert _matching(mapped, ("_socket.",)) != []  # the probe sees maps
        assert _matching(mapped, self._TLS + self._OPENSSL) == []

    def test_front_end_holds_one_thread_across_a_respawn(self):
        poison = _request_body(8)
        poison["taskset"]["tasks"][0]["name"] = CHAOS_EXIT_NAME
        with _ShardedProc(1, "--chaos") as sharded:
            front = sharded.proc.pid
            assert _post(sharded.url + "/v1/test", _request_body(9))[0] == 200
            assert _threads(front) == 1
            assert _post(sharded.url + "/v1/test", poison)[0] == 503
            health = json.loads(_get(sharded.url + "/healthz")[1])
            assert health["shards"][0]["restarts"] == 2
            assert _post(sharded.url + "/v1/test", _request_body(9))[0] == 200
            assert _threads(front) == 1
            sharded.terminate()


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

    @pytest.mark.parametrize("backend", ["numpy"])
    def test_backends_agree_on_batch_verdicts(self, reference, backend):
        """numpy-backend shards return the same verdicts (modulo the
        documented ``backend`` provenance key) as the scalar reference."""
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

    def test_every_admission_test_answers_at_every_worker_count(self):
        """The accepted ``test`` names do not depend on what a serving
        process imported: each answers 200, byte for byte the same, from
        the in-process shard and from one or two worker processes."""
        body = _request_body(0)
        queries = [
            {
                "taskset": body["taskset"],
                "platform": body["platform"],
                "test": name,
                "alpha": 2.0,
            }
            for name in ADMISSION_TEST_NAMES
        ]
        answers = {}
        for workers in (0, 1, 2):
            with _ShardedProc(workers) as server:
                answers[workers] = [
                    _post(server.url + "/v1/partition", query)
                    for query in queries
                ]
                server.terminate()
        for i, name in enumerate(ADMISSION_TEST_NAMES):
            assert answers[0][i][0] == 200, (name, answers[0][i])
            assert answers[1][i] == answers[2][i] == answers[0][i], name

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
