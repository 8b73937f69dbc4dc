"""Traced replay: per-layer self time from spans the benchmark records itself.

The replay drives each workload's request stream in-process through the
public functions the front end and the shard worker call, with nothing
changed under ``src/``:

* serving: ``json`` decode, ``validation.parse_*_request``, the shard
  digest helpers, ``canonical_task_order``, ``protocol.send_frame`` /
  ``recv_frame`` over a socketpair (unit out, result back; each end's
  half timed apart),
  ``ShardCore.test/batch/partition``, the front end's remap and ``json``
  encode.  Inside ``ShardCore`` the names ``repro.service.shard`` imports
  are wrapped for the traced pass and restored afterwards.
* campaign: E22 quick at ``jobs=1`` with ``generate_taskset`` wrapped at
  its ``repro.analysis.acceptance`` import site, ``FirstFitTester.__call__``
  and the e22 module's Han-Zhao / Chen partitioners.

A wrap target that no longer exists leaves its stage ``None`` with a
reason; it never stops the replay.  Spans stay in memory until
:func:`write_trace`.  A span's self time is its duration minus its
children's.
"""

from __future__ import annotations

import importlib
import json
import socket
import time
from typing import Any, Callable

#: Root span names: one per request (serving) or trial (campaign).
ROOTS = ("request", "trial")


class Tracer:
    """In-memory spans plus the patches that produce them."""

    def __init__(self) -> None:
        #: [name, start, end, parent index, request id]
        self.spans: list[list[Any]] = []
        self.counts: dict[str, int] = {}
        self.missing: dict[str, str] = {}
        self.rid = -1
        self._stack: list[int] = []
        self._undo: list[tuple[Any, str, Any, bool]] = []

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.rid])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def wrap(
        self,
        stage: str | Callable[..., str],
        fn: Callable,
        *,
        count: Callable[..., int] | None = None,
        root: bool = False,
    ) -> Callable:
        """``fn`` inside a span; ``stage`` may name it from the call's args,
        ``count`` adds a per-call quantity to :attr:`counts`."""

        def traced(*args: Any, **kwargs: Any) -> Any:
            name = stage if isinstance(stage, str) else stage(*args)
            if root:
                self.rid += 1
            if count is not None:
                self.counts[name] = self.counts.get(name, 0) + count(*args)
            idx = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)

        return traced

    def patch(
        self, stage: str | Callable[..., str], owner: Any, attr: str, **options: Any
    ) -> None:
        """Replace ``owner.attr`` by its traced wrapper until :meth:`restore`."""
        original = getattr(owner, attr, None)
        if original is None:
            where = getattr(owner, "__name__", type(owner).__name__)
            self.missing[str(stage)] = f"wrap target {where}.{attr} not found"
            return
        own = attr in vars(owner)
        self._undo.append((owner, attr, original, own))
        setattr(owner, attr, self.wrap(stage, original, **options))

    def restore(self) -> None:
        while self._undo:
            owner, attr, original, own = self._undo.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: total self seconds and calls."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for k, (name, start, end, _, _) in enumerate(self.spans):
            row = out.setdefault(name, {"self_s": 0.0, "calls": 0})
            row["self_s"] += end - start - child[k]
            row["calls"] += 1
        return out


def write_trace(path, tracer: Tracer, header: dict[str, Any]) -> None:
    """Spans as JSON, times in µs from the first span."""
    t0 = tracer.spans[0][1] if tracer.spans else 0.0
    spans = [
        {
            "name": name,
            "start_us": (start - t0) * 1e6,
            "end_us": (end - t0) * 1e6,
            "parent": parent,
            "request": rid,
        }
        for name, start, end, parent, rid in tracer.spans
    ]
    path.write_text(json.dumps({**header, "spans": spans}) + "\n")


class _CountingSocket:
    """Counts the bytes ``send_frame`` hands to ``sendall``."""

    def __init__(self, sock: socket.socket):
        self.sock = sock
        self.sent = 0

    def sendall(self, data: bytes) -> None:
        self.sent += len(data)
        self.sock.sendall(data)

    def __getattr__(self, name: str) -> Any:
        return getattr(self.sock, name)


def _identity_remap(canon: dict, order: list[int]) -> dict:
    return canon


class ServeReplay:
    """One front end + one ``ShardCore``, in-process, joined by a socketpair."""

    def __init__(self, corpus):
        from repro.service import frontend, protocol, shard

        self.corpus = corpus
        self.frontend = frontend
        self.protocol = protocol
        self.shard = shard
        self.core = shard.ShardCore(cache_size=corpus.cache_size, backend="numpy")
        a, b = socket.socketpair()
        for s in (a, b):
            s.settimeout(10.0)  # a frame larger than the socket buffer fails, never hangs
        self.front_sock = _CountingSocket(a)
        self.shard_sock = _CountingSocket(b)

    def close(self) -> None:
        self.front_sock.sock.close()
        self.shard_sock.sock.close()

    def _shard_patches(self, tracer: Tracer) -> None:
        shard = self.shard
        lru = getattr(shard, "LRUCache", None)
        if lru is None:
            tracer.missing["service.cache.lookup"] = "repro.service.shard.LRUCache not found"
        else:
            tracer.patch("service.cache.lookup", lru, "get")
            tracer.patch("service.cache.lookup", lru, "put")
        tracer.patch("kernels.eval", shard, "test_feasibility_batch", count=lambda items, *a: len(items))
        tracer.patch("core.eval", shard, "feasibility_test")
        tracer.patch("core.eval", shard, "first_fit_partition")
        tracer.patch("io_.serialize.report", shard, "report_to_dict")
        tracer.patch("io_.serialize.report", shard, "partition_result_to_dict")

    def run(self, requests, tracer: Tracer | None = None) -> float:
        """Replay ``requests``; wall seconds.  Traced when ``tracer`` is given."""
        from repro.io_.serialize import canonical_task_order
        from repro.service import validation

        def w(stage, fn):
            return fn if tracer is None else tracer.wrap(stage, fn)

        protocol = self.protocol
        missing: dict[str, str] = {}
        remaps = []
        for attr in ("_remap_report_dict", "_remap_partition_dict"):
            fn = getattr(self.frontend, attr, None)
            if fn is None:
                missing["service.frontend.remap"] = f"repro.service.frontend.{attr} not found"
                fn = _identity_remap
            remaps.append(w("service.frontend.remap", fn))
        remap_report, remap_partition = remaps
        decode = w("json.decode", json.loads)
        encode = w("json.encode", lambda obj: json.dumps(obj, sort_keys=True).encode("utf-8"))
        parse_test = w("service.validation.parse", validation.parse_test_request)
        parse_batch = w("service.validation.parse", validation.parse_batch_request)
        parse_partition = w("service.validation.parse", validation.parse_partition_request)
        test_digest = w("service.shard.digest", self.shard.test_query_digest)
        partition_digest = w("service.shard.digest", self.shard.partition_query_digest)
        order_of = w("io_.serialize.order", canonical_task_order)
        core_ops = {
            "test": w("service.shard.core", self.core.test),
            "batch": w("service.shard.core", self.core.batch),
            "partition": w("service.shard.core", self.core.partition),
        }

        # each end's half of a frame hop: pickle + send, or receive + unpickle
        front_send = w("service.protocol.front", protocol.send_frame)
        front_recv = w("service.protocol.front", protocol.recv_frame)
        shard_send = w("service.protocol.shard", protocol.send_frame)
        shard_recv = w("service.protocol.shard", protocol.recv_frame)

        def call_shard(op: str, rid: int, unit: Any) -> Any:
            front_send(self.front_sock, (op, rid, unit))
            op, seq, unit = shard_recv(self.shard_sock)
            shard_send(self.shard_sock, (seq, "ok", core_ops[op](unit)))
            return front_recv(self.front_sock)[2]

        def test_unit(q: Any) -> tuple[Any, list[int]]:
            digest, _ = test_digest(q)
            order = order_of(q.taskset)
            return protocol.TestUnit(
                digest=digest, taskset=q.taskset, order=tuple(order),
                platform=q.platform, scheduler=q.scheduler,
                adversary=q.adversary, alpha=q.alpha,
            ), order

        def handle(rid: int, req: Any) -> list[str]:
            payload = decode(req.body)
            if req.path == "/v1/test":
                unit, order = test_unit(parse_test(payload))
                canon, cached = call_shard("test", rid, unit)
                encode({"digest": unit.digest, "cached": cached,
                        "report": remap_report(canon, order)})
                return [unit.digest]
            if req.path == "/v1/batch":
                pairs = [test_unit(q) for q in parse_batch(payload)]
                outcomes = call_shard("batch", rid, [u for u, _ in pairs])
                encode({
                    "count": len(pairs),
                    "cached": sum(1 for _, c in outcomes if c),
                    "results": [
                        {"digest": u.digest, "cached": c, "report": remap_report(canon, o)}
                        for (u, o), (canon, c) in zip(pairs, outcomes)
                    ],
                })
                return [u.digest for u, _ in pairs]
            q = parse_partition(payload)
            digest = partition_digest(q)
            order = order_of(q.taskset)
            unit = protocol.PartitionUnit(
                digest=digest, taskset=q.taskset, order=tuple(order),
                platform=q.platform, test=q.test, alpha=q.alpha,
            )
            canon, cached = call_shard("partition", rid, unit)
            encode({"digest": digest, "cached": cached,
                    "result": remap_partition(canon, order)})
            return [digest]

        if tracer is not None:
            tracer.missing.update(missing)
            self._shard_patches(tracer)
        entries = self.corpus.entries
        try:
            t0 = time.perf_counter()
            for rid, req in enumerate(requests):
                if tracer is not None:
                    tracer.rid = rid
                    idx = tracer.open("request")
                digests = handle(rid, req)
                if tracer is not None:
                    tracer.close(idx)
                if digests != [entries[k].digest for k in req.entries]:
                    raise RuntimeError(f"replayed {req.path} digests differ from the server's")
            return time.perf_counter() - t0
        finally:
            if tracer is not None:
                tracer.restore()

    @property
    def frame_bytes(self) -> int:
        return self.front_sock.sent + self.shard_sock.sent


def ff_stage(tester: Any, *args: Any) -> str:
    return {"edf-dbf": "analysis.ff_qpa", "edf-dbf-approx": "analysis.ff_approx"}.get(
        tester.test, "analysis.ff_other"
    )


def replay_campaign(seed: int, tracer: Tracer | None = None) -> tuple[float, list[dict]]:
    """E22 quick at ``jobs=1``; (wall seconds, rows)."""
    from repro.analysis import acceptance
    from repro.experiments import get_experiment

    e22 = get_experiment("e22")
    if tracer is not None:
        e22_module = importlib.import_module(e22.__module__)
        tracer.patch("trial", acceptance, "_acceptance_trial", root=True)
        tracer.patch("workloads.generate", acceptance, "generate_taskset")
        tester = getattr(acceptance, "FirstFitTester", None)
        if tester is None:
            tracer.missing["analysis.ff_qpa"] = "repro.analysis.acceptance.FirstFitTester not found"
            tracer.missing["analysis.ff_approx"] = tracer.missing["analysis.ff_qpa"]
        else:
            tracer.patch(ff_stage, tester, "__call__")
        tracer.patch("baselines.han_zhao", e22_module, "han_zhao_partition")
        tracer.patch("baselines.chen", e22_module, "chen_partition")
    try:
        t0 = time.perf_counter()
        rows = e22(seed=seed, scale="quick", jobs=1).rows
        return time.perf_counter() - t0, rows
    finally:
        if tracer is not None:
            tracer.restore()


def reset_caches() -> None:
    """Empty the process-wide kernel buffer and dbf profile caches, so a
    replay does not inherit the previous one's warm entries."""
    for module, attr in (
        ("repro.kernels", "reset_kernel_caches"),
        ("repro.core.dbf", "reset_profile_cache"),
    ):
        fn = getattr(importlib.import_module(module), attr, None)
        if fn is not None:
            fn()


def cache_counters() -> dict[str, tuple[int, int] | str]:
    """(hits, misses) of the kernel buffer and dbf profile caches, or the
    reason a counter is unavailable."""
    out: dict[str, tuple[int, int] | str] = {}
    for key, module, attr in (
        ("kernels", "repro.kernels", "kernel_cache_stats"),
        ("profiles", "repro.core.dbf", "profile_cache_stats"),
    ):
        fn = getattr(importlib.import_module(module), attr, None)
        if fn is None:
            out[key] = f"{module}.{attr} not found"
        else:
            stats = fn()
            out[key] = (stats.hits, stats.misses)
    return out
