"""Frame protocol between the sharded front end and its workers.

The front end (:mod:`repro.service.frontend`) and each shard worker
(:mod:`repro.service.shard`) share one connected ``socketpair``.  Every
message is a *frame*: an 8-byte big-endian length prefix followed by a
pickled payload.  Pickle is safe here because both ends are the same
codebase in the same trust domain — the socketpair is inherited at
``fork`` time and never reachable from the network; the HTTP surface
only ever sees JSON.  The worker reads frames with the blocking
:func:`recv_frame`; the front end reads them off its event loop
(:mod:`repro.service.loop`), each header through :func:`frame_length`.

Wire shapes
-----------
Requests (front end → worker) are ``(op, seq, payload)`` tuples::

    ("test",      seq, TestUnit)          -> (seq, "ok", (canon_blob, cached))
    ("partition", seq, PartitionUnit)     -> (seq, "ok", (canon_blob, cached))
    ("batch",     seq, [TestUnit, ...])   -> (seq, "ok", [(canon_blob, cached), ...])
    ("stats",     seq, None)              -> (seq, "ok", {...worker stats...})
    ("ping",      seq, None)              -> (seq, "ok", None)
    ("shutdown",  seq, None)              -> (seq, "ok", None), then the worker exits

A ``canon_blob`` is the canonical verdict dict already pickled by the
shard — the exact ``bytes`` its cache holds — so a cache hit is sent
without re-pickling the verdict; the front end unpickles it once per
response.

Responses are ``(seq, status, result)``; ``status`` is ``"ok"`` or
``"error"`` (``result`` is then the error message string).  A worker
answers frames strictly in arrival order, so ``seq`` is technically
redundant — it is kept so the front end can match responses to futures
without trusting FIFO-ness, which makes replay-after-respawn simple.
"""

from __future__ import annotations

import pickle
import socket
import struct
from dataclasses import dataclass
from typing import Any

from ..core.model import Platform, TaskSet

__all__ = [
    "FRAME_HEADER_BYTES",
    "MAX_FRAME_BYTES",
    "TestUnit",
    "PartitionUnit",
    "frame_bytes",
    "frame_length",
    "pickled",
    "recv_frame",
    "send_frame",
]

_LEN = struct.Struct(">Q")

#: Size of a frame's length prefix.
FRAME_HEADER_BYTES = _LEN.size

#: Backstop against a corrupted length prefix; far above any legitimate
#: frame (request bodies are already capped at the HTTP layer).
MAX_FRAME_BYTES = 256 * 1024 * 1024


@dataclass(frozen=True)
class TestUnit:
    """One ``/v1/test`` (or ``/v1/batch`` item) routed to its shard.

    The front end has already validated the payload, computed the
    canonical ``digest`` and task ``order``; the worker subsets the
    taskset into canonical order only on a cache miss.
    """

    digest: str
    taskset: TaskSet
    order: tuple[int, ...]
    platform: Platform
    scheduler: str
    adversary: str
    alpha: float | None


@dataclass(frozen=True)
class PartitionUnit:
    """One ``/v1/partition`` request routed to its shard."""

    digest: str
    taskset: TaskSet
    order: tuple[int, ...]
    platform: Platform
    test: str
    alpha: float


def pickled(obj: Any) -> bytes:
    """``obj`` pickled as a frame payload is (highest protocol)."""
    return pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)


def frame_bytes(message: Any) -> bytes:
    """One ready-to-send frame: length prefix plus pickled payload."""
    blob = pickled(message)
    return _LEN.pack(len(blob)) + blob


def frame_length(header: bytes) -> int:
    """The payload length a frame's header announces; a corrupt length
    raises :class:`ConnectionError`."""
    (length,) = _LEN.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise ConnectionError(f"frame length {length} exceeds {MAX_FRAME_BYTES}")
    return length


def send_frame(sock: socket.socket, message: Any) -> None:
    """Pickle ``message`` and send it as one length-prefixed frame."""
    sock.sendall(frame_bytes(message))


def _recv_exact(sock: socket.socket, n: int) -> bytes | None:
    """Read exactly ``n`` bytes, or ``None`` on clean EOF at a frame
    boundary; raise :class:`ConnectionError` on EOF mid-frame."""
    chunks: list[bytes] = []
    remaining = n
    while remaining:
        chunk = sock.recv(min(remaining, 1 << 20))
        if not chunk:
            if remaining == n:
                return None
            raise ConnectionError("peer closed mid-frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_frame(sock: socket.socket) -> Any | None:
    """Read one frame, or ``None`` on clean EOF (peer closed)."""
    header = _recv_exact(sock, FRAME_HEADER_BYTES)
    if header is None:
        return None
    blob = _recv_exact(sock, frame_length(header))
    if blob is None:
        raise ConnectionError("peer closed between header and body")
    return pickle.loads(blob)
