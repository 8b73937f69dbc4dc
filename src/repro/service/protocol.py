"""Frame protocol between the sharded front end and its workers.

The front end (:mod:`repro.service.frontend`) and each shard worker
(:mod:`repro.service.shard`) share one connected ``socketpair``.  Every
message is a *frame*: an 8-byte big-endian length prefix followed by a
payload.  The worker reads frames with the blocking :func:`recv_frame`;
the front end reads them off its event loop
(:mod:`repro.service.loop`), each header through :func:`frame_length`.

A verdict request travels in a fixed binary layout (below); every other
message is pickled.  Pickle is safe here because both ends are the same
codebase in the same trust domain — the socketpair is inherited at
``fork`` time and never reachable from the network; the HTTP surface
only ever sees JSON.

Wire shapes
-----------
Requests (front end → worker) are ``(op, seq, payload)`` tuples::

    ("test",      seq, TestUnit)          -> (seq, "ok", (canon_blob, cached))
    ("partition", seq, PartitionUnit)     -> (seq, "ok", (canon_blob, cached))
    ("batch",     seq, [TestUnit, ...])   -> (seq, "ok", [(canon_blob, cached), ...])
    ("stats",     seq, None)              -> (seq, "ok", {...worker stats...})
    ("ping",      seq, None)              -> (seq, "ok", None)
    ("shutdown",  seq, None)              -> (seq, "ok", None), then the worker exits

The three unit requests are packed, in native byte order (both ends are
one build on one host)::

    kind       1 byte   b"T" test, b"B" batch, b"P" partition
    seq        uint64
    count      uint32   units that follow (1 unless a batch)
    per unit:
      digest   64 ASCII hex digits
      n, m     uint32 tasks, uint32 machines
      op       test: scheduler, adversary (strings), has_alpha uint8,
               alpha float64; partition: test (string), alpha float64
      chaos    uint32 count, then that many strings (``--chaos`` hooks)
      wcet, period, deadline   n float64 each, canonical task order
      speeds   m float64, ascending
      order    n uint32: submitted index of each canonical task

A string is a uint32 byte length and its UTF-8 bytes.  A pickle starts
with ``0x80``, never with a kind byte, so one leading byte tells the two
encodings apart.  A unit frame that is truncated, carries trailing bytes
or undecodable text raises :class:`ConnectionError`, as a bad length
prefix does.

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
from array import array
from dataclasses import InitVar, dataclass, field
from itertools import repeat
from typing import Any

from ..core.model import Machine, Platform, Task, TaskSet

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


@dataclass(slots=True)
class _InstanceUnit:
    """The canonical instance a unit frame carries, as packed columns.

    Built from the submitted ``taskset`` and ``platform`` and the
    canonical ``order`` (the submitted index of each canonical task):
    ``wcet``/``period``/``deadline`` hold the tasks in canonical order,
    ``speeds`` the machines ascending.  Task and machine names never
    reach a worker; ``chaos`` carries the fault-injection names a
    ``--chaos`` front end found among them.
    """

    digest: str
    taskset: InitVar[TaskSet]
    order: array  # any int sequence on the way in, uint32 once built
    platform: InitVar[Platform]
    wcet: array = field(init=False)
    period: array = field(init=False)
    deadline: array = field(init=False)
    speeds: array = field(init=False)
    chaos: tuple[str, ...] = field(default=(), kw_only=True)

    def __post_init__(self, taskset: TaskSet, platform: Platform) -> None:
        tasks = taskset.tasks
        canon = [tasks[i] for i in self.order]
        self.order = array("I", self.order)
        self.wcet = array("d", [t.wcet for t in canon])
        self.period = array("d", [t.period for t in canon])
        self.deadline = array("d", [t.deadline for t in canon])
        self.speeds = array("d", platform.speeds)

    def canonical_taskset(self) -> TaskSet:
        """The tasks in canonical order, unnamed."""
        return TaskSet(map(Task, self.wcet, self.period, repeat(""), self.deadline))

    def canonical_platform(self) -> Platform:
        """The machines, unnamed."""
        return Platform(map(Machine, self.speeds))


@dataclass(slots=True)
class TestUnit(_InstanceUnit):
    """One ``/v1/test`` (or ``/v1/batch`` item) routed to its shard.

    The front end has already validated the payload and computed the
    canonical ``digest`` and task ``order``; a worker builds Task
    objects from the columns only on a cache miss.
    """

    scheduler: str
    adversary: str
    alpha: float | None


@dataclass(slots=True)
class PartitionUnit(_InstanceUnit):
    """One ``/v1/partition`` request routed to its shard."""

    test: str
    alpha: float


# -- the unit codec -----------------------------------------------------------

_HEAD = struct.Struct("=cQI")  # kind, seq, count
_SHAPE = struct.Struct("=64sII")  # digest, n, m
_U32 = struct.Struct("=I")
_TEST_ALPHA = struct.Struct("=Bd")  # has_alpha, alpha
_F64 = struct.Struct("=d")

_KIND_OF_OP = {"test": b"T", "batch": b"B", "partition": b"P"}
_OP_OF_KIND = {kind: op for op, kind in _KIND_OF_OP.items()}


def _units_of(message: Any) -> tuple[bytes, list[_InstanceUnit]] | None:
    """``(kind, units)`` for a unit request, ``None`` for anything else."""
    if type(message) is not tuple or len(message) != 3:
        return None
    op, _, payload = message
    if isinstance(payload, _InstanceUnit):
        units = [payload]
        kind = b"T" if isinstance(payload, TestUnit) else b"P"
    elif (
        type(payload) is list
        and payload
        and all(isinstance(u, TestUnit) for u in payload)
    ):
        units, kind = payload, b"B"
    else:
        return None
    if _KIND_OF_OP.get(op) != kind:
        raise ValueError(f"op {op!r} cannot carry {type(payload).__name__}")
    return kind, units


def _put_str(out: list[bytes], text: str) -> None:
    raw = text.encode("utf-8")
    out.append(_U32.pack(len(raw)))
    out.append(raw)


def _encode_units(kind: bytes, seq: int, units: list[_InstanceUnit]) -> bytes:
    out = [_HEAD.pack(kind, seq, len(units))]
    for unit in units:
        digest = unit.digest.encode("ascii")
        if len(digest) != 64:
            raise ValueError(f"a unit digest has 64 hex digits, not {len(digest)}")
        out.append(_SHAPE.pack(digest, len(unit.wcet), len(unit.speeds)))
        if isinstance(unit, TestUnit):
            _put_str(out, unit.scheduler)
            _put_str(out, unit.adversary)
            alpha = unit.alpha
            out.append(_TEST_ALPHA.pack(alpha is not None, 0.0 if alpha is None else alpha))
        else:
            _put_str(out, unit.test)
            out.append(_F64.pack(unit.alpha))
        out.append(_U32.pack(len(unit.chaos)))
        for name in unit.chaos:
            _put_str(out, name)
        for column in (unit.wcet, unit.period, unit.deadline, unit.speeds, unit.order):
            out.append(column.tobytes())
    return b"".join(out)


class _Reader:
    """Sequential reads off one unit frame; running short raises
    :class:`ConnectionError`."""

    __slots__ = ("view", "pos")

    def __init__(self, blob: bytes):
        self.view = memoryview(blob)
        self.pos = 0

    def take(self, size: int) -> memoryview:
        end = self.pos + size
        if end > len(self.view):
            raise ConnectionError("unit frame is truncated")
        chunk = self.view[self.pos:end]
        self.pos = end
        return chunk

    def unpack(self, layout: struct.Struct) -> tuple[Any, ...]:
        return layout.unpack(self.take(layout.size))

    def text(self) -> str:
        (size,) = self.unpack(_U32)
        return str(self.take(size), "utf-8")

    def column(self, code: str, count: int) -> array:
        column = array(code)
        column.frombytes(self.take(count * column.itemsize))
        return column


def _decode_unit(reader: _Reader, kind: bytes) -> _InstanceUnit:
    digest, n, m = reader.unpack(_SHAPE)
    unit: _InstanceUnit
    if kind == b"P":
        unit = PartitionUnit.__new__(PartitionUnit)
        unit.test = reader.text()
        (unit.alpha,) = reader.unpack(_F64)
    else:
        unit = TestUnit.__new__(TestUnit)
        unit.scheduler = reader.text()
        unit.adversary = reader.text()
        has_alpha, alpha = reader.unpack(_TEST_ALPHA)
        unit.alpha = alpha if has_alpha else None
    unit.digest = digest.decode("ascii")
    (hooks,) = reader.unpack(_U32)
    unit.chaos = tuple(reader.text() for _ in range(hooks))
    unit.wcet = reader.column("d", n)
    unit.period = reader.column("d", n)
    unit.deadline = reader.column("d", n)
    unit.speeds = reader.column("d", m)
    unit.order = reader.column("I", n)
    return unit


def _decode_units(blob: bytes) -> tuple[str, int, Any]:
    """``(op, seq, payload)`` of a unit frame."""
    reader = _Reader(blob)
    kind, seq, count = reader.unpack(_HEAD)
    op = _OP_OF_KIND[kind]
    if count != 1 and op != "batch":
        raise ConnectionError(f"a {op} frame carries {count} units")
    try:
        units = [_decode_unit(reader, kind) for _ in range(count)]
    except UnicodeDecodeError as exc:
        raise ConnectionError(f"corrupt unit frame: {exc}") from None
    if reader.pos != len(blob):
        raise ConnectionError("unit frame has trailing bytes")
    return op, seq, units if op == "batch" else units[0]


def pickled(obj: Any) -> bytes:
    """``obj`` pickled as a frame payload is (highest protocol)."""
    return pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)


def frame_bytes(message: Any) -> bytes:
    """One ready-to-send frame: length prefix plus payload, a unit
    request packed and any other message pickled."""
    request = _units_of(message)
    if request is None:
        blob = pickled(message)
    else:
        blob = _encode_units(request[0], message[1], request[1])
    return _LEN.pack(len(blob)) + blob


def frame_length(header: bytes) -> int:
    """The payload length a frame's header announces; a corrupt length
    raises :class:`ConnectionError`."""
    (length,) = _LEN.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise ConnectionError(f"frame length {length} exceeds {MAX_FRAME_BYTES}")
    return length


def send_frame(sock: socket.socket, message: Any) -> None:
    """Send ``message`` as one length-prefixed frame (:func:`frame_bytes`)."""
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
    if blob[:1] in _OP_OF_KIND:
        return _decode_units(blob)
    return pickle.loads(blob)
