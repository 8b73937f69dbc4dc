"""Client side of the feasibility-query service.

:class:`HttpClient` is one keep-alive connection speaking the HTTP/1.1
subset the front end serves (``Content-Length`` bodies, never chunked),
cheap enough for the load generator to share a core with the server it
measures.  :class:`ServiceClient` speaks the service's JSON schemas over
one :class:`HttpClient`: :class:`TaskSet`/:class:`Platform` go in,
response dicts or a rebuilt
:class:`~repro.core.feasibility.FeasibilityReport` come out, and a
non-2xx response raises :class:`ServiceError` with the structured body.
"""

# repro: noqa-file[REP006] — each client is one connection owned by one
# thread (a load-generator worker, or a ServiceClient's caller); sharing
# one between threads is unsupported, so a lock would guard nothing.

from __future__ import annotations

import json
import socket
from typing import Any, Iterable
from urllib.parse import urlsplit

from ..core.feasibility import FeasibilityReport
from ..core.model import Platform, TaskSet
from ..io_.serialize import (
    platform_to_dict,
    report_from_dict,
    taskset_to_dict,
)

__all__ = ["HttpClient", "HttpError", "ServiceClient", "ServiceError"]


class HttpError(Exception):
    """Transport-level failure (connect, send, timeout, malformed response)."""


class _Stale(HttpError):
    """The connection failed before any response byte arrived."""


class HttpClient:
    """One keep-alive connection to one server."""

    def __init__(self, host: str, port: int, *, timeout: float = 30.0):
        self.host = host
        self.port = port
        self.timeout = timeout
        self._sock: socket.socket | None = None
        self._buf = b""

    def close(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            finally:
                self._sock = None
        self._buf = b""

    def __enter__(self) -> "HttpClient":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def _connect(self) -> socket.socket:
        if self._sock is None:
            try:
                self._sock = socket.create_connection((self.host, self.port), timeout=self.timeout)
                self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            except OSError as exc:
                self.close()
                raise HttpError(f"connect failed: {exc}") from exc
        return self._sock

    def request(self, method: str, path: str, body: bytes | None = None) -> tuple[int, bytes]:
        """One request → ``(status, body bytes)``.

        A request on a keep-alive connection the server closed while
        idle fails before any response byte arrives; it is resent once
        on a fresh connection.  Any other failure (a failed connect, a
        timeout, a connection lost mid-response) raises at once, so a
        slow request is never sent twice.
        """
        payload = body or b""
        message = (
            f"{method} {path} HTTP/1.1\r\n"
            f"Host: {self.host}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(payload)}\r\n"
            f"\r\n"
        ).encode("latin-1") + payload
        reused = self._sock is not None
        try:
            return self._exchange(self._connect(), message)
        except _Stale:
            if not reused:
                raise
            return self._exchange(self._connect(), message)

    def _exchange(self, sock: socket.socket, message: bytes) -> tuple[int, bytes]:
        """Send ``message`` and read its response; any failure closes
        the connection."""
        try:
            try:
                sock.sendall(message)
                self._recv(sock)
            except TimeoutError:
                raise
            except (OSError, HttpError) as exc:
                raise _Stale(f"request failed: {exc}") from exc
            return self._read_response(sock)
        except HttpError:
            self.close()
            raise
        except OSError as exc:
            self.close()
            raise HttpError(f"request failed: {exc}") from exc

    def _recv(self, sock: socket.socket) -> None:
        chunk = sock.recv(65536)
        if not chunk:
            raise HttpError("server closed the connection")
        self._buf += chunk

    def _read_line(self, sock: socket.socket) -> bytes:
        while b"\r\n" not in self._buf:
            self._recv(sock)
        line, self._buf = self._buf.split(b"\r\n", 1)
        return line

    def _read_exact(self, sock: socket.socket, n: int) -> bytes:
        while len(self._buf) < n:
            self._recv(sock)
        out, self._buf = self._buf[:n], self._buf[n:]
        return out

    def _read_response(self, sock: socket.socket) -> tuple[int, bytes]:
        status_line = self._read_line(sock)
        parts = status_line.split(b" ", 2)
        if len(parts) < 2 or not parts[1].isdigit():
            raise HttpError(f"malformed status line: {status_line!r}")
        status = int(parts[1])
        length: int | None = None
        close = False
        while True:
            line = self._read_line(sock)
            if not line:
                break
            key, _, value = line.partition(b":")
            key = key.strip().lower()
            if key == b"content-length":
                length = int(value.strip())
            elif key == b"connection" and value.strip().lower() == b"close":
                close = True
        if length is None:
            raise HttpError("response has no Content-Length")
        body = self._read_exact(sock, length)
        if close:
            self.close()
        return status, body


class ServiceError(RuntimeError):
    """A non-2xx response; ``payload`` is the decoded error body."""

    def __init__(self, status: int, payload: Any):
        self.status = status
        self.payload = payload
        message = ""
        if isinstance(payload, dict):
            message = payload.get("error", {}).get("message", "")
        super().__init__(f"HTTP {status}: {message or payload!r}")

    @property
    def fields(self) -> list[dict[str, str]]:
        """Field-level errors from a 400 response (empty otherwise)."""
        if isinstance(self.payload, dict):
            return self.payload.get("error", {}).get("fields", [])
        return []


def _instance_payload(
    taskset: TaskSet,
    platform: Platform,
    scheduler: str,
    adversary: str,
    alpha: float | None,
) -> dict[str, Any]:
    payload: dict[str, Any] = {
        "taskset": taskset_to_dict(taskset),
        "platform": platform_to_dict(platform),
        "scheduler": scheduler,
        "adversary": adversary,
    }
    if alpha is not None:
        payload["alpha"] = alpha
    return payload


class ServiceClient:
    """Client bound to one ``http://`` base URL, e.g. ``http://127.0.0.1:8080``.

    One client holds one keep-alive connection, so it must not be shared
    between threads: give each thread its own, and close it with
    :meth:`close` or a ``with`` block.  Transport failures raise
    :class:`HttpError`.
    """

    def __init__(self, base_url: str, *, timeout: float = 30.0):
        parts = urlsplit(base_url)
        if parts.scheme != "http" or not parts.hostname:
            raise ValueError(f"expected an http:// URL, got {base_url!r}")
        self._prefix = parts.path.rstrip("/")
        self._http = HttpClient(parts.hostname, parts.port or 80, timeout=timeout)

    def close(self) -> None:
        self._http.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def _call(self, method: str, path: str, payload: Any = None, *, text: bool = False) -> Any:
        body = None if payload is None else json.dumps(payload).encode()
        status, raw = self._http.request(method, self._prefix + path, body)
        if not 200 <= status < 300:
            raise ServiceError(status, json.loads(raw))
        return raw.decode("utf-8") if text else json.loads(raw)

    # -- endpoints ----------------------------------------------------------
    def health(self) -> dict[str, Any]:
        return self._call("GET", "/healthz")

    def metrics(self, format: str = "json") -> Any:
        """Metrics snapshot: a dict for ``json``, text for ``prometheus``."""
        if format == "json":
            return self._call("GET", "/metrics")
        return self._call("GET", f"/metrics?format={format}", text=True)

    def test(
        self,
        taskset: TaskSet,
        platform: Platform,
        scheduler: str = "edf",
        adversary: str = "partitioned",
        *,
        alpha: float | None = None,
    ) -> dict[str, Any]:
        """One feasibility verdict; returns the raw response dict
        (``digest``, ``cached``, ``report``)."""
        return self._call(
            "POST",
            "/v1/test",
            _instance_payload(taskset, platform, scheduler, adversary, alpha),
        )

    def test_report(
        self,
        taskset: TaskSet,
        platform: Platform,
        scheduler: str = "edf",
        adversary: str = "partitioned",
        *,
        alpha: float | None = None,
    ) -> FeasibilityReport:
        """Like :meth:`test`, but rebuilt into a
        :class:`FeasibilityReport` — interchangeable with a direct
        :func:`~repro.core.feasibility.feasibility_test` call."""
        response = self.test(
            taskset, platform, scheduler, adversary, alpha=alpha
        )
        return report_from_dict(response["report"])

    def partition(
        self,
        taskset: TaskSet,
        platform: Platform,
        test: str = "edf",
        *,
        alpha: float = 1.0,
    ) -> dict[str, Any]:
        """A first-fit assignment; returns ``digest``/``cached``/``result``."""
        return self._call(
            "POST",
            "/v1/partition",
            {
                "taskset": taskset_to_dict(taskset),
                "platform": platform_to_dict(platform),
                "test": test,
                "alpha": alpha,
            },
        )

    def batch(
        self,
        instances: Iterable[tuple[TaskSet, Platform]],
        scheduler: str = "edf",
        adversary: str = "partitioned",
        *,
        alpha: float | None = None,
    ) -> dict[str, Any]:
        """Many verdicts at once: ``(taskset, platform)`` pairs that
        share the call's scheduler, adversary and alpha."""
        queries = [
            _instance_payload(taskset, platform, scheduler, adversary, alpha)
            for taskset, platform in instances
        ]
        return self._call("POST", "/v1/batch", {"instances": queries})
