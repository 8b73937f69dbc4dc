"""The front end's event loop: one thread over one ``selectors`` selector.

:mod:`repro.service.frontend` writes its request logic as ``async def``
coroutines, and this module drives them.  It provides the part of
asyncio the front end used: futures, tasks, timers, :func:`sleep`,
:func:`wait_for`, :func:`gather` and buffered non-blocking sockets
(:class:`Stream`).  asyncio itself would load ``ssl``, ``subprocess``,
``logging`` and ``concurrent.futures`` into every serving process,
respawned shard workers included, because they are forks of the front
end.

One self-pipe wakes the selector.  Signal numbers arrive on it through
:func:`signal.set_wakeup_fd`, and :meth:`Loop.call_soon_threadsafe`
writes a zero byte to it.  Nothing here starts a thread, so the front
end still holds exactly one when it forks a worker.
"""

# repro: noqa-file[REP006] — a loop and its streams belong to the one
# thread that runs the loop; the only cross-thread entry,
# ``call_soon_threadsafe``, appends to a deque (atomic) and writes to
# the wake-up socket.

from __future__ import annotations

import heapq
import selectors
import signal
import socket
import threading
import time
from collections import deque
from typing import Any, Callable, Coroutine, Generator

__all__ = ["CancelledError", "Future", "Loop", "Stream", "Task", "gather",
           "get_loop", "run", "sleep", "wait_for"]

#: Longest line :meth:`Stream.readline` accepts, newline excluded
#: (asyncio's stream limit); a longer one raises :class:`ValueError`.
LINE_LIMIT = 64 * 1024

#: A stream stops reading from its socket while it buffers more than
#: this and no coroutine waits for more.
_HIGH_WATER = 4 * LINE_LIMIT

_running = threading.local()


class CancelledError(BaseException):
    """Thrown into a cancelled task, and raised by awaiting it."""


def get_loop() -> "Loop":
    """The loop running on this thread."""
    loop = getattr(_running, "loop", None)
    if loop is None:
        raise RuntimeError("no loop is running on this thread")
    return loop


class Future:
    """A result that is not ready yet; ``await`` it from a task."""

    __slots__ = ("_loop", "_done", "_result", "_exc", "_callbacks")

    def __init__(self, loop: "Loop"):
        self._loop = loop
        self._done = False
        self._result: Any = None
        self._exc: BaseException | None = None
        self._callbacks: list[Callable[[Future], None]] = []

    def done(self) -> bool:
        return self._done

    def result(self) -> Any:
        if self._exc is not None:
            raise self._exc
        return self._result

    def set_result(self, value: Any) -> None:
        self._finish(value, None)

    def set_exception(self, exc: BaseException) -> None:
        self._finish(None, exc)

    def _finish(self, value: Any, exc: BaseException | None) -> None:
        if self._done:
            raise RuntimeError("the future is already done")
        self._done, self._result, self._exc = True, value, exc
        for fn in self._callbacks:
            self._loop.call_soon(fn, self)
        self._callbacks = []

    def __await__(self) -> Generator[Future, None, Any]:
        if not self._done:
            yield self
        return self.result()


def _resolve(fut: Future, exc: BaseException | None = None) -> None:
    if not fut._done:
        fut._finish(None, exc)


class Task(Future):
    """Runs a coroutine, one step each time a future it awaits resolves."""

    __slots__ = ("_coro", "_waiting", "_must_cancel")

    def __init__(self, loop: "Loop", coro: Coroutine[Any, Any, Any]):
        super().__init__(loop)
        self._coro = coro
        self._waiting: Future | None = None
        self._must_cancel = False
        loop.call_soon(self._step, None)

    def cancel(self) -> None:
        """Throw :class:`CancelledError` into the coroutine at its next
        step; the future it awaits is left alone (others may share it)."""
        if not self._done:
            self._must_cancel = True
            if self._waiting is not None:
                self._waiting = None
                self._loop.call_soon(self._step, None)

    def _step(self, fut: Future | None) -> None:
        if self._done or fut is not self._waiting:
            return  # a wake-up from a future this task stopped awaiting
        self._waiting = None
        try:
            if self._must_cancel:
                self._must_cancel = False
                waiting = self._coro.throw(CancelledError())
            elif fut is not None and fut._exc is not None:
                waiting = self._coro.throw(fut._exc)
            else:
                waiting = self._coro.send(None if fut is None else fut._result)
        except StopIteration as stop:
            self._finish(stop.value, None)
        except (KeyboardInterrupt, SystemExit) as exc:
            self._finish(None, exc)
            raise
        except BaseException as exc:  # noqa: BLE001 - the task's outcome
            self._finish(None, exc)
        else:
            self._waiting = waiting
            waiting._callbacks.append(self._step)


class _Timer:
    __slots__ = ("when", "fn", "args", "loop", "cancelled")

    def __init__(self, when: float, fn: Callable[..., Any], args: tuple, loop: "Loop"):
        self.when, self.fn, self.args, self.loop = when, fn, args, loop
        self.cancelled = False

    def __lt__(self, other: _Timer) -> bool:
        return self.when < other.when

    def cancel(self) -> None:
        if not self.cancelled:
            self.cancelled = True
            self.loop._cancelled_timers += 1


class Loop:
    """A single-threaded event loop over one selector."""

    def __init__(self) -> None:
        self._selector = selectors.DefaultSelector()
        self._ready: deque[tuple[Callable[..., Any], tuple]] = deque()
        self._timers: list[_Timer] = []
        self._cancelled_timers = 0
        self._watched: dict[int, list[Callable[[], None] | None]] = {}
        self._signals: dict[int, Callable[[], None]] = {}
        self._wake_r, self._wake_w = socket.socketpair()
        self._wake_r.setblocking(False)
        self._wake_w.setblocking(False)
        self.set_reader(self._wake_r.fileno(), self._on_wake)

    def call_soon(self, fn: Callable[..., Any], *args: Any) -> None:
        self._ready.append((fn, args))

    def call_soon_threadsafe(self, fn: Callable[..., Any], *args: Any) -> None:
        """``call_soon`` from any thread; wakes the selector."""
        self._ready.append((fn, args))
        try:
            self._wake_w.send(b"\0")
        except BlockingIOError:
            pass  # the wake-up socket is full, so the loop is awake anyway

    def call_later(self, delay: float, fn: Callable[..., Any], *args: Any) -> _Timer:
        timer = _Timer(time.monotonic() + delay, fn, args, self)
        heapq.heappush(self._timers, timer)
        if self._cancelled_timers > 64 and 2 * self._cancelled_timers > len(self._timers):
            self._timers = [t for t in self._timers if not t.cancelled]
            heapq.heapify(self._timers)
            self._cancelled_timers = 0
        return timer

    def set_reader(self, fd: int, fn: Callable[[], None] | None) -> None:
        """Call ``fn`` whenever ``fd`` is readable; ``None`` stops it."""
        self._watch(fd, 0, fn)

    def set_writer(self, fd: int, fn: Callable[[], None] | None) -> None:
        """Call ``fn`` whenever ``fd`` is writable; ``None`` stops it."""
        self._watch(fd, 1, fn)

    def _watch(self, fd: int, slot: int, fn: Callable[[], None] | None) -> None:
        pair = self._watched.setdefault(fd, [None, None])
        registered = pair != [None, None]
        pair[slot] = fn
        events = (pair[0] is not None) | (pair[1] is not None) << 1
        if not events:
            del self._watched[fd]
            if registered:
                self._selector.unregister(fd)
        elif registered:
            self._selector.modify(fd, events, pair)
        else:
            self._selector.register(fd, events, pair)

    def add_signal_handler(self, signum: int, fn: Callable[[], None]) -> None:
        """Run ``fn`` on the loop when ``signum`` arrives (main thread only)."""
        signal.set_wakeup_fd(self._wake_w.fileno())
        signal.signal(signum, _ignore_signal)
        self._signals[signum] = fn

    def _on_wake(self) -> None:
        try:
            data = self._wake_r.recv(4096)
        except BlockingIOError:
            return
        self._ready.extend((self._signals[s], ()) for s in data if s in self._signals)

    def run(self, coro: Coroutine[Any, Any, Any]) -> Any:
        """Run the loop on this thread until ``coro`` finishes; its result."""
        task = Task(self, coro)
        outer = getattr(_running, "loop", None)
        _running.loop = self
        try:
            while not task._done:
                self._run_once()
        finally:
            _running.loop = outer
        return task.result()

    def _run_once(self) -> None:
        ready, timers = self._ready, self._timers
        timeout = 0.0 if ready else None
        if timers and not ready:
            timeout = max(0.0, timers[0].when - time.monotonic())
        for key, events in self._selector.select(timeout):
            for slot in (0, 1):
                if events & (1 << slot) and key.data[slot] is not None:
                    ready.append((key.data[slot], ()))
        now = time.monotonic()
        while timers and timers[0].when <= now:
            timer = heapq.heappop(timers)
            if timer.cancelled:
                self._cancelled_timers -= 1
            else:
                timer.cancelled = True  # fired: a later cancel() is a no-op
                ready.append((timer.fn, timer.args))
        for _ in range(len(ready)):
            fn, args = ready.popleft()
            try:
                fn(*args)
            except Exception:  # noqa: BLE001 - one callback never stops the loop
                import traceback

                traceback.print_exc()

    def close(self) -> None:
        """Release the selector and the wake-up socket, and give every
        signal this loop handled back its default action."""
        for signum in self._signals:
            signal.signal(signum, signal.SIG_DFL)
        if self._signals:
            signal.set_wakeup_fd(-1)
        self._selector.close()
        self._wake_r.close()
        self._wake_w.close()


def _ignore_signal(signum: int, frame: Any) -> None:
    """Python-level handler; the loop reads the signal off its wake-up fd."""


def run(coro: Coroutine[Any, Any, Any]) -> Any:
    """Run ``coro`` on a fresh loop and return its result."""
    loop = Loop()
    try:
        return loop.run(coro)
    finally:
        loop.close()


async def sleep(delay: float) -> None:
    loop = get_loop()
    fut = Future(loop)
    timer = loop.call_later(delay, _resolve, fut)
    try:
        await fut
    finally:
        timer.cancel()


async def wait_for(coro: Coroutine[Any, Any, Any], timeout: float) -> Any:
    """``await coro``; after ``timeout`` seconds cancel it and raise
    :class:`TimeoutError`."""
    loop = get_loop()
    task = Task(loop, coro)
    timer = loop.call_later(timeout, task.cancel)
    try:
        return await task
    except CancelledError:
        if timer.cancelled:  # it fired
            raise TimeoutError(f"timed out after {timeout} s") from None
        raise
    finally:
        timer.cancel()


async def gather(
    *aws: Future | Coroutine[Any, Any, Any], return_exceptions: bool = False
) -> list[Any]:
    """The results of futures and coroutines run concurrently, in order;
    the first exception, unless ``return_exceptions`` lists it instead."""
    loop = get_loop()
    results = []
    for task in [aw if isinstance(aw, Future) else Task(loop, aw) for aw in aws]:
        try:
            results.append(await task)
        except Exception as exc:
            if not return_exceptions:
                raise
            results.append(exc)
    return results


class Stream:
    """A non-blocking socket with a read buffer and a write buffer.

    A request-level read that has to wait past ``deadline`` (a
    :func:`time.monotonic` value; ``None`` for none) raises
    :class:`TimeoutError`.  Writes never block or raise: what the socket
    does not take at once goes out when it turns writable, and
    :meth:`drain` waits for that, raising :class:`ConnectionError` if
    the peer is gone.
    """

    __slots__ = ("_loop", "_sock", "_fd", "_buf", "_eof", "_paused", "_waiter",
                 "_out", "_flushed", "_error", "deadline")

    def __init__(self, loop: Loop, sock: socket.socket):
        sock.setblocking(False)
        self._loop = loop
        self._sock = sock
        self._fd = sock.fileno()
        self._buf = bytearray()
        self._eof = self._paused = False
        self._waiter: Future | None = None
        self._out = bytearray()
        self._flushed: Future | None = None
        self._error: OSError | None = None
        self.deadline: float | None = None
        loop.set_reader(self._fd, self._on_readable)

    def _on_readable(self) -> None:
        try:
            data = self._sock.recv(_HIGH_WATER)
        except BlockingIOError:
            return
        except OSError:
            data = b""
        self._buf += data
        if not data or (len(self._buf) > _HIGH_WATER and self._waiter is None):
            self._eof = not data
            self._paused = True
            self._loop.set_reader(self._fd, None)
        if self._waiter is not None:
            _resolve(self._waiter)
            self._waiter = None

    async def _more(self, deadline: float | None) -> None:
        """Wait until more bytes arrive or the peer closes."""
        if self._paused:
            self._paused = False
            self._loop.set_reader(self._fd, self._on_readable)
        waiter = self._waiter = Future(self._loop)
        if deadline is None:
            return await waiter
        timer = self._loop.call_later(
            deadline - time.monotonic(), _resolve, waiter, TimeoutError("read deadline passed")
        )
        try:
            await waiter
        finally:
            timer.cancel()

    async def wait_data(self) -> bool:
        """Wait, with no deadline, for a buffered byte; ``False`` at EOF."""
        while not self._buf and not self._eof:
            await self._more(None)
        return bool(self._buf)

    async def readline(self) -> bytes:
        """One line, newline included; at EOF what is left (maybe ``b""``)."""
        buf = self._buf
        while True:
            end = buf.find(b"\n")
            if end > LINE_LIMIT or (end < 0 and len(buf) > LINE_LIMIT):
                raise ValueError(f"line longer than {LINE_LIMIT} bytes")
            if end >= 0 or self._eof:
                line = bytes(buf[: end + 1] if end >= 0 else buf)
                del buf[: len(line)]
                return line
            await self._more(self.deadline)

    async def readexactly(self, n: int) -> bytes:
        """``n`` bytes; :class:`ConnectionError` if the peer closes first."""
        buf = self._buf
        while len(buf) < n:
            if self._eof:
                raise ConnectionError(f"peer closed {n - len(buf)} bytes short")
            await self._more(self.deadline)
        data = bytes(buf[:n])
        del buf[:n]
        return data

    def write(self, data: bytes) -> None:
        if self._error is None and not self._out:
            try:
                sent = self._sock.send(data)
            except BlockingIOError:
                sent = 0
            except OSError as exc:
                return self._fail(exc)
            if sent == len(data):
                return
            data = data[sent:]
            self._loop.set_writer(self._fd, self._on_writable)
        if self._error is None:
            self._out += data

    def _on_writable(self) -> None:
        try:
            del self._out[: self._sock.send(self._out)]
        except BlockingIOError:
            return
        except OSError as exc:
            return self._fail(exc)
        if not self._out:
            self._fail(None)

    async def drain(self) -> None:
        """Wait until every written byte is sent."""
        if self._out:
            self._flushed = self._flushed or Future(self._loop)
            await self._flushed
        if self._error is not None:
            raise ConnectionError(f"stream is gone: {self._error}")

    def _fail(self, exc: OSError | None) -> None:
        """Stop writing: everything is sent (``exc`` is ``None``) or
        nothing more can be."""
        self._error = self._error or exc
        self._out.clear()
        self._loop.set_writer(self._fd, None)
        if self._flushed is not None:
            _resolve(self._flushed)
            self._flushed = None

    def close(self) -> None:
        """Close the socket now; waiting reads see EOF, drains an error."""
        if self._fd < 0:
            return
        self._loop.set_reader(self._fd, None)
        self._fail(ConnectionError("stream closed"))
        self._sock.close()
        self._fd = -1
        self._eof = True
        self._paused = False  # never re-register the closed descriptor
        if self._waiter is not None:
            _resolve(self._waiter)
            self._waiter = None
