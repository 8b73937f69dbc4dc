"""The front end's event loop (``repro.service.loop``) on its own.

Tasks, cancellation, timers, ``wait_for``/``gather`` and the buffered
socket stream, each over a real selector and a real ``socketpair``.
The HTTP behaviour built on them is tested in ``test_service.py`` and
``test_shard.py``.
"""

from __future__ import annotations

import socket
import threading
import time

import pytest

from repro.service.loop import (
    LINE_LIMIT,
    CancelledError,
    Future,
    Loop,
    Stream,
    Task,
    gather,
    get_loop,
    run,
    sleep,
    wait_for,
)


async def _value(x, delay=0.0):
    await sleep(delay)
    return x


async def _await(fut):
    return await fut


async def _fail(delay=0.0):
    await sleep(delay)
    raise ValueError("boom")


def test_run_returns_the_result_and_raises_the_error():
    assert run(_value(3)) == 3
    with pytest.raises(ValueError, match="boom"):
        run(_fail())
    with pytest.raises(RuntimeError, match="no loop"):
        get_loop()


def test_gather_keeps_order_and_runs_concurrently():
    async def main():
        started = time.monotonic()
        out = await gather(_value(1, 0.2), _value(2, 0.1), _value(3, 0.0))
        return out, time.monotonic() - started

    out, took = run(main())
    assert out == [1, 2, 3]
    assert took < 0.3  # 0.2 + 0.1 if the sleeps ran one after another


def test_gather_takes_running_tasks_and_can_return_errors():
    async def main():
        loop = get_loop()
        tasks = [Task(loop, _value(1, 0.05)), Task(loop, _fail(0.01))]
        kept = await gather(*tasks, return_exceptions=True)
        with pytest.raises(ValueError):
            await gather(_value(1), _fail())
        return kept

    ok, err = run(main())
    assert ok == 1 and isinstance(err, ValueError)


def test_wait_for_times_out_and_cancels_the_inner_task():
    cleaned = []

    async def slow():
        try:
            await sleep(10)
        finally:
            cleaned.append(True)

    async def main():
        with pytest.raises(TimeoutError):
            await wait_for(slow(), 0.05)
        return await wait_for(_value(7, 0.01), 1.0)

    assert run(main()) == 7
    assert cleaned == [True]


def test_cancel_leaves_a_shared_future_alone():
    async def main():
        loop = get_loop()
        shared = Future(loop)

        async def waiter():
            return await shared

        first, second = Task(loop, waiter()), Task(loop, waiter())
        await sleep(0)
        first.cancel()
        shared.set_result("ok")
        with pytest.raises(CancelledError):
            await first
        return await second

    assert run(main()) == "ok"


def test_call_soon_threadsafe_wakes_a_blocked_loop():
    loop = Loop()
    stop = Future(loop)
    timer = threading.Timer(0.1, loop.call_soon_threadsafe, (stop.set_result, "woken"))
    timer.start()
    try:
        assert loop.run(_await(stop)) == "woken"
    finally:
        timer.join(timeout=10)
        loop.close()
    assert not timer.is_alive()


def test_stream_reads_lines_and_exact_counts():
    ours, peer = socket.socketpair()

    async def main():
        stream = Stream(get_loop(), ours)
        peer.sendall(b"GET / HTTP/1.1\r\nab")
        line = await stream.readline()
        peer.sendall(b"cdef")
        exact = await stream.readexactly(5)
        stream.write(b"reply")
        await stream.drain()
        peer.close()
        tail = await stream.readline()
        with pytest.raises(ConnectionError):
            await stream.readexactly(1)
        stream.close()
        return line, exact, tail

    assert run(main()) == (b"GET / HTTP/1.1\r\n", b"abcde", b"f")


def test_stream_rejects_an_overlong_line():
    ours, peer = socket.socketpair()

    async def main():
        stream = Stream(get_loop(), ours)
        peer.sendall(b"x" * (LINE_LIMIT + 2))
        try:
            with pytest.raises(ValueError, match="longer than"):
                await stream.readline()
        finally:
            stream.close()
            peer.close()

    run(main())


def test_stream_deadline_times_out_a_stalled_read():
    ours, peer = socket.socketpair()

    async def main():
        stream = Stream(get_loop(), ours)
        peer.sendall(b"partial")
        assert await stream.wait_data()
        stream.deadline = time.monotonic() + 0.05
        try:
            with pytest.raises(TimeoutError):
                await stream.readexactly(100)
        finally:
            stream.close()
            peer.close()

    run(main())


def test_stream_write_buffers_until_the_peer_reads():
    ours, peer = socket.socketpair()
    blob = b"y" * (4 << 20)  # more than a socketpair buffers

    async def main():
        stream = Stream(get_loop(), ours)
        stream.write(blob)
        got = bytearray()

        def read_all():
            while len(got) < len(blob):
                got.extend(peer.recv(1 << 16))

        reader = threading.Thread(target=read_all)
        reader.start()
        await stream.drain()
        stream.close()
        return reader, got

    reader, got = run(main())
    reader.join(timeout=10)
    assert not reader.is_alive()
    assert got == blob
    peer.close()
