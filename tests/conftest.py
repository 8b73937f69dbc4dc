"""Shared fixtures for the test suite."""

from __future__ import annotations

import asyncio
import os
import threading

import numpy as np
import pytest

# Pin hash randomization for every subprocess the suite spawns (runner
# workers, CLI invocations): campaign seeding is digest-based and hash-
# independent by design, and this keeps the determinism tests honest —
# a regression back to hash() would fail under any fixed PYTHONHASHSEED
# rather than flake across interpreter launches.
os.environ.setdefault("PYTHONHASHSEED", "0")

from repro.core.model import Platform, Task, TaskSet
from repro.service.frontend import ShardedFrontend
from repro.workloads.platforms import (
    big_little_platform,
    geometric_platform,
    identical_platform,
)


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic per-test RNG."""
    return np.random.default_rng(0xC0FFEE)


@pytest.fixture
def small_taskset() -> TaskSet:
    """Three tasks with utilizations 0.2, 0.75, 0.75."""
    return TaskSet(
        [
            Task(wcet=2, period=10, name="a"),
            Task(wcet=6, period=8, name="b"),
            Task(wcet=3, period=4, name="c"),
        ]
    )


@pytest.fixture
def unit_machine_platform() -> Platform:
    return identical_platform(1, 1.0)


@pytest.fixture
def hetero_platform() -> Platform:
    """Four machines, speeds 1 .. 8 geometric."""
    return geometric_platform(4, 8.0)


@pytest.fixture
def biglittle() -> Platform:
    return big_little_platform(2, 4, big_speed=3.0, little_speed=1.0)


class InThreadServer:
    """A ``repro serve --workers 0`` front end on an ephemeral port,
    serving from its own event-loop thread inside the test process."""

    def __init__(self, **kwargs):
        self.frontend = ShardedFrontend(workers=0, **kwargs)
        self.loop = asyncio.new_event_loop()
        self.thread = threading.Thread(target=self.loop.run_forever, daemon=True)
        self.thread.start()
        self._run(self.frontend.start())
        self.host = self.frontend.host
        self.port = self.frontend.bound_port
        self.url = f"http://{self.host}:{self.port}"

    def _run(self, coro):
        return asyncio.run_coroutine_threadsafe(coro, self.loop).result(timeout=60)

    def close(self) -> None:
        self._run(self.frontend.drain())
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(timeout=10)
        self.loop.close()


@pytest.fixture
def start_server():
    """Factory for extra in-thread servers, drained at test teardown."""
    servers: list[InThreadServer] = []

    def start(**kwargs) -> InThreadServer:
        servers.append(InThreadServer(**kwargs))
        return servers[-1]

    yield start
    for server in servers:
        server.close()


@pytest.fixture(scope="module")
def live_server():
    """One shared in-thread server per test module (256-entry cache)."""
    server = InThreadServer(cache_size=256)
    yield server
    server.close()
