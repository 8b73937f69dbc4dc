"""Only solving the §II LP may load scipy.

scipy costs each interpreter that imports it ~45 MB of peak RSS and
~0.2 s of start-up, and the serving processes, the campaign pool and
the first-fit test never solve an LP.  Each check runs in a fresh
interpreter, so modules other tests imported cannot hide a regression.
Forked pool workers inherit their parent's modules, so checking the
parent covers the campaign pool too.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).resolve().parent.parent


def _run(code: str) -> list[str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


@pytest.mark.parametrize(
    "code",
    [
        "import repro.service.frontend, repro.service.shard",
        "import repro.experiments, repro.cli",
        """
        from repro import Platform, Task, TaskSet, feasibility_test, first_fit_partition
        taskset = TaskSet([Task(wcet=2, period=10), Task(wcet=6, period=8)])
        platform = Platform.from_speeds([1.0, 2.0])
        assert feasibility_test(taskset, platform).accepted
        assert first_fit_partition(taskset, platform).success
        """,
    ],
    ids=["service", "experiments-cli", "first-fit"],
)
def test_scipy_not_imported(code):
    probe = textwrap.dedent(code) + "\nimport sys\nprint('scipy' in sys.modules)\n"
    assert _run(probe) == ["False"]


def test_lp_imports_scipy_on_first_solve():
    out = _run(textwrap.dedent(
        """
        import sys
        from repro import Platform, Task, TaskSet, lp_feasible, lp_stress
        print('scipy' in sys.modules)
        platform = Platform.from_speeds([1.0, 2.0])
        taskset = TaskSet([Task.from_utilization(u, 10.0) for u in (1.5, 1.2)])
        print(lp_feasible(taskset, platform))
        single = TaskSet([Task.from_utilization(0.5, 10.0)])
        print(round(lp_stress(single, Platform.from_speeds([1.0])), 6))
        print('scipy.optimize' in sys.modules)
        """
    ))
    assert out == ["False", "True", "0.5", "True"]
