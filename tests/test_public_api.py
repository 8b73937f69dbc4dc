"""Public-API hygiene: exports resolve, and every public item is documented.

Deliverable (e) of the reproduction requires doc comments on every public
item; this test makes that a regression guarantee rather than a hope.
"""

from __future__ import annotations

import importlib
import inspect

import pytest

PACKAGES = [
    "repro",
    "repro.core",
    "repro.core.model",
    "repro.core.bounds",
    "repro.core.rta",
    "repro.core.partition",
    "repro.core.feasibility",
    "repro.core.lp",
    "repro.core.constants",
    "repro.core.certificates",
    "repro.core.dbf",
    "repro.core.dbf_approx",
    "repro.sim",
    "repro.sim.engine",
    "repro.sim.jobs",
    "repro.sim.policies",
    "repro.sim.uniprocessor",
    "repro.sim.multiprocessor",
    "repro.sim.global_sched",
    "repro.sim.trace",
    "repro.sim.validators",
    "repro.sim.hyperperiod",
    "repro.sim.gantt",
    "repro.workloads",
    "repro.workloads.uunifast",
    "repro.workloads.randfixedsum",
    "repro.workloads.periods",
    "repro.workloads.platforms",
    "repro.workloads.builder",
    "repro.workloads.campaigns",
    "repro.workloads.suites",
    "repro.baselines",
    "repro.baselines.exact",
    "repro.baselines.andersson_tovar",
    "repro.baselines.heuristics",
    "repro.baselines.ptas",
    "repro.analysis",
    "repro.analysis.ratio",
    "repro.analysis.acceptance",
    "repro.analysis.speedup",
    "repro.analysis.runtime",
    "repro.analysis.stats",
    "repro.analysis.sensitivity",
    "repro.analysis.breakdown",
    "repro.analysis.hard_instances",
    "repro.runner",
    "repro.runner.executor",
    "repro.runner.telemetry",
    "repro.experiments",
    "repro.io_",
    "repro.io_.serialize",
    "repro.io_.tables",
    "repro.cli",
]


@pytest.mark.parametrize("module_name", PACKAGES)
def test_module_imports_and_is_documented(module_name):
    module = importlib.import_module(module_name)
    assert module.__doc__ and module.__doc__.strip(), (
        f"{module_name} lacks a module docstring"
    )


@pytest.mark.parametrize("module_name", PACKAGES)
def test_all_exports_resolve(module_name):
    module = importlib.import_module(module_name)
    for name in getattr(module, "__all__", []):
        assert hasattr(module, name), f"{module_name}.__all__ lists missing {name}"


@pytest.mark.parametrize(
    "module_name",
    [m for m in PACKAGES if not m.endswith(("cli", "experiments"))],
)
def test_public_callables_have_docstrings(module_name):
    module = importlib.import_module(module_name)
    exported = getattr(module, "__all__", None)
    names = exported if exported is not None else [
        n for n in dir(module) if not n.startswith("_")
    ]
    for name in names:
        obj = getattr(module, name)
        if inspect.isfunction(obj) or inspect.isclass(obj):
            if getattr(obj, "__module__", "").startswith("repro"):
                assert obj.__doc__ and obj.__doc__.strip(), (
                    f"{module_name}.{name} lacks a docstring"
                )


def test_version_is_exposed():
    import repro

    assert repro.__version__ == "1.0.0"
