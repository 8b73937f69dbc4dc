"""Each process imports only what it runs.

* No process loads scipy, which would cost each interpreter ~45 MB of
  peak RSS and ~0.2 s of start-up: not the serving processes, the
  campaign pool or the first-fit test, and not the §II LP either, whose
  ``beta*`` has a closed form.  Forked pool workers inherit their
  parent's modules, so checking the parent covers the campaign pool
  too.
* A ``repro serve --workers N`` front end never evaluates, so it loads
  neither numpy nor the experiments, simulator or workload generators;
  it runs on its own ``selectors`` loop, so it loads neither asyncio nor
  ``ssl``, and neither does a worker respawned from it.  A shard worker
  never speaks HTTP, so it loads neither asyncio nor the client stack.  numpy arrives with the first lockstep shard: every
  scalar verdict, ``edf-dbf``'s exact demand analysis included, and
  every shard too narrow for the lockstep on ``--backend numpy`` (a
  lone instance of any size, a batch of eight) runs without it.
* The §II LP's verdict ``lp_feasible`` loads no numpy: it compares one
  float.
* Building the ``repro`` argument parser loads none of the linter's
  analysis; only ``repro lint`` does.
* ``import repro.experiments`` and ``repro list`` load only the
  experiment table: no experiment, no ``repro.core``, no serializer and
  no kernels.  Fetching one experiment loads its own module and the
  analysis submodules it uses, not the other experiments, the
  simulator or the rest of the analysis.
* The package roots ``repro``, ``repro.io_``, ``repro.kernels``,
  ``repro.analysis`` and ``repro.lint`` resolve their public names on
  first access (``repro._lazy``), ``repro.service`` its client and
  front-end names.  Their ``__all__`` lists are pinned, every name in
  them resolves, and so does each submodule their export tables name,
  as it did when the roots imported eagerly.
* ``repro serve`` still loads the whole evaluation stack (all of
  ``repro.core``, the kernels, the serializer) before it forks, so
  each shard worker inherits it instead of importing it.
* ``ServiceClient`` loads neither ``urllib.request``, ``http.client``
  nor ``ssl``.
* ``instance_digest`` hashes with CPython's built-in SHA-256, so no
  process that digests loads ``hashlib`` or OpenSSL's ``_hashlib``.

Each check runs in a fresh interpreter, so modules other tests imported
cannot hide a regression.
"""

from __future__ import annotations

import importlib
import os
import pkgutil
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).resolve().parent.parent


def _stdout(code: str) -> str:
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
    return proc.stdout


def _run(code: str) -> list[str]:
    return _stdout(code).split()


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
        """
        from repro import Platform, Task, TaskSet, lp_feasible, lp_stress
        platform = Platform.from_speeds([1.0, 2.0])
        taskset = TaskSet([Task.from_utilization(u, 10.0) for u in (1.5, 1.2)])
        assert lp_feasible(taskset, platform)
        single = TaskSet([Task.from_utilization(0.5, 10.0)])
        assert lp_stress(single, Platform.from_speeds([1.0])) == 0.5
        """,
    ],
    ids=["service", "experiments-cli", "first-fit", "lp"],
)
def test_scipy_not_imported(code):
    probe = textwrap.dedent(code) + "\nimport sys\nprint('scipy' in sys.modules)\n"
    assert _run(probe) == ["False"]


def _loaded(code: str, modules: tuple[str, ...]) -> list[str]:
    probe = (
        textwrap.dedent(code)
        + "\nimport sys\n"
        + f"print(*[m in sys.modules for m in {modules!r}])\n"
    )
    return [m for m, hit in zip(modules, _run(probe)) if hit == "True"]


def test_front_end_loads_no_evaluation_code():
    code = """
    import repro.cli
    repro.cli.build_parser()
    import repro.service.frontend
    """
    heavy = ("numpy", "repro.experiments", "repro.sim", "repro.workloads")
    assert _loaded(code, heavy) == []


def test_front_end_loads_no_asyncio_or_tls():
    """The front end runs on its own selectors loop, so neither it nor a
    worker respawned from it carries asyncio or the TLS stack."""
    code = """
    import repro.cli
    from repro.service.shard import fork_worker
    import repro.service.frontend
    """
    stack = ("asyncio", "ssl", "_ssl", "subprocess", "logging", "concurrent.futures")
    assert _loaded(code, stack) == []


def _loaded_under(code: str, prefixes: tuple[str, ...]) -> list[str]:
    probe = (
        textwrap.dedent(code)
        + "\nimport sys\n"
        + f"print(*sorted(m for m in sys.modules if m.startswith({prefixes!r})))\n"
    )
    return _run(probe)


#: the analysis submodules E22 does not use
_UNUSED_BY_E22 = tuple(
    f"repro.analysis.{name}"
    for name in (
        "hard_instances", "speedup", "ratio", "runtime", "breakdown", "sensitivity", "stats"
    )
)


def test_experiment_table_loads_no_experiment():
    code = "import repro.experiments"
    assert _loaded(code, ("numpy", "repro.sim")) == []
    assert _loaded_under(code, ("repro.experiments.e",)) == []


def test_experiment_table_loads_no_core():
    """The table renders with ``repro.io_.tables`` alone."""
    loaded = _loaded_under("import repro.experiments", ("repro.core", "repro.io_.serialize"))
    assert loaded == []


def test_list_loads_no_core_or_kernels():
    """``repro list`` takes the parser's backend names from
    ``repro.kernels.backends`` and imports nothing it does not print."""
    code = """
    import contextlib, io
    from repro.cli import main
    with contextlib.redirect_stdout(io.StringIO()):
        main(["list"])
    """
    assert _loaded_under(code, ("repro.core", "repro.kernels.batch")) == []


def test_list_loads_no_experiment():
    out = _stdout(textwrap.dedent(
        """
        import sys
        from repro.cli import main
        main(["list"])
        print(*sorted(m for m in sys.modules if m.startswith("repro.experiments.e")))
        """
    )).splitlines()
    from repro.experiments.base import EXPERIMENTS

    assert len(EXPERIMENTS) == 19
    assert out == [f"{eid}  {title}" for eid, (_, title) in EXPERIMENTS.items()] + [""]


def test_one_experiment_loads_only_its_closure():
    code = """
    from repro.experiments import get_experiment
    get_experiment("e22")
    """
    assert _loaded(code, ("repro.sim",) + _UNUSED_BY_E22) == []
    assert _loaded_under(code, ("repro.experiments.e",)) == [
        "repro.experiments.e22_accept_deadline"
    ]


def test_parser_loads_no_lint_analysis():
    """Every ``repro`` process builds the full parser; only ``repro
    lint`` may load the analyzer behind the ``lint`` subcommand, and
    no parser maps libcrypto through ``hashlib``: a ``repro serve``
    worker is forked from the process that built it."""
    code = """
    import repro.cli
    repro.cli.build_parser()
    """
    analysis = tuple(
        f"repro.lint.{name}"
        for name in (
            "engine", "summaries", "callgraph", "selftest", "typeinfer", "unitinfer"
        )
    )
    assert _loaded(code, analysis + ("hashlib", "_hashlib")) == []


def test_serve_loads_the_evaluation_stack_before_it_forks():
    """What ``repro serve`` imports before ``fork_worker`` is what each
    worker inherits instead of importing after the fork."""
    code = """
    import repro.cli
    repro.cli.build_parser()
    from repro.service.shard import fork_worker
    """
    core = importlib.import_module("repro.core")
    stack = tuple(
        f"repro.core.{info.name}" for info in pkgutil.iter_modules(core.__path__)
    ) + ("repro.io_.serialize", "repro.kernels.batch", "repro.kernels.buffers", "repro.kernels.flat")
    assert len(stack) == 14
    assert _loaded(code, stack) == list(stack)


def test_shard_worker_loads_no_http_stack():
    code = "from repro.service.shard import fork_worker"
    http = (
        "asyncio",
        "http.client",
        "urllib.request",
        "repro.service.frontend",
        "repro.service.client",
    )
    assert _loaded(code, http) == []


def test_service_client_loads_no_stdlib_http_stack():
    """``ServiceClient`` rides on the package's own keep-alive client;
    the stdlib HTTP client and TLS stay out of its process."""
    code = """
    from repro.service import ServiceClient
    ServiceClient("http://127.0.0.1:1")
    """
    stdlib_http = ("urllib.request", "http.client", "ssl")
    assert _loaded(code, stdlib_http) == []


def test_shard_worker_loads_no_openssl():
    """The front end digests each query; a worker only reads the digest
    it is handed, so it never maps ``_hashlib`` and libcrypto."""
    code = """
    from repro.service.shard import fork_worker
    import numpy
    """
    assert _loaded(code, ("hashlib", "_hashlib")) == []


def test_instance_digest_loads_no_openssl():
    """A digest runs on CPython's built-in SHA-256, so the front end
    that computes one per query never maps ``_hashlib`` and libcrypto."""
    code = """
    from repro import Platform, Task, TaskSet
    from repro.io_.serialize import instance_digest
    taskset = TaskSet([Task(wcet=2, period=10), Task(wcet=6, period=8)])
    assert len(instance_digest(taskset, Platform.from_speeds([1.0, 2.0]))) == 64
    """
    assert _loaded(code, ("hashlib", "_hashlib")) == []


_SHARD_CORE_PROBE = """
import random, sys
from repro import Platform, Task, TaskSet
rng = random.Random(3)
def draw(n, m):
    pf = Platform.from_speeds([1.0 + j / m for j in range(m)])
    share = 0.85 * pf.total_speed / n
    return TaskSet([Task.from_utilization(share * rng.uniform(0.5, 1.5), 10.0) for _ in range(n)]), pf
instances = [draw(n, m) for n, m in SHAPES]
from repro.io_.serialize import canonical_task_order
from repro.service.protocol import TestUnit
from repro.service.shard import ShardCore
core = ShardCore(backend="numpy")
units = [
    TestUnit(f"{k:064x}", ts, tuple(canonical_task_order(ts)), pf, "rms", "partitioned", None)
    for k, (ts, pf) in enumerate(instances)
]
answers = CALL
print(len(answers), all(not cached for _, cached in answers), 'numpy' in sys.modules)
"""


@pytest.mark.parametrize(
    "shapes, call, numpy_loaded",
    [
        # lone instances and a batch of eight: the flat loop answers,
        # numpy stays out
        ([(1, 1), (32, 32)], "[core.test(u) for u in units]", False),
        ([(128, 64)], "[core.test(u) for u in units]", False),
        ([(32, 32)] * 8, "core.batch(units)", False),
        # a shard as wide as E19's takes the lockstep
        ([(16, 4)] * 256, "core.batch(units)", True),
    ],
    ids=["small-singles", "large-single", "batch-of-eight", "wide-shard"],
)
def test_numpy_arrives_with_the_first_lockstep_shard(shapes, call, numpy_loaded):
    """A ``--backend numpy`` worker imports numpy with the first shard
    the size rule sends to the lockstep, not with its first verdict."""
    probe = _SHARD_CORE_PROBE.replace("SHAPES", repr(shapes)).replace("CALL", call)
    assert _run(probe) == [str(len(shapes)), "True", str(numpy_loaded)]


def test_scalar_verdicts_load_no_numpy():
    """A worker started without ``--backend`` answers every admission
    test and every theorem configuration without loading numpy."""
    out = _run(textwrap.dedent(
        """
        import sys
        from typing import get_args
        from repro import Platform, Task, TaskSet, feasibility_test, first_fit_partition
        from repro.core.bounds import ADMISSION_TEST_NAMES
        from repro.core.feasibility import Adversary, Scheduler
        platform = Platform.from_speeds([1.0, 2.0])
        constrained = TaskSet([
            Task(wcet=2, period=10, deadline=5),
            Task(wcet=3, period=8, deadline=6),
            Task(wcet=1, period=4, deadline=3),
        ])
        for name in ADMISSION_TEST_NAMES:
            first_fit_partition(constrained, platform, name)
        implicit = TaskSet([Task(wcet=2, period=10), Task(wcet=6, period=8)])
        for scheduler in get_args(Scheduler):
            for adversary in get_args(Adversary):
                feasibility_test(implicit, platform, scheduler, adversary)
        print(len(ADMISSION_TEST_NAMES), 'numpy' in sys.modules)
        """
    ))
    assert int(out[0]) > 0 and out[1:] == ["False"]


def test_lp_feasible_loads_no_numpy():
    code = """
    from repro import Platform, Task, TaskSet, lp_feasible
    platform = Platform.from_speeds([1.0, 2.0])
    assert lp_feasible(TaskSet([Task.from_utilization(u, 10.0) for u in (1.5, 1.2)]), platform)
    """
    assert _loaded(code, ("numpy",)) == []


def test_admission_tests_resolve_without_their_modules_preloaded():
    out = _run(textwrap.dedent(
        """
        import sys
        from repro.core.bounds import ADMISSION_TEST_NAMES, admission_test
        from repro.service.shard import fork_worker
        print('repro.baselines' in sys.modules)
        print(all(admission_test(name).name == name for name in ADMISSION_TEST_NAMES))
        """
    ))
    assert out == ["False", "True"]


def test_admission_test_table_names_every_registration():
    """A module that registers an admission test on import must be in
    ``ADMISSION_TEST_MODULES``, or worker processes would refuse it."""
    out = _run(textwrap.dedent(
        """
        import importlib, pkgutil, repro
        from repro.core.bounds import ADMISSION_TESTS, ADMISSION_TEST_NAMES
        for info in pkgutil.walk_packages(repro.__path__, 'repro.'):
            if not info.name.endswith('.__main__'):
                importlib.import_module(info.name)
        print(*sorted(ADMISSION_TESTS))
        print('|', *ADMISSION_TEST_NAMES)
        """
    ))
    split = out.index("|")
    assert out[:split] == out[split + 1:]


@pytest.mark.parametrize(
    "package",
    [
        "repro",
        "repro.analysis",
        "repro.core",
        "repro.experiments",
        "repro.io_",
        "repro.kernels",
        "repro.lint",
        "repro.service",
        "repro.workloads",
    ],
)
def test_public_names_still_resolve(package):
    out = _run(textwrap.dedent(
        f"""
        import importlib
        module = importlib.import_module({package!r})
        print(len(module.__all__))
        print(*[name for name in module.__all__ if not hasattr(module, name)])
        """
    ))
    assert int(out[0]) > 0 and out[1:] == []


@pytest.mark.parametrize(
    "package, submodule",
    [
        ("repro", "core"),
        ("repro.io_", "serialize"),
        ("repro.io_", "tables"),
        ("repro.kernels", "batch"),
    ],
)
def test_submodules_resolve_as_attributes(package, submodule):
    """After a bare ``import package``, ``package.submodule`` resolves
    without an import of its own, as it did when the root was eager."""
    code = f"import {package}\nprint({package}.{submodule}.__name__)"
    assert _run(code) == [f"{package}.{submodule}"]


def test_lazy_exports_contract():
    """An unknown name raises ``AttributeError``; ``from pkg import
    submodule`` still imports a submodule no export names; a resolved
    name is cached in the package namespace."""
    out = _run(textwrap.dedent(
        """
        import repro.lint
        print(hasattr(repro.lint, "no_such_name"), "Finding" in vars(repro.lint))
        from repro.lint import cli
        print(cli.__name__, repro.lint.Finding is repro.lint.findings.Finding)
        print("Finding" in vars(repro.lint))
        """
    ))
    assert out == ["False", "False", "repro.lint.cli", "True", "True"]


#: each lazily resolved package's ``__all__``, in order, as it was when
#: the package imported its submodules eagerly
_PUBLIC_NAMES = {
    "repro": """
        ALPHA_EDF_LP ALPHA_EDF_PARTITIONED ALPHA_RMS_LP ALPHA_RMS_PARTITIONED
        FeasibilityReport Machine PartitionResult Platform Task TaskSet
        edf_test_vs_any edf_test_vs_partitioned feasibility_test first_fit_partition
        lp_feasible lp_stress rms_test_vs_any rms_test_vs_partitioned __version__
    """,
    "repro.io_": """
        canonical_instance canonical_task_order certificate_from_dict
        certificate_to_dict instance_digest load_json partition_result_from_dict
        partition_result_to_dict platform_from_dict platform_to_dict
        report_from_dict report_to_dict save_json task_from_dict task_to_dict
        taskset_from_dict taskset_to_dict format_table rows_to_csv write_csv
    """,
    "repro.kernels": """
        BACKENDS BATCH_TESTS Instance KernelCacheStats first_fit_batch
        kernel_cache_stats reset_kernel_caches resolve_backend test_feasibility_batch
    """,
    "repro.analysis": """
        AcceptanceCurve Tester acceptance_sweep exact_edf_tester exact_rms_tester
        ff_tester lp_tester BreakdownStudy breakdown_utilizations HardInstance
        search_hard_instance TaskSlack critical_tasks ff_acceptance per_task_slack
        system_scaling_margin MinAlphaResult alpha_success_profile
        min_alpha_first_fit RuntimePoint runtime_scaling SpeedupStudy
        empirical_speedup_study Summary bootstrap_ci empirical_cdf summarize
    """,
    "repro.service": """
        CacheStats LRUCache HttpClient HttpError ServiceClient ServiceError
        MetricsRegistry ShardCore ShardedFrontend serve_sharded FieldError
        PartitionQuery TestQuery ValidationError parse_batch_request
        parse_partition_request parse_test_request
    """,
    "repro.lint": """
        EngineStats Finding LintConfig LintResult ProgramRule ProjectGraph Rule
        all_rules get_rule lint_changed lint_paths lint_source lint_sources
        run_self_test
    """,
}


@pytest.mark.parametrize("package", list(_PUBLIC_NAMES))
def test_lazy_package_keeps_its_public_names(package):
    module = importlib.import_module(package)
    assert module.__all__ == _PUBLIC_NAMES[package].split()
