"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``test``        run one of the four theorem feasibility tests on a JSON instance
``generate``    draw a synthetic instance and write it as JSON
``simulate``    partition an instance and simulate it, reporting misses
``experiment``  run an E1–E23 evaluation experiment and print its tables
``constants``   verify / re-optimize the proof constants
``serve``       run the feasibility-query HTTP service (repro.service);
                ``--workers N`` shards it over N worker processes
``loadgen``     drive load at a running service and report RPS/latency
``fuzz``        differential-fuzz the oracle invariant lattice (repro.oracle)
``lint``        run the reproducibility linter (repro.lint, 14 rules, REP001-REP016)
``list``        list available experiments
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

# Each handler imports the modules only it runs (numpy, the experiments,
# the simulator, the workload generators, repro.core itself), so `repro
# serve` does not load them into a front end that never evaluates
# anything, and `repro list` loads only the experiment table.
from . import __version__
from .kernels.backends import BACKENDS

__all__ = ["main", "build_parser"]


def _jobs_arg(value: str) -> int:
    jobs = int(value)
    if jobs < 0:
        raise argparse.ArgumentTypeError(f"jobs must be >= 0, got {jobs}")
    return jobs


def _workers_arg(value: str) -> int:
    workers = int(value)
    if workers < 0:
        raise argparse.ArgumentTypeError(f"workers must be >= 0, got {workers}")
    return workers


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Partitioned feasibility tests for sporadic tasks on "
            "heterogeneous machines (Ahuja, Lu, Moseley — IPPS 2016)"
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("test", help="run a theorem feasibility test on a JSON instance")
    p.add_argument("instance", type=Path, help="JSON with 'taskset' and 'platform'")
    p.add_argument("--scheduler", choices=["edf", "rms"], default="edf")
    p.add_argument("--adversary", choices=["partitioned", "any"], default="partitioned")
    p.add_argument("--alpha", type=float, default=None, help="override speed augmentation")
    p.add_argument(
        "--json",
        action="store_true",
        help="emit the verdict as JSON (the same report schema repro.service serves)",
    )
    p.add_argument(
        "--backend",
        choices=BACKENDS,
        default=None,
        help=(
            "evaluation backend (repro.kernels); verdicts are "
            "bit-identical, the JSON report records the choice"
        ),
    )

    p = sub.add_parser("generate", help="draw a synthetic instance as JSON")
    p.add_argument("output", type=Path)
    p.add_argument("--tasks", type=int, default=16)
    p.add_argument("--machines", type=int, default=4)
    p.add_argument("--ratio", type=float, default=8.0, help="platform s_max/s_min")
    p.add_argument(
        "--stress", type=float, default=0.9, help="total utilization / total speed"
    )
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("simulate", help="partition and simulate an instance")
    p.add_argument("instance", type=Path)
    p.add_argument("--policy", choices=["edf", "rms"], default="edf")
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument(
        "--release", choices=["periodic", "sporadic"], default="periodic"
    )
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("experiment", help="run an evaluation experiment (E1-E23)")
    p.add_argument("id", help="experiment id, e.g. e01")
    p.add_argument("--scale", choices=["quick", "full"], default="full")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--csv", type=Path, default=None, help="also write rows as CSV")
    p.add_argument(
        "--jobs",
        type=_jobs_arg,
        default=None,
        metavar="N",
        help=(
            "worker processes for campaign trials (0 or omitted: all cores; "
            "1: serial in-process). Results are identical for every value."
        ),
    )
    p.add_argument(
        "--backend",
        choices=BACKENDS,
        default=None,
        help=(
            "batch evaluation backend for experiments with kernel-backed "
            "sweeps (E2/E3/E7/E9/E22); curves are bit-identical"
        ),
    )

    p = sub.add_parser("constants", help="verify / re-optimize the proof constants")
    p.add_argument("--optimize", action="store_true")

    p = sub.add_parser(
        "gantt", help="partition, simulate, and draw an ASCII Gantt chart"
    )
    p.add_argument("instance", type=Path)
    p.add_argument("--policy", choices=["edf", "rms"], default="edf")
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--machine", type=int, default=None, help="only this machine")
    p.add_argument("--width", type=int, default=72)
    p.add_argument("--horizon", type=float, default=None)

    p = sub.add_parser(
        "slack", help="sensitivity: scaling margin and per-task slacks"
    )
    p.add_argument("instance", type=Path)
    p.add_argument("--test", default="edf", help="admission test name")
    p.add_argument("--alpha", type=float, default=1.0)

    p = sub.add_parser(
        "serve", help="run the feasibility-query HTTP service"
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8080, help="0 picks an ephemeral port")
    p.add_argument(
        "--cache-size",
        type=int,
        default=1024,
        metavar="N",
        help="canonical-instance verdict cache capacity, per shard",
    )
    p.add_argument(
        "--backend",
        choices=BACKENDS,
        default=None,
        help=(
            "evaluation backend for cache misses (default: scalar, with "
            "no provenance key); when given, responses gain a 'backend' "
            "provenance key"
        ),
    )
    p.add_argument(
        "--workers",
        type=_workers_arg,
        default=0,
        metavar="N",
        help=(
            "shard the verdict cache over N worker processes (0, the "
            "default: one in-process shard evaluated on the event-loop "
            "thread, so a slow miss delays other connections)"
        ),
    )
    p.add_argument(
        "--chaos",
        action="store_true",
        help=argparse.SUPPRESS,  # fault-injection task names; tests/drills only
    )
    p.add_argument(
        "--verbose", action="store_true", help="log every request to stderr"
    )

    p = sub.add_parser(
        "loadgen", help="drive load at a running feasibility service"
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument(
        "--port", type=int, default=None,
        help="port of the service under load (required unless --list-profiles)",
    )
    p.add_argument(
        "--profile",
        default="smoke",
        help="workload profile name (see --list-profiles)",
    )
    p.add_argument(
        "--list-profiles",
        action="store_true",
        help="list profiles and exit",
    )
    p.add_argument(
        "--duration", type=float, default=None, metavar="SECONDS",
        help="override the profile's run duration",
    )
    p.add_argument(
        "--concurrency", type=int, default=None, metavar="N",
        help="override the profile's closed-loop client count",
    )
    p.add_argument(
        "--rate", type=float, default=None, metavar="RPS",
        help="override the profile's open-loop arrival rate",
    )
    p.add_argument(
        "--seed", type=int, default=None, help="override the profile's seed"
    )
    p.add_argument(
        "--json",
        type=Path,
        default=None,
        metavar="PATH",
        help="also write the full report as JSON",
    )

    p = sub.add_parser(
        "fuzz",
        help="differential-fuzz the oracle invariant lattice",
        description=(
            "Draw randomized and boundary-adversarial instances, evaluate "
            "them through every oracle pair (first-fit theorem tests, exact "
            "adversaries, LP, service), and check the invariant lattice. "
            "Violations are shrunk to minimal counterexamples and saved as "
            "JSON repro cases. Findings are bit-identical for every --jobs."
        ),
    )
    p.add_argument("--seed", type=int, default=0, help="campaign root seed")
    p.add_argument(
        "--budget", type=int, default=1000, metavar="N", help="number of trials"
    )
    p.add_argument(
        "--jobs",
        type=_jobs_arg,
        default=1,
        metavar="N",
        help="worker processes (0: all cores; 1: serial in-process)",
    )
    p.add_argument(
        "--profile",
        action="append",
        dest="profiles",
        metavar="NAME",
        default=None,
        help="generator profile (repeatable; default: all)",
    )
    p.add_argument(
        "--check",
        action="append",
        dest="checks",
        metavar="NAME",
        default=None,
        help="invariant to check (repeatable; default: the full lattice)",
    )
    p.add_argument(
        "--campaign",
        default="oracle-fuzz",
        metavar="NAME",
        help="campaign name (folded into per-trial seeds)",
    )
    p.add_argument(
        "--out-dir",
        type=Path,
        default=Path("results/counterexamples"),
        metavar="DIR",
        help="where shrunk counterexamples are persisted",
    )
    p.add_argument(
        "--no-shrink",
        action="store_true",
        help="persist violations as found, without delta-debugging",
    )
    p.add_argument(
        "--replay",
        type=Path,
        default=None,
        metavar="JSON",
        help="replay a saved counterexample instead of fuzzing",
    )
    p.add_argument(
        "--self-test",
        action="store_true",
        help=(
            "inject a deliberately broken Liu-Layland bound and verify the "
            "harness catches and shrinks it"
        ),
    )

    p = sub.add_parser(
        "lint",
        help="run the reproducibility linter (14 rules, REP001-REP016)",
        description=(
            "AST-based static analysis for the repository's numerical and "
            "determinism discipline: tolerance-helper comparisons, seeded "
            "randomness, monotonic clocks, compensated accumulation, "
            "ordered iteration, lock discipline, and quantity dimensions. See "
            "docs/lint.md for the rule catalogue."
        ),
    )
    from .lint.cli import add_lint_arguments

    add_lint_arguments(p)

    sub.add_parser("list", help="list available experiments")
    return parser


def _load_instance(path: Path):
    """The (taskset, platform) in ``path``, or None after printing why the
    file is unreadable or malformed; the caller then exits with the
    usage-error status."""
    from .io_.serialize import load_json, platform_from_dict, taskset_from_dict

    try:
        data = load_json(path)
        return taskset_from_dict(data["taskset"]), platform_from_dict(data["platform"])
    except KeyError as exc:
        reason = f"missing field {exc}"
    except (TypeError, ValueError) as exc:
        reason = str(exc)
    except OSError as exc:
        reason = exc.strerror or str(exc)
    print(f"error: {path}: {reason}", file=sys.stderr)
    return None


def _cmd_test(args: argparse.Namespace) -> int:
    instance = _load_instance(args.instance)
    if instance is None:
        return 2
    taskset, platform = instance
    if args.backend is None:
        from .core.feasibility import feasibility_test

        report = feasibility_test(
            taskset, platform, args.scheduler, args.adversary, alpha=args.alpha
        )
    else:
        from .kernels import test_feasibility_batch

        report = test_feasibility_batch(
            [(taskset, platform)],
            args.scheduler,
            args.adversary,
            alpha=args.alpha,
            backend=args.backend,
        )[0]
    if args.json:
        from .io_.serialize import report_to_dict

        print(
            json.dumps(
                report_to_dict(report, backend=args.backend),
                indent=2,
                sort_keys=True,
            )
        )
        return 0 if report.accepted else 1
    print(f"verdict: {'ACCEPTED' if report.accepted else 'REJECTED'}")
    print(f"alpha: {report.alpha:g}  (theorem {report.theorem})")
    print(report.guarantee)
    if report.accepted:
        for j, idxs in enumerate(report.partition.machine_tasks):
            print(
                f"  machine {j} (speed {platform[j].speed:g}): tasks {list(idxs)} "
                f"load {report.partition.loads[j]:.4f}"
            )
    else:
        cert = report.certificate
        assert cert is not None
        print(
            f"  failing utilization w_n={cert.w_n:.4f}; prefix utilization "
            f"{cert.prefix_utilization:.4f} vs eligible capacity "
            f"{cert.eligible_capacity:.4f}"
            + ("  [certified]" if cert.certifies else "")
        )
    return 0 if report.accepted else 1


def _cmd_generate(args: argparse.Namespace) -> int:
    import numpy as np

    from .io_.serialize import platform_to_dict, save_json, taskset_to_dict
    from .workloads.builder import generate_taskset
    from .workloads.platforms import geometric_platform

    rng = np.random.default_rng(args.seed)
    platform = geometric_platform(args.machines, args.ratio)
    taskset = generate_taskset(
        rng,
        args.tasks,
        args.stress * platform.total_speed,
        u_max=platform.fastest_speed,
    )
    save_json(
        args.output,
        {"taskset": taskset_to_dict(taskset), "platform": platform_to_dict(platform)},
    )
    print(
        f"wrote {args.output}: n={args.tasks} tasks "
        f"(U={taskset.total_utilization:.3f}), m={args.machines} machines "
        f"(S={platform.total_speed:.3f})"
    )
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    import numpy as np

    from .core.partition import first_fit_partition
    from .sim.multiprocessor import simulate_partitioned

    instance = _load_instance(args.instance)
    if instance is None:
        return 2
    taskset, platform = instance
    test = "edf" if args.policy == "edf" else "rms-ll"
    result = first_fit_partition(taskset, platform, test, alpha=args.alpha)
    if not result.success:
        print(
            f"first-fit failed at alpha={args.alpha:g} "
            f"(task {result.failed_task}); nothing to simulate"
        )
        return 1
    rng = np.random.default_rng(args.seed)
    sim = simulate_partitioned(
        taskset,
        platform,
        result,
        args.policy,
        alpha=args.alpha,
        release=args.release,
        rng=rng,
    )
    print(
        f"simulated {sim.total_jobs} jobs across {len(platform)} machines "
        f"at alpha={args.alpha:g} ({args.release} release)"
    )
    print(f"deadline misses: {sim.total_misses}")
    return 0 if not sim.any_miss else 1


def _cmd_experiment(args: argparse.Namespace) -> int:
    import inspect

    from .experiments import get_experiment
    from .runner import telemetry

    fn = get_experiment(args.id)
    kwargs = {"scale": args.scale}
    if args.seed is not None:
        kwargs["seed"] = args.seed
    params = inspect.signature(fn).parameters
    accepts_jobs = "jobs" in params
    if accepts_jobs:
        # None (flag omitted) -> 0 -> resolve to all cores inside the runner.
        kwargs["jobs"] = args.jobs if args.jobs is not None else 0
    elif args.jobs not in (None, 1):
        print(
            f"note: {args.id} has no campaign fan-out; --jobs ignored",
            file=sys.stderr,
        )
    if "backend" in params:
        kwargs["backend"] = args.backend
    elif args.backend is not None:
        print(
            f"note: {args.id} has no kernel-backed sweep; --backend ignored",
            file=sys.stderr,
        )
    with telemetry() as tele:
        result = fn(**kwargs)
    print(result.render())
    if accepts_jobs and tele.runs:
        # Throughput report goes to stderr so stdout stays byte-identical
        # across --jobs values (and clean for redirection into files).
        print(tele.render(), file=sys.stderr)
    if args.csv is not None:
        from .io_.tables import write_csv

        write_csv(args.csv, result.rows)
        print(f"rows written to {args.csv}", file=sys.stderr)
    return 0


def _cmd_constants(args: argparse.Namespace) -> int:
    from .core import constants as C

    for label, pc, sched in (
        ("EDF (Theorem I.3)", C.EDF_LP_CONSTANTS, "edf"),
        ("RMS (Theorem I.4)", C.RMS_LP_CONSTANTS, "rms"),
    ):
        conds = C.conditions(pc, sched)  # type: ignore[arg-type]
        ok = C.constants_valid(pc, sched)  # type: ignore[arg-type]
        print(f"{label}: alpha={pc.alpha}  " + "  ".join(
            f"{k}={v:.6f}" for k, v in conds.items()
        ) + f"  valid={ok}")
    if args.optimize:
        for sched in ("edf", "rms"):
            alpha, pc = C.minimal_alpha(sched)  # type: ignore[arg-type]
            print(
                f"re-optimized {sched}: alpha={alpha:.4f} "
                f"(c_s={pc.c_s:.3f}, c_f={pc.c_f:.3f}, "
                f"f_w={pc.f_w:.3f}, f_f={pc.f_f:.4f})"
            )
    return 0


def _cmd_gantt(args: argparse.Namespace) -> int:
    from .core.partition import first_fit_partition
    from .sim.gantt import render_gantt
    from .sim.multiprocessor import simulate_partitioned

    instance = _load_instance(args.instance)
    if instance is None:
        return 2
    taskset, platform = instance
    test = "edf" if args.policy == "edf" else "rms-ll"
    result = first_fit_partition(taskset, platform, test, alpha=args.alpha)
    if not result.success:
        print(f"first-fit failed at alpha={args.alpha:g}; nothing to draw")
        return 1
    sim = simulate_partitioned(
        taskset,
        platform,
        result,
        args.policy,
        alpha=args.alpha,
        horizon=args.horizon,
    )
    machines = (
        [args.machine] if args.machine is not None else range(len(platform))
    )
    for j in machines:
        trace = sim.traces[j]
        print(f"machine {j} (speed {platform[j].speed:g} x {args.alpha:g}):")
        if trace.jobs:
            print(render_gantt(trace, taskset.tasks, width=args.width))
        else:
            print("  (idle)")
        print()
    return 0


def _cmd_slack(args: argparse.Namespace) -> int:
    from .analysis.sensitivity import (
        critical_tasks,
        ff_acceptance,
        system_scaling_margin,
    )

    instance = _load_instance(args.instance)
    if instance is None:
        return 2
    taskset, platform = instance
    accept = ff_acceptance(platform, args.test, args.alpha)
    if not accept(taskset):
        print(
            f"instance rejected by {args.test} at alpha={args.alpha:g}; "
            "no margin to report"
        )
        return 1
    margin = system_scaling_margin(taskset, accept)
    print(
        f"system scaling margin: {margin:.4f} "
        f"(every WCET can grow {100 * (margin - 1):.1f}%)"
    )
    print("per-task slack (most critical first):")
    for entry in critical_tasks(taskset, accept):
        print(f"  {entry.name:>12s}  x{entry.slack:.3f}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from .service.shard import fork_worker

    # Fork the pool before the front end is imported: a worker holds only
    # what it runs, and its first verdict waits on no second
    # interpreter's start-up.
    pool = [
        fork_worker(
            k, cache_size=args.cache_size, backend=args.backend, chaos=args.chaos
        )
        for k in range(args.workers)
    ]
    from .service.frontend import serve_sharded

    return serve_sharded(
        args.host,
        args.port,
        workers=args.workers,
        cache_size=args.cache_size,
        backend=args.backend,
        chaos=args.chaos,
        quiet=not args.verbose,
        pool=pool,
    )


def _cmd_loadgen(args: argparse.Namespace) -> int:
    from .loadgen import PROFILES, run_load

    if args.list_profiles:
        for profile in PROFILES.values():
            print(f"{profile.name:>12s}  [{profile.mode}] {profile.description}")
        return 0
    if args.port is None:
        print("error: --port is required (or use --list-profiles)", file=sys.stderr)
        return 2
    profile = PROFILES.get(args.profile)
    if profile is None:
        known = ", ".join(sorted(PROFILES))
        print(f"error: unknown profile {args.profile!r}; known: {known}",
              file=sys.stderr)
        return 2
    profile = profile.with_overrides(
        duration=args.duration,
        concurrency=args.concurrency,
        rate=args.rate,
        seed=args.seed,
    )
    report = run_load(args.host, args.port, profile)
    print(report.summary())
    if args.json is not None:
        args.json.write_text(
            json.dumps(report.as_dict(), indent=2, sort_keys=True) + "\n"
        )
        print(f"report written to {args.json}")
    return 0 if report.errors == 0 else 1


def _cmd_fuzz(args: argparse.Namespace) -> int:
    from .oracle import replay_counterexample, run_fuzz, self_test

    if args.replay is not None:
        violations = replay_counterexample(args.replay)
        if violations:
            print(f"REPRODUCED: {args.replay}")
            for v in violations:
                print(f"  [{v.invariant}] {v.detail}")
            return 1
        print(f"no longer reproduces (fixed): {args.replay}")
        return 0
    if args.self_test:
        result = self_test(seed=args.seed)
        print(result.summary())
        return 0 if result.ok else 1
    report = run_fuzz(
        seed=args.seed,
        budget=args.budget,
        jobs=args.jobs,
        profiles=args.profiles,
        checks=args.checks,
        shrink=not args.no_shrink,
        out_dir=args.out_dir,
        campaign_name=args.campaign,
    )
    print(report.summary())
    return 0 if report.ok else 1


def _cmd_lint(args: argparse.Namespace) -> int:
    from .lint.cli import run_lint

    return run_lint(args)


def _cmd_list(_: argparse.Namespace) -> int:
    from .experiments import all_experiments

    for eid, title in all_experiments().items():
        print(f"{eid}  {title}")
    return 0


_HANDLERS = {
    "test": _cmd_test,
    "generate": _cmd_generate,
    "simulate": _cmd_simulate,
    "experiment": _cmd_experiment,
    "constants": _cmd_constants,
    "gantt": _cmd_gantt,
    "slack": _cmd_slack,
    "serve": _cmd_serve,
    "loadgen": _cmd_loadgen,
    "fuzz": _cmd_fuzz,
    "lint": _cmd_lint,
    "list": _cmd_list,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return _HANDLERS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
