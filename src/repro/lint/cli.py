"""``repro lint`` — the command-line entry point for :mod:`repro.lint`.

Exit status: 0 when clean (modulo noqa), 1 when findings or parse
errors remain (or, with ``--show-unused-noqa``, when unused
suppressions exist), 2 on a usage or configuration error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import config_from_sources
from .reporters import FORMATS, render

__all__ = ["add_lint_arguments", "run_lint"]


def add_lint_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the ``repro lint`` flags to an (sub)parser.

    Imports nothing from the analysis, so building the ``repro`` parser
    in a process that never lints (a serving front end, a campaign) does
    not load the engine, summaries, call graph or type inference.
    """
    parser.add_argument(
        "paths",
        nargs="*",
        type=Path,
        default=[Path("src")],
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--format",
        choices=sorted(FORMATS),
        default="text",
        help="report format (sarif feeds GitHub code scanning)",
    )
    parser.add_argument(
        "--root",
        type=Path,
        default=None,
        help="repository root paths are reported relative to (default: cwd)",
    )
    parser.add_argument(
        "--select",
        action="append",
        metavar="REPxxx",
        default=None,
        help="run only these rules (repeatable)",
    )
    parser.add_argument(
        "--ignore",
        action="append",
        metavar="REPxxx",
        default=None,
        help="skip these rules (repeatable)",
    )
    parser.add_argument(
        "--show-unused-noqa",
        action="store_true",
        help="list unused noqa suppressions and fail if any exist",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help=(
            "worker processes for the per-file phase (0 = all cores; "
            "findings are bit-identical to --jobs 1)"
        ),
    )
    parser.add_argument(
        "--cache",
        type=Path,
        default=None,
        metavar="FILE",
        help=(
            "incremental-analysis cache file; unchanged modules whose "
            "project imports are also unchanged are replayed, not "
            "re-analyzed"
        ),
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="ignore --cache and analyze every file",
    )
    parser.add_argument(
        "--changed",
        action="store_true",
        help=(
            "treat the given paths as changed files: analyze the whole "
            "program but report findings only for them, unless the "
            "import graph says the change is non-local"
        ),
    )
    parser.add_argument(
        "--stats",
        action="store_true",
        help=(
            "print execution stats: phase-1 (files, cache hits, jobs) "
            "and phase-2 (effect- and unit-fixpoint iterations, "
            "per-rule timing)"
        ),
    )
    parser.add_argument(
        "--min-cache-hit-rate",
        type=float,
        default=None,
        metavar="RATIO",
        help=(
            "fail when phase-1 cache hits / files falls below RATIO in "
            "[0, 1]; run against a warm --cache in CI to catch changes "
            "that silently bust the cache key (requires --cache)"
        ),
    )
    parser.add_argument(
        "--self-test",
        action="store_true",
        help=(
            "fault injection: plant one violation per rule and verify "
            "each is caught at the right file/line"
        ),
    )


def run_lint(args: argparse.Namespace) -> int:
    from .engine import lint_changed, lint_paths
    from .selftest import run_self_test

    if args.self_test:
        result = run_self_test()
        print(result.summary())
        return 0 if result.ok else 1

    root = (args.root or Path.cwd()).resolve()
    try:
        config = config_from_sources(
            root,
            select=tuple(args.select) if args.select else None,
            ignore=tuple(args.ignore) if args.ignore else None,
            show_unused_noqa=args.show_unused_noqa,
            jobs=args.jobs,
            cache=None if args.no_cache else args.cache,
        )
    except ValueError as exc:
        print(f"repro lint: {exc}", file=sys.stderr)
        return 2
    try:
        if args.changed:
            result, fallback = lint_changed(args.paths, config)
            if fallback is not None:
                print(f"repro lint: whole-program report ({fallback})")
        else:
            result = lint_paths(args.paths, config)
    except KeyError as exc:
        print(f"repro lint: unknown rule {exc.args[0]}", file=sys.stderr)
        return 2

    print(render(result, args.format, show_unused=args.show_unused_noqa))
    if args.stats:
        s = result.stats
        print(
            f"stats: {s.files} file(s), {s.analyzed} analyzed, "
            f"{s.cache_hits} cache hit(s), {s.cache_invalidated} "
            f"invalidated by imports, jobs={s.jobs}"
        )
        timings = " ".join(
            f"{rule}={secs * 1000:.1f}ms"
            for rule, secs in sorted(s.rule_timings.items())
        )
        print(
            f"phase2: {s.fixpoint_iterations} effect-fixpoint + "
            f"{s.unit_fixpoint_iterations} unit-fixpoint "
            f"iteration(s){'; ' + timings if timings else ''}"
        )
    code = result.exit_code(fail_on_unused=args.show_unused_noqa)
    if args.min_cache_hit_rate is not None:
        floor = args.min_cache_hit_rate
        if not 0.0 <= floor <= 1.0:
            print(
                f"repro lint: --min-cache-hit-rate must be in [0, 1], "
                f"got {floor}",
                file=sys.stderr,
            )
            return 2
        if args.no_cache or args.cache is None:
            print(
                "repro lint: --min-cache-hit-rate requires --cache "
                "(there is no cache to measure)",
                file=sys.stderr,
            )
            return 2
        s = result.stats
        rate = (s.cache_hits / s.files) if s.files else 1.0
        if rate < floor:
            print(
                f"repro lint: cache hit rate {rate:.1%} "
                f"({s.cache_hits}/{s.files} file(s)) is below the "
                f"--min-cache-hit-rate floor {floor:.1%} — a change has "
                "likely busted the incremental-cache key",
                file=sys.stderr,
            )
            return max(code, 1)
    return code
