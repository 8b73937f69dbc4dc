"""Tests for :mod:`repro.lint` — rules, noqa, config, reporters, CLI.

Layers covered:

* fixture snippets under ``tests/fixtures/lint/`` with expected finding
  lists declared in a ``# lint-expect:`` header, linted under a virtual
  path inside each rule's default scope;
* the fault-injection self-test (one planted violation per rule, caught
  at the right file/line);
* the meta-test: ``repro lint src/`` on this very repository is clean;
* unit tests for suppressions, the ``[tool.repro-lint]`` keys, the
  reporters (text, JSON, SARIF 2.1.0, GitHub workflow commands),
  selection, and the CLI.
"""

from __future__ import annotations

import ast
import json
import re
import textwrap
from pathlib import Path

import pytest

from repro.cli import main
from repro.lint import (
    LintConfig,
    all_rules,
    lint_changed,
    lint_paths,
    lint_source,
    lint_sources,
    run_self_test,
)
from repro.lint.callgraph import IMPURE_TAGS, ProjectGraph
from repro.lint.engine import LintResult, attach_parents
from repro.lint.findings import Finding
from repro.lint.noqa import NoqaScanner
from repro.lint.registry import FileContext, ProgramRule, resolve_selection
from repro.lint.reporters import (
    render_github,
    render_json,
    render_sarif,
    render_text,
)
from repro.lint.selftest import PLANTED_CASES, PLANTED_PROGRAMS
from repro.lint.summaries import build_module_summary

REPO_ROOT = Path(__file__).resolve().parent.parent
FIXTURES = REPO_ROOT / "tests" / "fixtures" / "lint"
PROGRAM_FIXTURES = FIXTURES / "programs"

_EXPECT_RE = re.compile(r"(REP\d{3})@(\d+)")
_PATH_RE = re.compile(r"lint-fixture-path:\s*(\S+)")


def _fixture_cases():
    for path in sorted(FIXTURES.glob("*.py")):
        source = path.read_text()
        header = source.splitlines()[:2]
        vpath = _PATH_RE.search(header[0]).group(1)
        expect = sorted(
            (rule, int(line)) for rule, line in _EXPECT_RE.findall(header[1])
        )
        yield pytest.param(source, vpath, expect, id=path.stem)


def _program_fixture_cases():
    """Each subdirectory of ``programs/`` is one multi-module program."""
    for case_dir in sorted(p for p in PROGRAM_FIXTURES.iterdir() if p.is_dir()):
        files: dict[str, str] = {}
        expect: list[tuple[str, str, int]] = []
        for path in sorted(case_dir.glob("*.py")):
            source = path.read_text()
            header = source.splitlines()[:2]
            vpath = _PATH_RE.search(header[0]).group(1)
            files[vpath] = source
            expect.extend(
                (rule, vpath, int(line))
                for rule, line in _EXPECT_RE.findall(header[1])
            )
        yield pytest.param(files, sorted(expect), id=case_dir.name)


class TestFixtures:
    """Every fixture produces exactly its declared finding list."""

    @pytest.mark.parametrize("source,vpath,expect", list(_fixture_cases()))
    def test_fixture(self, source, vpath, expect):
        findings = lint_source(source, vpath, LintConfig())
        got = sorted((f.rule, f.line) for f in findings)
        assert got == expect

    def test_fixture_dir_is_nonempty(self):
        file_rules = [
            r for r in all_rules().values() if not isinstance(r, ProgramRule)
        ]
        program_rules = [
            r for r in all_rules().values() if isinstance(r, ProgramRule)
        ]
        # one single-file fixture per per-file rule plus the noqa and
        # clean modules ...
        assert len(list(FIXTURES.glob("*.py"))) >= len(file_rules) + 2
        # ... and at least one multi-module program per program rule
        assert len(list(PROGRAM_FIXTURES.iterdir())) >= len(program_rules)


class TestProgramFixtures:
    """Multi-module programs produce exactly their declared findings."""

    @pytest.mark.parametrize("files,expect", list(_program_fixture_cases()))
    def test_program_fixture(self, files, expect):
        findings = lint_sources(files, LintConfig())
        got = sorted((f.rule, f.path, f.line) for f in findings)
        assert got == expect

    def test_single_module_alone_misses_the_program_finding(self):
        """The cross-module REP001 fixture's violation is undetectable
        from its module alone — the proof that the rule is genuinely
        interprocedural."""
        case_dir = PROGRAM_FIXTURES / "tolerance_escape"
        source = (case_dir / "chk.py").read_text()
        findings = lint_source(source, "src/repro/core/chk.py", LintConfig())
        assert findings == []


class TestSelfTest:
    """Fault injection: plant one violation per rule, expect detection."""

    def test_all_planted_violations_detected(self):
        result = run_self_test()
        assert result.ok, result.summary()

    def test_every_rule_has_a_planted_case(self):
        planted = {c.rule for c in PLANTED_CASES}
        planted |= {p.rule for p in PLANTED_PROGRAMS}
        assert planted == set(all_rules())

    def test_program_cases_span_at_least_two_modules(self):
        for program in PLANTED_PROGRAMS:
            assert len(program.files) >= 2, program.rule

    def test_detects_a_silently_broken_rule(self):
        """If a rule stops firing, the self-test must fail — that is its
        entire reason to exist."""
        case = next(c for c in PLANTED_CASES if c.rule == "REP004")
        # "fix" the planted module: the violation disappears, so a run
        # against this source must NOT satisfy the expectation
        fixed = case.source.replace("load += u", "load = load + u")
        findings = lint_source(fixed, case.path, LintConfig())
        assert not any(
            f.rule == case.rule and f.line == case.line for f in findings
        )


@pytest.fixture(scope="module")
def real_src_serial() -> LintResult:
    """One cold, serial, uncached analysis of the real ``src/``, shared
    by every test here that reads it."""
    return lint_paths([REPO_ROOT / "src"], LintConfig(root=REPO_ROOT))


class TestMetaLint:
    """This repository holds itself to the discipline it ships."""

    def test_src_is_clean(self, real_src_serial):
        result = real_src_serial
        assert result.parse_errors == []
        assert result.findings == [], "\n".join(
            f.render() for f in result.findings
        )

    def test_no_unused_suppressions_in_src(self, real_src_serial):
        result = real_src_serial
        assert result.unused_suppressions == [], "\n".join(
            s.render() for s in result.unused_suppressions
        )


class TestNoqa:
    def test_line_suppression_scoped_to_code(self):
        src = "def f(a: float, b: float):\n    return a <= b  # repro: noqa[REP001]\n"
        assert lint_source(src, "src/repro/core/x.py") == []

    def test_bare_noqa_suppresses_all_rules(self):
        src = "def f(a: float, b: float):\n    return a <= b  # repro: noqa\n"
        assert lint_source(src, "src/repro/core/x.py") == []

    def test_wrong_code_does_not_suppress(self):
        src = "def f(a: float, b: float):\n    return a <= b  # repro: noqa[REP002]\n"
        findings = lint_source(src, "src/repro/core/x.py")
        assert [f.rule for f in findings] == ["REP001"]

    def test_file_level_pragma(self):
        src = (
            "# repro: noqa-file[REP001]\n"
            "def f(a: float, b: float):\n"
            "    return a <= b\n"
            "def g(a: float, b: float):\n"
            "    return a >= b\n"
        )
        assert lint_source(src, "src/repro/core/x.py") == []

    def test_docstring_mention_is_not_a_suppression(self):
        src = (
            '"""Docs may say: use `# repro: noqa[REP001]` to silence."""\n'
            "def f(a: float, b: float):\n"
            "    return a <= b\n"
        )
        findings = lint_source(src, "src/repro/core/x.py")
        assert [f.rule for f in findings] == ["REP001"]

    def test_unused_suppression_reported(self):
        scanner = NoqaScanner("x.py", "a = 1  # repro: noqa[REP001]\n")
        assert scanner.filter([]) == []
        assert len(scanner.unused) == 1
        assert scanner.unused[0].codes == ("REP001",)

    def test_used_suppression_not_reported(self):
        scanner = NoqaScanner("x.py", "a = b <= c  # repro: noqa[REP001]\n")
        finding = Finding(
            path="x.py", line=1, col=5, rule="REP001", message="m", snippet="s"
        )
        assert scanner.filter([finding]) == []
        assert scanner.unused == []

    def test_retired_code_in_used_suppression_reported(self, tmp_path):
        """A multi-code noqa that matched through one code still reports
        the codes no registered rule has."""
        source = (FIXTURES / "noqa_retired_ids.py").read_text()
        vpath = _PATH_RE.search(source.splitlines()[0]).group(1)
        (tmp_path / vpath).parent.mkdir(parents=True)
        (tmp_path / vpath).write_text(source)
        result = lint_paths(["src"], LintConfig(root=tmp_path))
        assert result.findings == [] and result.suppressed == 2
        assert [(s.line, s.codes) for s in result.unused_suppressions] == [
            (3, ("REP010",)),
            (9, ("REP007",)),
        ]


class TestSelection:
    def test_select_restricts(self):
        src = (
            "import random\n"
            "def f(a: float, b: float):\n"
            "    random.random()\n"
            "    return a <= b\n"
        )
        cfg = LintConfig(select=("REP002",))
        findings = lint_source(src, "src/repro/core/x.py", cfg)
        assert [f.rule for f in findings] == ["REP002"]

    def test_ignore_drops(self):
        src = "def f(a: float, b: float):\n    return a <= b\n"
        cfg = LintConfig(ignore=("REP001",))
        assert lint_source(src, "src/repro/core/x.py", cfg) == []

    def test_unknown_rule_raises(self):
        with pytest.raises(KeyError, match="REP999"):
            resolve_selection(("REP999",), None)

    def test_rules_skip_tests_paths(self):
        src = "def f(a: float, b: float):\n    return a <= b\n"
        assert lint_source(src, "tests/test_x.py") == []

    def test_path_scoping(self):
        # REP001 is scoped to core/ and baselines/: the same source in
        # the service package is out of scope
        src = "def f(a: float, b: float):\n    return a <= b\n"
        assert lint_source(src, "src/repro/service/x.py") == []


class TestReporters:
    def _result(self):
        result = LintResult(files=2)
        result.findings = [Finding(
            path="src/repro/core/x.py", line=3, col=5, rule="REP001",
            message="bare float comparison", snippet="return a <= b",
        )]
        return result

    def test_text_format(self):
        out = render_text(self._result())
        assert "src/repro/core/x.py:3:5: REP001" in out
        assert "1 finding(s) in 2 file(s)" in out

    def test_json_format(self):
        data = json.loads(render_json(self._result()))
        assert data["files"] == 2
        assert data["findings"][0]["rule"] == "REP001"
        assert data["findings"][0]["line"] == 3

    def test_sarif_shape(self):
        """The SARIF 2.1.0 skeleton GitHub code scanning requires."""
        doc = json.loads(render_sarif(self._result()))
        assert doc["version"] == "2.1.0"
        assert "sarif-schema-2.1.0" in doc["$schema"]
        (run,) = doc["runs"]
        driver = run["tool"]["driver"]
        assert driver["name"] == "repro-lint"
        assert {r["id"] for r in driver["rules"]} == set(all_rules())
        for rule_meta in driver["rules"]:
            assert rule_meta["shortDescription"]["text"]
            assert rule_meta["fullDescription"]["text"]
        (res,) = run["results"]
        assert res["ruleId"] == "REP001"
        assert res["ruleIndex"] == 0
        assert res["level"] == "error"
        loc = res["locations"][0]["physicalLocation"]
        assert loc["artifactLocation"]["uri"] == "src/repro/core/x.py"
        assert loc["region"]["startLine"] == 3
        # Finding.col is 1-based already; SARIF must carry it verbatim
        assert loc["region"]["startColumn"] == 5

    def test_sarif_columns_stay_one_based(self):
        """A finding in column 1 must report startColumn 1 (not 2): the
        1-based column contract, pinned."""
        result = LintResult(files=1)
        result.findings = [Finding(
            path="src/repro/core/x.py", line=3, col=1, rule="REP001",
            message="m", snippet="s",
        )]
        doc = json.loads(render_sarif(result))
        region = doc["runs"][0]["results"][0]["locations"][0][
            "physicalLocation"]["region"]
        assert region["startColumn"] == 1

    def test_sarif_partial_fingerprints_survive_line_drift(self):
        """partialFingerprints reuse the snippet-keyed Finding.fingerprint, so
        the same finding on a different line keeps its fingerprint and
        GitHub code scanning does not re-open it."""
        def doc_for(line):
            result = LintResult(files=1)
            result.findings = [Finding(
                path="src/repro/core/x.py", line=line, col=5, rule="REP001",
                message="m", snippet="return a <= b",
            )]
            return json.loads(render_sarif(result))

        def fp(doc):
            return doc["runs"][0]["results"][0]["partialFingerprints"]

        drifted = fp(doc_for(40))
        assert fp(doc_for(3)) == drifted
        assert list(drifted) == ["reproLintFingerprint/v1"]
        assert len(drifted["reproLintFingerprint/v1"]) == 20

    def test_sarif_fingerprint_changes_with_snippet(self):
        result = LintResult(files=1)
        result.findings = [Finding(
            path="src/repro/core/x.py", line=3, col=5, rule="REP001",
            message="m", snippet="return a <= b * 2.0",
        )]
        doc = json.loads(render_sarif(result))
        changed = doc["runs"][0]["results"][0]["partialFingerprints"]
        result.findings = [Finding(
            path="src/repro/core/x.py", line=3, col=5, rule="REP001",
            message="m", snippet="return a <= b",
        )]
        original = json.loads(render_sarif(result))
        assert changed != original["runs"][0]["results"][0][
            "partialFingerprints"]

    def test_github_format(self):
        out = render_github(self._result())
        lines = out.splitlines()
        assert lines[0] == (
            "::error file=src/repro/core/x.py,line=3,endLine=3,col=5,"
            "title=REP001::[REP001] bare float comparison"
        )
        assert lines[-1] == "1 finding(s) in 2 file(s)"

    def test_github_format_escapes_workflow_metacharacters(self):
        result = LintResult(files=1)
        result.findings = [Finding(
            path="src/repro/core/x.py", line=3, col=1, rule="REP001",
            message="50% slower\r\nthan `x`", snippet="s",
        )]
        first = render_github(result).splitlines()[0]
        # %, CR and LF must travel as %25 / %0D / %0A or the workflow
        # command is cut short at the first raw newline
        assert "[REP001] 50%25 slower%0D%0Athan `x`" in first

    def test_sarif_rule_index_consistent(self):
        doc = json.loads(render_sarif(self._result()))
        run = doc["runs"][0]
        rules = run["tool"]["driver"]["rules"]
        res = run["results"][0]
        assert rules[res["ruleIndex"]]["id"] == res["ruleId"]


class TestCLI:
    def _write_violation(self, tmp_path):
        pkg = tmp_path / "src" / "repro" / "core"
        pkg.mkdir(parents=True)
        (pkg / "bad.py").write_text(
            "def f(a: float, b: float):\n    return a <= b\n"
        )
        return tmp_path

    def test_exit_one_on_findings(self, tmp_path, capsys):
        root = self._write_violation(tmp_path)
        code = main([
            "lint", str(root / "src"), "--root", str(root),
        ])
        assert code == 1
        out = capsys.readouterr().out
        assert "REP001" in out

    def test_exit_zero_when_clean(self, tmp_path, capsys):
        pkg = tmp_path / "src" / "repro" / "core"
        pkg.mkdir(parents=True)
        (pkg / "ok.py").write_text("x = 1\n")
        code = main(["lint", str(tmp_path / "src"), "--root", str(tmp_path)])
        assert code == 0

    def test_github_format_via_cli(self, tmp_path, capsys):
        root = self._write_violation(tmp_path)
        code = main([
            "lint", str(root / "src"), "--root", str(root),
            "--format", "github",
        ])
        assert code == 1
        out = capsys.readouterr().out
        assert "::error file=src/repro/core/bad.py,line=2," in out
        assert "[REP001]" in out

    def test_unused_noqa_reported_via_flag(self, tmp_path, capsys):
        pkg = tmp_path / "src" / "repro" / "core"
        pkg.mkdir(parents=True)
        (pkg / "ok.py").write_text("x = 1  # repro: noqa[REP001]\n")
        assert main([
            "lint", str(tmp_path / "src"), "--root", str(tmp_path),
        ]) == 0
        assert main([
            "lint", str(tmp_path / "src"), "--root", str(tmp_path),
            "--show-unused-noqa",
        ]) == 1
        assert "unused noqa" in capsys.readouterr().out

    def test_stats_phase2_line(self, tmp_path, capsys):
        root = self._write_violation(tmp_path)
        main([
            "lint", str(root / "src"), "--root", str(root),
            "--stats",
        ])
        out = capsys.readouterr().out
        phase2 = [ln for ln in out.splitlines() if ln.startswith("phase2:")]
        assert len(phase2) == 1
        assert re.search(
            r"\d+ effect-fixpoint \+ \d+ unit-fixpoint iteration", phase2[0]
        )
        # per-rule timings ride on the same line, keyed by rule id
        assert re.search(r"REP\d{3}=\d+\.\d+ms", phase2[0])

    def test_sarif_output_parses(self, tmp_path, capsys):
        root = self._write_violation(tmp_path)
        main([
            "lint", str(root / "src"), "--root", str(root),
            "--format", "sarif",
        ])
        doc = json.loads(capsys.readouterr().out)
        assert doc["version"] == "2.1.0"
        assert doc["runs"][0]["results"]

    def test_self_test_flag(self, capsys):
        assert main(["lint", "--self-test"]) == 0
        assert "self-test OK" in capsys.readouterr().out

    def test_unknown_rule_exit_two(self, tmp_path, capsys):
        assert main([
            "lint", str(tmp_path), "--root", str(tmp_path),
            "--select", "REP999",
        ]) == 2

    def test_baseline_flag_is_unknown(self, tmp_path, capsys):
        """A noqa with a reason is the only way to accept a finding."""
        with pytest.raises(SystemExit) as exc:
            main(["lint", "--baseline", "x", str(tmp_path)])
        assert exc.value.code == 2
        assert "unrecognized arguments: --baseline" in capsys.readouterr().err

    def test_pyproject_keys_are_honoured(self, tmp_path, capsys):
        root = self._write_violation(tmp_path)
        (root / "pyproject.toml").write_text(
            '[tool.repro-lint]\nselect = ["REP002"]\n'
            '[tool.repro-lint.rules.REP001]\ninclude = ["repro/core/"]\n'
        )
        args = ["lint", str(root / "src"), "--root", str(root)]
        assert main(args) == 0
        assert main(args + ["--select", "REP001"]) == 1

    @pytest.mark.parametrize(
        "entry",
        ['selct = ["REP001"]', 'baseline = "lint-baseline.json"'],
        ids=["typo", "baseline"],
    )
    def test_unknown_pyproject_key_exit_two(self, tmp_path, capsys, entry):
        """A typo'd or retired key fails loudly instead of being dropped
        (a dropped ``selct`` would silently run every rule)."""
        root = self._write_violation(tmp_path)
        (root / "pyproject.toml").write_text(f"[tool.repro-lint]\n{entry}\n")
        assert main(["lint", str(root / "src"), "--root", str(root)]) == 2
        err = capsys.readouterr().err
        key = entry.split(" ", 1)[0]
        assert f"unknown [tool.repro-lint] key(s) {key!r}" in err

    @pytest.mark.parametrize(
        "flag,rule",
        [("--select", "REP007"), ("--ignore", "REP010"), ("--select", "REP017")],
    )
    def test_retired_rule_id_is_unknown(self, tmp_path, capsys, flag, rule):
        """Folded IDs are gone, not aliased: naming one fails loudly."""
        assert main([
            "lint", str(tmp_path), "--root", str(tmp_path), flag, rule,
        ]) == 2
        assert f"unknown rule {rule!r}" in capsys.readouterr().err

    def test_parse_error_reported(self, tmp_path, capsys):
        pkg = tmp_path / "src" / "repro" / "core"
        pkg.mkdir(parents=True)
        (pkg / "broken.py").write_text("def f(:\n")
        assert main([
            "lint", str(tmp_path / "src"), "--root", str(tmp_path),
        ]) == 1
        assert "parse error" in capsys.readouterr().out

    def _clean_tree_with_cache(self, tmp_path):
        pkg = tmp_path / "src" / "repro" / "core"
        pkg.mkdir(parents=True)
        for k in range(4):
            (pkg / f"ok{k}.py").write_text(f"x = {k}\n")
        return tmp_path, tmp_path / ".lint-cache"

    def test_min_cache_hit_rate_passes_on_warm_cache(self, tmp_path, capsys):
        root, cache = self._clean_tree_with_cache(tmp_path)
        argv = [
            "lint", str(root / "src"), "--root", str(root),
            "--cache", str(cache),
        ]
        assert main(argv) == 0  # cold run populates the cache
        assert main(argv + ["--min-cache-hit-rate", "0.99"]) == 0

    def test_min_cache_hit_rate_fails_on_cold_cache(self, tmp_path, capsys):
        root, cache = self._clean_tree_with_cache(tmp_path)
        assert main([
            "lint", str(root / "src"), "--root", str(root),
            "--cache", str(cache), "--min-cache-hit-rate", "0.5",
        ]) == 1
        err = capsys.readouterr().err
        assert "cache hit rate" in err
        assert "busted" in err

    def test_min_cache_hit_rate_requires_cache(self, tmp_path, capsys):
        root, cache = self._clean_tree_with_cache(tmp_path)
        assert main([
            "lint", str(root / "src"), "--root", str(root),
            "--min-cache-hit-rate", "0.5",
        ]) == 2
        assert "requires --cache" in capsys.readouterr().err
        assert main([
            "lint", str(root / "src"), "--root", str(root),
            "--cache", str(cache), "--no-cache",
            "--min-cache-hit-rate", "0.5",
        ]) == 2

    def test_min_cache_hit_rate_rejects_out_of_range(self, tmp_path, capsys):
        root, cache = self._clean_tree_with_cache(tmp_path)
        assert main([
            "lint", str(root / "src"), "--root", str(root),
            "--cache", str(cache), "--min-cache-hit-rate", "1.5",
        ]) == 2
        assert "[0, 1]" in capsys.readouterr().err


class TestRuleEdgeCases:
    """Targeted cases beyond the fixture files."""

    def test_rep001_assert_exempt(self):
        src = textwrap.dedent(
            """\
            def f(a: float, b: float):
                assert a <= b
                return a
            """
        )
        assert lint_source(src, "src/repro/core/x.py") == []

    def test_rep002_seeded_default_rng_ok(self):
        src = "import numpy as np\nrng = np.random.default_rng(42)\n"
        assert lint_source(src, "src/repro/workloads/x.py") == []

    def test_rep002_applies_everywhere_outside_tests(self):
        src = "import random\nrandom.seed(0)\n"
        findings = lint_source(src, "src/repro/analysis/x.py")
        assert [f.rule for f in findings] == ["REP002"]

    def test_rep003_perf_counter_allowed(self):
        src = "import time\nstart = time.perf_counter()\n"
        assert lint_source(src, "src/repro/experiments/x.py") == []

    def test_rep004_nested_function_not_loop(self):
        # a += inside a function defined inside a loop body is its own
        # scope; the accumulation heuristic must not cross the boundary
        src = textwrap.dedent(
            """\
            def outer(items):
                for item in items:
                    def inner(base: float, delta: float) -> float:
                        base += delta
                        return base
            """
        )
        assert lint_source(src, "src/repro/core/x.py") == []

    def test_rep005_sorted_generator_ok(self):
        src = "def f(s: set):\n    return sorted(x for x in s)\n"
        assert lint_source(src, "src/repro/io_/x.py") == []

    def test_rep006_lock_wrapped_ok(self):
        src = textwrap.dedent(
            """\
            class Cache:
                def put(self, key, value):
                    with self._lock:
                        self._entries[key] = value
            """
        )
        assert lint_source(src, "src/repro/service/x.py") == []

    def test_rep006_private_helper_judged_by_its_callers(self):
        src = textwrap.dedent(
            """\
            class Cache:
                def put(self, key, value):
                    with self._lock:
                        self._insert(key, value)

                def _insert(self, key, value):
                    self._entries[key] = value

                def tally(self, key):
                    self._count(key)

                def _count(self, key):
                    self._misses[key] = 1
            """
        )
        findings = lint_source(src, "src/repro/service/x.py")
        assert [(f.rule, f.line) for f in findings] == [("REP006", 13)]
        assert "caller chain" in findings[0].message

    def test_rep006_scoped_to_service(self):
        src = textwrap.dedent(
            """\
            class State:
                def bump(self):
                    self._count = 1
            """
        )
        assert lint_source(src, "src/repro/runner/x.py") == []


def _make_project(tmp_path):
    """A small three-module project with one cross-module REP001 (in
    beta) and one local REP001 (in gamma)."""
    pkg = tmp_path / "src" / "repro" / "core"
    pkg.mkdir(parents=True)
    (pkg / "alpha.py").write_text(
        "def weight(n) -> float:\n    return n / 2\n"
    )
    (pkg / "beta.py").write_text(
        "from repro.core.alpha import weight\n"
        "\n"
        "\n"
        "def heavy(n, cap: float) -> bool:\n"
        "    return weight(n) <= cap\n"
    )
    (pkg / "gamma.py").write_text(
        "def g(a: float, b: float):\n    return a <= b\n"
    )
    return tmp_path


class TestCacheAndParallel:
    """The incremental cache and the parallel phase-1 fan-out must be
    invisible in the output: bit-identical findings, observable only
    through the engine stats."""

    def _config(self, root, **kw):
        return LintConfig(root=root, **kw)

    def test_cold_then_warm_identical_and_warm_skips(self, tmp_path):
        root = _make_project(tmp_path)
        cache = tmp_path / "lint-cache.pickle"
        config = self._config(root, cache_path=cache)
        cold = lint_paths(["src"], config)
        assert cold.stats.analyzed == cold.stats.files > 0
        assert cold.stats.cache_hits == 0
        assert [(f.rule, f.path) for f in cold.findings] == [
            ("REP001", "src/repro/core/beta.py"),
            ("REP001", "src/repro/core/gamma.py"),
        ]

        warm = lint_paths(["src"], self._config(root, cache_path=cache))
        # warm-cache skip is asserted via engine stats, not timing
        assert warm.stats.cache_hits == warm.stats.files
        assert warm.stats.analyzed == 0
        assert render_text(warm) == render_text(cold)
        assert warm.exit_code() == cold.exit_code()

    def test_transitive_invalidation_via_import_graph(self, tmp_path):
        root = _make_project(tmp_path)
        cache = tmp_path / "lint-cache.pickle"
        lint_paths(["src"], self._config(root, cache_path=cache))

        # edit alpha: beta (imports alpha) must be re-analyzed too, even
        # though beta's own content is unchanged
        alpha = root / "src" / "repro" / "core" / "alpha.py"
        alpha.write_text("def weight(n) -> float:\n    return n / 4\n")
        result = lint_paths(["src"], self._config(root, cache_path=cache))
        assert result.stats.analyzed == 2  # alpha (edited) + beta (dep)
        assert result.stats.cache_invalidated == 1  # beta, by imports
        assert result.stats.cache_hits == result.stats.files - 2
        # the interprocedural finding is still there
        assert ("REP001", "src/repro/core/beta.py") in {
            (f.rule, f.path) for f in result.findings
        }

    def test_effect_facts_invalidate_through_import_graph(self, tmp_path):
        """Phase-2 effect facts must track *transitive* edits: making a
        helper impure resurfaces REP011 at an unchanged memoized caller
        in another module on the next warm run."""
        pkg = tmp_path / "src" / "repro" / "core"
        pkg.mkdir(parents=True)
        helper = pkg / "helper.py"
        helper.write_text("def weigh(n):\n    return n * 2\n")
        (pkg / "consume.py").write_text(
            "from functools import lru_cache\n"
            "\n"
            "from repro.core.helper import weigh\n"
            "\n"
            "\n"
            "@lru_cache(maxsize=None)\n"
            "def cached_weigh(n):\n"
            "    return weigh(n)\n"
        )
        cache = tmp_path / "lint-cache.pickle"
        clean = lint_paths(
            ["src"], self._config(tmp_path, cache_path=cache)
        )
        assert clean.findings == []

        # helper turns impure; consume.py is byte-identical but its
        # cached analysis must be invalidated via the import graph and
        # the recomputed fixpoint must carry the new effect into REP011
        helper.write_text(
            "import time\n"
            "\n"
            "\n"
            "def weigh(n):\n"
            "    return n * time.time()\n"
        )
        result = lint_paths(
            ["src"], self._config(tmp_path, cache_path=cache)
        )
        assert result.stats.cache_invalidated == 1  # consume.py, by imports
        rep011 = [f for f in result.findings if f.rule == "REP011"]
        assert [(f.path, f.line) for f in rep011] == [
            ("src/repro/core/consume.py", 7)
        ]
        assert "wall-clock" in rep011[0].message

    def test_fixpoint_iterations_surface_in_stats(self, tmp_path):
        root = _make_project(tmp_path)
        result = lint_paths(["src"], self._config(root))
        # REP011 queries effects for every function, so the fixpoint ran
        assert result.stats.fixpoint_iterations >= 1
        stats_json = json.loads(render_json(result))["stats"]
        assert (
            stats_json["fixpoint_iterations"]
            == result.stats.fixpoint_iterations
        )
        # wall-clock timings would break bit-identity across runs
        assert "rule_timings" not in stats_json

    def test_cache_discarded_on_rule_selection_change(self, tmp_path):
        root = _make_project(tmp_path)
        cache = tmp_path / "lint-cache.pickle"
        lint_paths(["src"], self._config(root, cache_path=cache))
        narrowed = self._config(
            root, cache_path=cache, select=("REP001",)
        )
        result = lint_paths(["src"], narrowed)
        # different selection: the cache must not replay old findings
        assert result.stats.cache_hits == 0
        assert {f.rule for f in result.findings} == {"REP001"}

    def test_corrupt_cache_degrades_to_cold_start(self, tmp_path):
        root = _make_project(tmp_path)
        cache = tmp_path / "lint-cache.pickle"
        config = self._config(root, cache_path=cache)
        expected = render_text(lint_paths(["src"], config))
        cache.write_bytes(b"\x80\x04 definitely not a cache")
        result = lint_paths(["src"], config)
        assert result.stats.cache_hits == 0
        assert render_text(result) == expected

    def test_parallel_jobs_bit_identical(self, tmp_path):
        root = _make_project(tmp_path)
        serial = lint_paths(["src"], self._config(root))
        parallel = lint_paths(["src"], self._config(root, jobs=2))
        assert parallel.stats.jobs == 2
        assert render_text(parallel) == render_text(serial)
        # JSON differs only in the stats block, by design
        par_json = json.loads(render_json(parallel))
        ser_json = json.loads(render_json(serial))
        par_json.pop("stats")
        ser_json.pop("stats")
        assert par_json == ser_json

    def test_jobs_and_warm_cache_identical_on_real_src(self, tmp_path, real_src_serial):
        """The acceptance criterion, verbatim: ``repro lint src/`` with
        ``--jobs 4`` and with a warm cache are byte-identical to the
        cold serial run, and the warm run demonstrably skips every
        unchanged module (via stats, not timing)."""
        serial = real_src_serial
        cache = tmp_path / "lint-cache.pickle"
        cold_parallel = lint_paths(
            [REPO_ROOT / "src"],
            LintConfig(root=REPO_ROOT, jobs=4, cache_path=cache),
        )
        warm = lint_paths(
            [REPO_ROOT / "src"],
            LintConfig(root=REPO_ROOT, jobs=4, cache_path=cache),
        )
        assert render_text(cold_parallel) == render_text(serial)
        assert render_text(warm) == render_text(serial)
        assert cold_parallel.exit_code() == serial.exit_code()
        assert warm.exit_code() == serial.exit_code()
        assert warm.stats.cache_hits == warm.stats.files == serial.files
        assert warm.stats.analyzed == 0


class TestLintChanged:
    """Pre-commit mode: change-scoped reporting with a whole-program
    fallback when the import graph says the change is non-local."""

    def test_local_change_scopes_the_report(self, tmp_path):
        root = _make_project(tmp_path)
        config = LintConfig(root=root)
        # gamma is imported by nothing and is in no registry package
        result, fallback = lint_changed(
            ["src/repro/core/gamma.py"], config, search_paths=["src"]
        )
        assert fallback is None
        assert {f.path for f in result.findings} == {
            "src/repro/core/gamma.py"
        }
        assert [f.rule for f in result.findings] == ["REP001"]

    def test_imported_module_falls_back_to_whole_program(self, tmp_path):
        root = _make_project(tmp_path)
        config = LintConfig(root=root)
        # alpha is imported by beta: the change is non-local
        result, fallback = lint_changed(
            ["src/repro/core/alpha.py"], config, search_paths=["src"]
        )
        assert fallback is not None and "non-local" in fallback
        # full report: beta's and gamma's REP001 both present
        assert {f.path for f in result.findings} == {
            "src/repro/core/beta.py",
            "src/repro/core/gamma.py",
        }

    def test_registry_package_change_falls_back(self, tmp_path):
        root = _make_project(tmp_path)
        rules = root / "src" / "repro" / "lint" / "rules"
        rules.mkdir(parents=True)
        (rules / "__init__.py").write_text("from . import rep901_demo\n")
        (rules / "rep901_demo.py").write_text("REGISTERED = True\n")
        config = LintConfig(root=root)
        result, fallback = lint_changed(
            ["src/repro/lint/rules/rep901_demo.py"], config, search_paths=["src"]
        )
        assert fallback is not None and "registry" in fallback

    def test_changed_mode_via_cli(self, tmp_path, capsys):
        root = _make_project(tmp_path)
        code = main([
            "lint", "src/repro/core/gamma.py", "--root", str(root),
            "--changed",
        ])
        assert code == 1
        out = capsys.readouterr().out
        assert "gamma.py" in out and "beta.py" not in out


class TestNoqaSpans:
    """Suppressions match anywhere in the statement's lineno-end_lineno
    span, not just the finding's anchor line."""

    _MULTILINE = textwrap.dedent(
        """\
        def f(a: float, b: float):
            return (a
                    <= b){noqa}
        """
    )

    def test_suppression_on_anchor_line(self):
        src = textwrap.dedent(
            """\
            def f(a: float, b: float):
                return (a  # repro: noqa[REP001]
                        <= b)
            """
        )
        assert lint_source(src, "src/repro/core/x.py") == []

    def test_suppression_on_closing_line(self):
        src = self._MULTILINE.format(noqa="  # repro: noqa[REP001]")
        assert lint_source(src, "src/repro/core/x.py") == []

    def test_without_suppression_still_fires(self):
        src = self._MULTILINE.format(noqa="")
        findings = lint_source(src, "src/repro/core/x.py")
        assert [f.rule for f in findings] == ["REP001"]
        (finding,) = findings
        assert finding.last_line > finding.line  # the span is real

    def test_span_suppression_counts_as_used(self):
        src = self._MULTILINE.format(noqa="  # repro: noqa[REP001]")
        scanner = NoqaScanner("src/repro/core/x.py", src)
        raw = lint_source(src, "src/repro/core/x.py", apply_noqa=False)
        assert scanner.filter(raw) == []
        assert scanner.unused == []

    def test_noqa_outside_span_is_unused(self):
        src = textwrap.dedent(
            """\
            def f(a: float, b: float):
                return (a
                        <= b)


            x = 1  # repro: noqa[REP001]
            """
        )
        scanner = NoqaScanner("src/repro/core/x.py", src)
        raw = lint_source(src, "src/repro/core/x.py", apply_noqa=False)
        assert len(scanner.filter(raw)) == 1  # finding not suppressed
        assert len(scanner.unused) == 1  # and the noqa matched nothing

    def test_loop_body_noqa_does_not_silence_header_finding(self):
        """A block statement's span covers its header only: a noqa on a
        body line must not reach a finding anchored on the ``for``."""
        src = textwrap.dedent(
            """\
            def digest(task_ids: set):
                out = []
                for tid in task_ids:
                    out.append(tid)  # repro: noqa[REP005]
                return out
            """
        )
        findings = lint_source(src, "src/repro/io_/x.py")
        assert [f.rule for f in findings] == ["REP005"]


class TestTypeInferEdgeCases:
    """Walrus, augmented assignment, comprehension scopes, ternaries,
    and functools.reduce all propagate float kinds (exercised through
    REP001, which only fires when both operands infer as float)."""

    def test_walrus_target_infers_float(self):
        src = textwrap.dedent(
            """\
            def f(b: float):
                x = (y := b / 2.0)
                return y <= b
            """
        )
        findings = lint_source(src, "src/repro/core/x.py")
        assert [f.rule for f in findings] == ["REP001"]

    def test_walrus_expression_kind_is_value_kind(self):
        src = textwrap.dedent(
            """\
            def f(b: float):
                return (x := b / 2.0) <= b
            """
        )
        findings = lint_source(src, "src/repro/core/x.py")
        assert [f.rule for f in findings] == ["REP001"]

    def test_augassign_div_forces_float(self):
        src = textwrap.dedent(
            """\
            def f(total, n, cap: float):
                total /= n
                return total <= cap
            """
        )
        findings = lint_source(src, "src/repro/core/x.py")
        assert [f.rule for f in findings] == ["REP001"]

    def test_augassign_propagates_float_operand(self):
        src = textwrap.dedent(
            """\
            def f(total, delta: float, cap: float):
                total += delta
                return total <= cap
            """
        )
        findings = lint_source(src, "src/repro/core/x.py")
        assert "REP001" in [f.rule for f in findings]

    def test_augassign_int_stays_unknown(self):
        src = textwrap.dedent(
            """\
            def f(count, cap: float):
                count += 1
                return count <= cap
            """
        )
        assert lint_source(src, "src/repro/core/x.py") == []

    def test_comprehension_target_bound_from_float_seq(self):
        src = textwrap.dedent(
            """\
            def f(loads: list[float], cap: float):
                return [x <= cap for x in loads]
            """
        )
        findings = lint_source(src, "src/repro/core/x.py")
        assert [f.rule for f in findings] == ["REP001"]

    def test_comprehension_target_unknown_iter_stays_unknown(self):
        src = textwrap.dedent(
            """\
            def f(items, cap: float):
                return [x <= cap for x in items]
            """
        )
        assert lint_source(src, "src/repro/core/x.py") == []

    def test_ternary_propagates_float(self):
        src = textwrap.dedent(
            """\
            def f(a: float, b: float, flip):
                val = a if flip else b
                return val <= b
            """
        )
        findings = lint_source(src, "src/repro/core/x.py")
        assert [f.rule for f in findings] == ["REP001"]

    def test_bare_reduce_over_float_seq(self):
        src = textwrap.dedent(
            """\
            from functools import reduce


            def f(xs: list[float], cap: float):
                total = reduce(lambda p, q: p + q, xs)
                return total <= cap
            """
        )
        findings = lint_source(src, "src/repro/core/x.py")
        assert [f.rule for f in findings] == ["REP001"]

    def test_functools_reduce_with_float_initial(self):
        src = textwrap.dedent(
            """\
            import functools


            def f(xs, cap: float):
                total = functools.reduce(lambda p, q: p + q, xs, 0.0)
                return total <= cap
            """
        )
        findings = lint_source(src, "src/repro/core/x.py")
        assert [f.rule for f in findings] == ["REP001"]

    def test_reduce_over_unknown_seq_stays_unknown(self):
        src = textwrap.dedent(
            """\
            from functools import reduce


            def f(xs, cap: float):
                total = reduce(lambda p, q: p + q, xs)
                return total <= cap
            """
        )
        assert lint_source(src, "src/repro/core/x.py") == []


def _effect_graph(files: dict[str, str]) -> ProjectGraph:
    """Build a :class:`ProjectGraph` straight from module summaries —
    the raw substrate REP006 and REP011-013 query."""
    summaries = []
    for path, source in files.items():
        tree = ast.parse(source)
        attach_parents(tree)
        summaries.append(build_module_summary(FileContext(path, source, tree)))
    return ProjectGraph(summaries)


class TestEffectEdgeCases:
    """Corner cases of effect extraction and propagation: async
    generators, ``functools.partial``, decorated functions, contextmanager
    lock helpers, and re-exported callables (the mirror image of the
    typeinfer edge-case suite above)."""

    def test_async_generator_keeps_blocking_effect(self):
        src = textwrap.dedent(
            """\
            import time


            async def stream(xs):
                for x in xs:
                    time.sleep(0.01)
                    yield x
            """
        )
        graph = _effect_graph({"src/repro/service/agen.py": src})
        effects = graph.effects("repro.service.agen", "stream")
        assert "blocking" in effects
        # and REP012 reports it at the call site inside the generator
        findings = lint_sources({"src/repro/service/agen.py": src})
        assert [(f.rule, f.line) for f in findings] == [("REP012", 6)]

    def test_partial_binding_resolves_to_wrapped_callable(self):
        src = textwrap.dedent(
            """\
            from functools import partial

            _TALLY = []


            def record(x):
                _TALLY.append(x)


            def driver(xs):
                rec = partial(record)
                for x in xs:
                    rec(x)
            """
        )
        graph = _effect_graph({"src/repro/core/part.py": src})
        effects = graph.effects("repro.core.part", "driver")
        assert "mutates-global" in effects
        detail, chain = effects["mutates-global"]
        assert chain == ("repro.core.part.record",)

    def test_decorator_does_not_swallow_effects(self):
        src = textwrap.dedent(
            """\
            import functools

            _N = 0


            def logged(fn):
                @functools.wraps(fn)
                def inner(*args, **kwargs):
                    return fn(*args, **kwargs)

                return inner


            @logged
            def touch():
                global _N
                _N += 1


            def caller():
                touch()
            """
        )
        graph = _effect_graph({"src/repro/core/deco.py": src})
        # the decorated definition keeps its own effects...
        assert "mutates-global" in graph.effects("repro.core.deco", "touch")
        # ...and they propagate through calls to the decorated name
        effects = graph.effects("repro.core.deco", "caller")
        assert "mutates-global" in effects
        assert effects["mutates-global"][1] == ("repro.core.deco.touch",)

    def test_contextmanager_lock_helper_discharges_rep006(self):
        helper = textwrap.dedent(
            """\
            import threading
            from contextlib import contextmanager

            _LOCK = threading.Lock()
            _STATE = {}


            @contextmanager
            def guard():
                with _LOCK:
                    yield


            def set_item(key, value):
                with guard():
                    _STATE[key] = value
            """
        )
        path = "src/repro/service/cmlock.py"
        graph = _effect_graph({path: helper})
        # the helper-wrapped block still counts as lock-holding
        assert "lock" in graph.effects("repro.service.cmlock", "set_item")
        assert lint_sources({path: helper}) == []

        # the same mutation behind a *non*-contextmanager helper is not
        # proven locked: REP006 fires
        unguarded = helper.replace("@contextmanager\n", "")
        findings = lint_sources({path: unguarded})
        assert [f.rule for f in findings] == ["REP006"]

    def test_reexported_callable_resolves_to_definition(self):
        files = {
            "src/repro/core/impl.py": textwrap.dedent(
                """\
                import time


                def stamp():
                    return time.time()
                """
            ),
            "src/repro/core/__init__.py": (
                "from repro.core.impl import stamp\n"
            ),
            "src/repro/analysis/use.py": textwrap.dedent(
                """\
                from functools import lru_cache

                from repro.core import stamp


                @lru_cache(maxsize=None)
                def cached_stamp():
                    return stamp()
                """
            ),
        }
        graph = _effect_graph(files)
        # effects flow through the package __init__ re-export
        effects = graph.effects("repro.analysis.use", "cached_stamp")
        assert "wall-clock" in effects
        assert effects["wall-clock"][1] == ("repro.core.impl.stamp",)
        rep011 = [f for f in lint_sources(files) if f.rule == "REP011"]
        assert [(f.path, f.line) for f in rep011] == [
            ("src/repro/analysis/use.py", 7)
        ]

    def test_impure_tags_exclude_lock_and_memo_write(self):
        # pinned: holding a lock or writing a cache is not value-impurity
        assert "lock" not in IMPURE_TAGS
        assert "memo-write" not in IMPURE_TAGS


_UNIT_HELPERS = textwrap.dedent(
    """\
    def total_utilization(tasks):
        return sum(t.utilization for t in tasks)


    def total_demand(tasks):
        return sum(t.wcet for t in tasks)


    def busy_window(tasks):
        return max(t.deadline for t in tasks)


    def admit(utilization, speed):
        return utilization <= speed
    """
)

#: one caller per unit-rule case, keyed ``REPxxx[-shape]``; the
#: violation is always on line 5 and a ``{noqa}`` placeholder rides on
#: that line for the suppression tests
_UNIT_VIOLATIONS = {
    "REP014": (
        "from repro.core.helpers import total_utilization\n"
        "\n"
        "\n"
        "def slack(tasks, deadline):\n"
        "    return deadline - total_utilization(tasks){noqa}\n"
    ),
    "REP015": (
        "from repro.core.helpers import busy_window\n"
        "\n"
        "\n"
        "def within(tasks, x):\n"
        "    return x < busy_window(tasks) - 1e-9{noqa}\n"
    ),
    "REP016": (
        "from repro.core.helpers import admit\n"
        "\n"
        "\n"
        "def check(task):\n"
        "    return admit(task.period, 1.0){noqa}\n"
    ),
    "REP014-speed": (
        "from repro.core.helpers import total_demand\n"
        "\n"
        "\n"
        "def fits(tasks, t):\n"
        "    return total_demand(tasks) < t{noqa}\n"
    ),
}


def _unit_rule(case: str) -> str:
    return case.split("-")[0]


class TestUnitRules:
    """REP014–REP016 end-to-end: suppression, cache invalidation, and
    determinism of the interprocedural unit fixpoint."""

    def _project(self, tmp_path, case, noqa):
        pkg = tmp_path / "src" / "repro" / "core"
        pkg.mkdir(parents=True)
        (pkg / "helpers.py").write_text(_UNIT_HELPERS)
        (pkg / "caller.py").write_text(
            _UNIT_VIOLATIONS[case].format(noqa=noqa)
        )
        return tmp_path

    @pytest.mark.parametrize("case", sorted(_UNIT_VIOLATIONS))
    def test_fires_without_noqa(self, tmp_path, case):
        root = self._project(tmp_path, case, "")
        result = lint_paths(["src"], LintConfig(root=root))
        assert [(f.rule, f.path, f.line) for f in result.findings] == [
            (_unit_rule(case), "src/repro/core/caller.py", 5)
        ]

    @pytest.mark.parametrize("case", sorted(_UNIT_VIOLATIONS))
    def test_noqa_suppresses_and_counts_used(self, tmp_path, case):
        root = self._project(
            tmp_path, case, f"  # repro: noqa[{_unit_rule(case)}]"
        )
        result = lint_paths(
            ["src"], LintConfig(root=root, show_unused_noqa=True)
        )
        assert result.findings == []
        assert result.suppressed == 1
        assert result.unused_suppressions == []

    def test_noqa_on_clean_line_is_unused(self, tmp_path):
        pkg = tmp_path / "src" / "repro" / "core"
        pkg.mkdir(parents=True)
        (pkg / "helpers.py").write_text(_UNIT_HELPERS)
        (pkg / "caller.py").write_text(
            "from repro.core.helpers import total_demand\n"
            "\n"
            "\n"
            "def fits(tasks, t, speed):\n"
            "    return total_demand(tasks) / speed < t"
            "  # repro: noqa[REP014]\n"
        )
        result = lint_paths(
            ["src"], LintConfig(root=tmp_path, show_unused_noqa=True)
        )
        # work / speed is a time: dimensionally clean, so the
        # suppression matched nothing and must be reported
        assert result.findings == []
        assert [(u.path, u.line) for u in result.unused_suppressions] == [
            ("src/repro/core/caller.py", 5)
        ]

    def test_unit_facts_invalidate_through_import_graph(self, tmp_path):
        """Pinned: phase-2 unit facts track *transitive* edits.  Giving
        a helper a work-dimensioned return resurfaces REP014 at a
        byte-identical caller in another module on the next warm run."""
        pkg = tmp_path / "src" / "repro" / "core"
        pkg.mkdir(parents=True)
        helper = pkg / "helper.py"
        helper.write_text(
            "def total_demand(tasks):\n"
            "    return len(tasks) * 1.0\n"
        )
        (pkg / "consume.py").write_text(
            "from repro.core.helper import total_demand\n"
            "\n"
            "\n"
            "def fits(tasks, t):\n"
            "    return total_demand(tasks) < t\n"
        )
        cache = tmp_path / "lint-cache.pickle"
        clean = lint_paths(
            ["src"], LintConfig(root=tmp_path, cache_path=cache)
        )
        assert clean.findings == []

        # the helper now returns a work-dimensioned demand; consume.py
        # is unchanged, but its recorded comparison must be re-judged
        # against the new return dimension
        helper.write_text(
            "def total_demand(tasks):\n"
            "    return sum(t.wcet for t in tasks)\n"
        )
        result = lint_paths(
            ["src"], LintConfig(root=tmp_path, cache_path=cache)
        )
        assert result.stats.cache_invalidated == 1  # consume.py, via imports
        assert [(f.rule, f.path, f.line) for f in result.findings] == [
            ("REP014", "src/repro/core/consume.py", 5)
        ]
        assert "normalize by the machine speed" in result.findings[0].message

    def test_unit_rules_bit_identical_across_jobs_and_cache(self, tmp_path):
        """The acceptance criterion: REP014–REP016 JSON is bit-identical
        across ``--jobs 1``/``--jobs 4`` and cold/warm cache (stats
        aside), and the unit fixpoint converges in the same number of
        rounds every run."""
        pkg = tmp_path / "src" / "repro" / "core"
        pkg.mkdir(parents=True)
        (pkg / "helpers.py").write_text(_UNIT_HELPERS)
        for i, src in enumerate(_UNIT_VIOLATIONS.values()):
            (pkg / f"use_{i}.py").write_text(src.format(noqa=""))
        cache = tmp_path / "lint-cache.pickle"
        serial = lint_paths(["src"], LintConfig(root=tmp_path))
        cold = lint_paths(
            ["src"], LintConfig(root=tmp_path, jobs=4, cache_path=cache)
        )
        warm = lint_paths(
            ["src"], LintConfig(root=tmp_path, jobs=4, cache_path=cache)
        )
        assert warm.stats.cache_hits == warm.stats.files
        assert sorted(f.rule for f in serial.findings) == sorted(
            map(_unit_rule, _UNIT_VIOLATIONS)
        )
        payloads = []
        for run in (serial, cold, warm):
            data = json.loads(render_json(run))
            assert (
                data["stats"]["unit_fixpoint_iterations"]
                == serial.stats.unit_fixpoint_iterations
            )
            data.pop("stats")
            payloads.append(json.dumps(data, sort_keys=True))
        assert payloads[0] == payloads[1] == payloads[2]

    def test_unit_fixpoint_iterations_surface_in_stats(self, tmp_path):
        root = self._project(tmp_path, "REP014-speed", "")
        result = lint_paths(["src"], LintConfig(root=root))
        assert result.stats.unit_fixpoint_iterations >= 1
        stats_json = json.loads(render_json(result))["stats"]
        assert (
            stats_json["unit_fixpoint_iterations"]
            == result.stats.unit_fixpoint_iterations
        )
