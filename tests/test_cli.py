"""Tests for the command-line interface."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_known_commands(self):
        parser = build_parser()
        for argv in (
            ["list"],
            ["constants"],
            ["generate", "x.json"],
            ["experiment", "e01"],
            ["serve"],
        ):
            args = parser.parse_args(argv)
            assert args.command == argv[0]

    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.host == "127.0.0.1"
        assert args.port == 8080
        assert args.workers == 0
        assert args.cache_size == 1024

    def test_serve_options(self):
        args = build_parser().parse_args(
            ["serve", "--port", "0", "--workers", "4", "--cache-size", "64"]
        )
        assert args.port == 0
        assert args.workers == 4
        assert args.cache_size == 64

    def test_serve_rejects_negative_workers(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--workers", "-3"])

    def test_serve_has_no_jobs_option(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--jobs", "4"])


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "e01" in out and "e13" in out

    def test_constants(self, capsys):
        assert main(["constants"]) == 0
        out = capsys.readouterr().out
        assert "alpha=2.98" in out
        assert "valid=True" in out

    def test_generate_then_test_accept(self, tmp_path, capsys):
        inst = tmp_path / "i.json"
        assert main(
            [
                "generate",
                str(inst),
                "--tasks",
                "6",
                "--machines",
                "3",
                "--stress",
                "0.5",
                "--seed",
                "1",
            ]
        ) == 0
        data = json.loads(inst.read_text())
        assert len(data["taskset"]["tasks"]) == 6
        code = main(["test", str(inst), "--scheduler", "edf"])
        out = capsys.readouterr().out
        assert code == 0
        assert "ACCEPTED" in out

    def test_test_json_uses_shared_report_schema(self, tmp_path, capsys):
        from repro.core.feasibility import feasibility_test
        from repro.io_.serialize import (
            platform_from_dict,
            report_to_dict,
            taskset_from_dict,
        )

        inst = tmp_path / "i.json"
        main(["generate", str(inst), "--tasks", "6", "--machines", "3",
              "--stress", "0.5", "--seed", "1"])
        capsys.readouterr()
        code = main(["test", str(inst), "--json"])
        out = capsys.readouterr().out
        assert code == 0
        printed = json.loads(out)
        data = json.loads(inst.read_text())
        direct = report_to_dict(
            feasibility_test(
                taskset_from_dict(data["taskset"]),
                platform_from_dict(data["platform"]),
            )
        )
        assert printed == direct

    def test_test_reject(self, tmp_path, capsys):
        inst = tmp_path / "i.json"
        main(
            [
                "generate",
                str(inst),
                "--tasks",
                "8",
                "--machines",
                "2",
                "--stress",
                "4.0",
                "--seed",
                "2",
            ]
        )
        code = main(["test", str(inst)])
        out = capsys.readouterr().out
        assert code == 1
        assert "REJECTED" in out
        assert "w_n=" in out

    def test_simulate(self, tmp_path, capsys):
        inst = tmp_path / "i.json"
        main(
            [
                "generate",
                str(inst),
                "--tasks",
                "5",
                "--machines",
                "2",
                "--stress",
                "0.5",
                "--seed",
                "3",
            ]
        )
        code = main(["simulate", str(inst), "--alpha", "2.0"])
        out = capsys.readouterr().out
        assert code == 0
        assert "deadline misses: 0" in out

    def test_simulate_failed_partition(self, tmp_path, capsys):
        inst = tmp_path / "i.json"
        main(
            [
                "generate",
                str(inst),
                "--tasks",
                "8",
                "--machines",
                "2",
                "--stress",
                "4.0",
                "--seed",
                "4",
            ]
        )
        code = main(["simulate", str(inst), "--alpha", "1.0"])
        out = capsys.readouterr().out
        assert code == 1
        assert "first-fit failed" in out

    def test_experiment_with_csv(self, tmp_path, capsys):
        csv_path = tmp_path / "e01.csv"
        code = main(
            ["experiment", "e01", "--scale", "quick", "--csv", str(csv_path)]
        )
        captured = capsys.readouterr()
        assert code == 0
        # stdout is exactly the table tier-1 diffs against; the CSV note
        # goes to stderr with the telemetry
        golden = Path(__file__).resolve().parent.parent / "results" / "quick" / "e01.txt"
        assert captured.out == golden.read_text()
        assert captured.err == f"rows written to {csv_path}\n"
        assert csv_path.exists()
        assert "theorem" in csv_path.read_text()

    def test_gantt(self, tmp_path, capsys):
        inst = tmp_path / "i.json"
        main(
            [
                "generate",
                str(inst),
                "--tasks",
                "4",
                "--machines",
                "2",
                "--stress",
                "0.5",
                "--seed",
                "5",
            ]
        )
        code = main(["gantt", str(inst), "--alpha", "2.0", "--horizon", "50"])
        out = capsys.readouterr().out
        assert code == 0
        assert "machine 0" in out and "machine 1" in out
        assert "#" in out

    def test_gantt_failed_partition(self, tmp_path, capsys):
        inst = tmp_path / "i.json"
        main(
            [
                "generate",
                str(inst),
                "--tasks",
                "8",
                "--machines",
                "2",
                "--stress",
                "4.0",
                "--seed",
                "6",
            ]
        )
        assert main(["gantt", str(inst)]) == 1

    def test_slack(self, tmp_path, capsys):
        inst = tmp_path / "i.json"
        main(
            [
                "generate",
                str(inst),
                "--tasks",
                "5",
                "--machines",
                "2",
                "--stress",
                "0.4",
                "--seed",
                "7",
            ]
        )
        code = main(["slack", str(inst)])
        out = capsys.readouterr().out
        assert code == 0
        assert "system scaling margin" in out
        assert "per-task slack" in out

    def test_slack_rejected_instance(self, tmp_path, capsys):
        inst = tmp_path / "i.json"
        main(
            [
                "generate",
                str(inst),
                "--tasks",
                "8",
                "--machines",
                "2",
                "--stress",
                "4.0",
                "--seed",
                "8",
            ]
        )
        assert main(["slack", str(inst)]) == 1

    @pytest.mark.parametrize("command", ["test", "simulate", "gantt", "slack"])
    @pytest.mark.parametrize(
        "second_task, reason",
        [
            ({"wcet": 2.0, "period": 8.0}, None),
            ({"wcet": 2.0}, "taskset.tasks[1].period: must be a number, got None"),
            (
                {"wcet": -1, "period": 8.0},
                "taskset.tasks[1].wcet: must be positive and finite, got -1.0",
            ),
            ({"wcet": True, "period": 8.0},
             "taskset.tasks[1].wcet: must be a number, got True"),
            ({"wcet": 2.0, "period": "8"},
             "taskset.tasks[1].period: must be a number, got '8'"),
            ("missing", "No such file or directory"),
            ("directory", "Is a directory"),
        ],
        ids=["good", "no-period", "negative-wcet", "bool-wcet", "string-period",
             "missing-file", "directory"],
    )
    def test_malformed_instance_is_a_usage_error(
        self, tmp_path, capsys, command, second_task, reason
    ):
        """A malformed instance file, or a path that is no readable file,
        is reported on one line naming the field (as the service names
        it in a 400) or the OS error, with the usage-error status 2 and
        no traceback.  ``second_task`` is the instance's second task, or
        ``"missing"`` / ``"directory"`` for what stands at the path
        instead of an instance file."""
        inst = tmp_path / "i.json"
        if second_task == "directory":
            inst.mkdir()
        elif second_task != "missing":
            inst.write_text(json.dumps({
                "taskset": {"tasks": [{"wcet": 1.0, "period": 10.0}, second_task]},
                "platform": {"machines": [{"speed": 1.0}, {"speed": 2.0}]},
            }))
        code = main([command, str(inst)])
        err = capsys.readouterr().err
        if reason is None:
            assert code == 0
        else:
            assert code == 2
            assert err == f"error: {inst}: {reason}\n"

    @pytest.mark.parametrize("command", ["test", "simulate", "gantt", "slack"])
    @pytest.mark.parametrize(
        "instance, reasons",
        [
            (
                {"taskset": {"tasks": []}, "platform": {"machines": [{"speed": 1}]}},
                ["taskset.tasks: must be a non-empty list"],
            ),
            (
                {"taskset": {"tasks": [{"wcet": 1, "period": 10}]}, "platform": [1]},
                ["platform: must be an object with a 'machines' list"],
            ),
            (
                {
                    "taskset": {"tasks": [{"wcet": "1", "period": 10}, 7]},
                    "platform": {"machines": [{"speed": False}, {"speed": 2}]},
                },
                [
                    "taskset.tasks[0].wcet: must be a number, got '1'",
                    "taskset.tasks[1]: must be an object",
                    "platform.machines[0].speed: must be a number, got False",
                ],
            ),
            ([1], ["must be an object with 'taskset' and 'platform'"]),
        ],
        ids=["empty-tasks", "platform-list", "three-fields", "not-an-object"],
    )
    def test_every_bad_field_is_reported(
        self, tmp_path, capsys, command, instance, reasons
    ):
        """Every bad field of an instance file is named at once, one
        ``error: PATH: FIELD: MESSAGE`` line each, with status 2."""
        inst = tmp_path / "i.json"
        inst.write_text(json.dumps(instance))
        code = main([command, str(inst)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "".join(f"error: {inst}: {r}\n" for r in reasons)

    def _deadline_instance(self, tmp_path, deadline):
        inst = tmp_path / "i.json"
        inst.write_text(json.dumps({
            "taskset": {"tasks": [{"wcet": 1.0, "period": 10, "deadline": deadline}]},
            "platform": {"machines": [{"speed": 1.0}]},
        }))
        return inst

    def test_test_refuses_a_constrained_deadline(self, tmp_path, capsys):
        """The theorem tests take implicit deadlines: ``repro test`` names
        the deadline and exits 2, as ``/v1/test`` answers 400, rather
        than raising mid-evaluation with REJECTED's status 1."""
        inst = self._deadline_instance(tmp_path, 4)
        code = main(["test", str(inst)])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {inst}: taskset.tasks[0].deadline: the theorem tests require "
            "implicit deadlines (omit 'deadline' or set it equal to 'period')\n"
        )

    @pytest.mark.parametrize("backend", [None, "scalar", "numpy"])
    def test_test_snaps_a_near_implicit_deadline(self, tmp_path, capsys, backend):
        inst = self._deadline_instance(tmp_path, 10.0000000001)
        extra = [] if backend is None else ["--backend", backend]
        code = main(["test", str(inst), *extra])
        out = capsys.readouterr().out
        assert code == 0
        assert "verdict: ACCEPTED" in out

    @pytest.mark.parametrize("command", ["simulate", "gantt", "slack"])
    def test_constrained_deadlines_reach_the_other_commands(
        self, tmp_path, capsys, command
    ):
        """Only ``repro test`` asks for implicit deadlines; the simulator
        and the sensitivity analysis take a constrained one as given."""
        inst = self._deadline_instance(tmp_path, 4)
        assert main([command, str(inst)]) in (0, 1)
        assert capsys.readouterr().err == ""

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0


class TestFuzzCLI:
    FIXTURE = (
        Path(__file__).parent
        / "fixtures"
        / "counterexamples"
        / "incremental-vs-oneshot-hyperbolic-earlyexit.json"
    )

    def test_fuzz_parses(self):
        args = build_parser().parse_args(["fuzz"])
        assert args.command == "fuzz"
        assert args.seed == 0
        assert args.budget == 1000
        assert args.jobs == 1
        assert args.profiles is None
        assert args.checks is None
        assert args.campaign == "oracle-fuzz"
        assert args.out_dir == Path("results/counterexamples")
        assert not args.no_shrink
        assert args.replay is None
        assert not args.self_test

    def test_fuzz_options(self):
        args = build_parser().parse_args(
            [
                "fuzz",
                "--seed",
                "5",
                "--budget",
                "20",
                "--jobs",
                "2",
                "--profile",
                "tiny",
                "--profile",
                "uniform",
                "--check",
                "roundtrip",
                "--campaign",
                "nightly",
                "--out-dir",
                "somewhere",
                "--no-shrink",
            ]
        )
        assert args.seed == 5
        assert args.budget == 20
        assert args.jobs == 2
        assert args.profiles == ["tiny", "uniform"]
        assert args.checks == ["roundtrip"]
        assert args.campaign == "nightly"
        assert args.out_dir == Path("somewhere")
        assert args.no_shrink

    def test_fuzz_rejects_negative_jobs(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fuzz", "--jobs", "-2"])

    def test_fuzz_smoke(self, tmp_path, capsys):
        rc = main(
            [
                "fuzz",
                "--seed",
                "1",
                "--budget",
                "6",
                "--out-dir",
                str(tmp_path / "ce"),
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "no invariant violations" in out
        assert "trials=6" in out

    def test_fuzz_restricted_profile_and_check(self, tmp_path, capsys):
        rc = main(
            [
                "fuzz",
                "--budget",
                "4",
                "--profile",
                "tiny",
                "--check",
                "roundtrip",
                "--out-dir",
                str(tmp_path / "ce"),
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "profiles=tiny" in out
        assert "checks: roundtrip" in out

    def test_fuzz_replay_fixed_counterexample(self, capsys):
        rc = main(["fuzz", "--replay", str(self.FIXTURE)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "no longer reproduces" in out

    @pytest.mark.parametrize(
        "edit, reason",
        [
            ({"schema": "other/v9"},
             "schema: must be 'repro.oracle.counterexample/v1', got 'other/v9'"),
            ({"schema": None},
             "schema: must be 'repro.oracle.counterexample/v1', got None"),
            ({"invariant": "no-such-check"},
             "invariant: must be one of ["),
            ({"invariant": ["roundtrip"]}, "invariant: must be one of ["),
            ({"platform": {"machines": []}},
             "platform.machines: must be a non-empty list"),
            ({"taskset": {"tasks": [{"wcet": 1, "period": -2}]}},
             "taskset.tasks[0].period: must be positive and finite, got -2.0"),
            ({"config": []}, "config: must be an object"),
            ({"config": {"tests": ["no-such-test"]}}, "config.tests: must be a list"),
            ({"config": {"margin": "0"}},
             "config.margin: must be a number in [0, 1), got '0'"),
        ],
        ids=["wrong-schema", "no-schema", "unknown-invariant", "list-invariant",
             "no-machines", "negative-period", "config-list", "unknown-test",
             "string-margin"],
    )
    def test_fuzz_replay_usage_errors(self, tmp_path, capsys, edit, reason):
        """A file that is no counterexample, or whose instance or recorded
        configuration is malformed, is a usage error (status 2, one line),
        never the traceback-and-1 that ``REPRODUCED`` would be mistaken
        for."""
        data = json.loads(self.FIXTURE.read_text())
        data.update(edit)
        bad = tmp_path / "ce.json"
        bad.write_text(json.dumps(data))
        rc = main(["fuzz", "--replay", str(bad)])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err.startswith(f"error: {bad}: {reason}")
        assert captured.err.count("\n") == 1

    def test_fuzz_replay_of_an_unreadable_file(self, tmp_path, capsys):
        listed = tmp_path / "list.json"
        listed.write_text("[1, 2]")
        garbled = tmp_path / "garbled.json"
        garbled.write_text("{not json")
        absent = tmp_path / "absent.json"
        for path in (listed, garbled, absent):
            assert main(["fuzz", "--replay", str(path)]) == 2
        assert capsys.readouterr().err == (
            f"error: {listed}: schema: must be "
            "'repro.oracle.counterexample/v1', got None\n"
            f"error: {garbled}: Expecting property name enclosed in double "
            "quotes: line 1 column 2 (char 1)\n"
            f"error: {absent}: No such file or directory\n"
        )

    def test_fuzz_self_test(self, capsys):
        rc = main(["fuzz", "--self-test"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "self-test ok" in out
        assert "broken rms-ll" in out
