"""Tests for serialization and table rendering."""

from __future__ import annotations

import hashlib
import json
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import _hashing
from repro.core.feasibility import feasibility_test
from repro.core.model import Machine, Platform, Task, TaskSet
from repro.core.partition import first_fit_partition
from repro.io_.serialize import (
    FieldError,
    ValidationError,
    canonical_digest,
    canonical_instance,
    canonical_task_order,
    certificate_from_dict,
    certificate_to_dict,
    instance_digest,
    instance_from_dict,
    load_json,
    partition_result_from_dict,
    partition_result_to_dict,
    platform_from_dict,
    platform_to_dict,
    report_from_dict,
    report_to_dict,
    save_json,
    task_from_dict,
    task_to_dict,
    task_rows,
    taskset_from_dict,
    taskset_to_dict,
)
from repro.io_.tables import format_table, rows_to_csv, write_csv
from repro.oracle.generators import PROFILES, draw_instance


class TestSerialization:
    def test_task_roundtrip(self):
        t = Task(wcet=2.5, period=10.0, name="x")
        assert task_from_dict(task_to_dict(t)) == t

    def test_taskset_roundtrip(self, small_taskset):
        assert taskset_from_dict(taskset_to_dict(small_taskset)) == small_taskset

    def test_platform_roundtrip(self, hetero_platform):
        assert platform_from_dict(platform_to_dict(hetero_platform)) == hetero_platform

    def test_exact_float_roundtrip(self):
        t = Task(wcet=1 / 3, period=0.1 + 0.2)
        rt = task_from_dict(task_to_dict(t))
        assert rt.wcet == t.wcet
        assert rt.period == t.period

    def test_json_file_roundtrip(self, tmp_path, small_taskset, hetero_platform):
        path = tmp_path / "instance.json"
        save_json(
            path,
            {
                "taskset": taskset_to_dict(small_taskset),
                "platform": platform_to_dict(hetero_platform),
            },
        )
        data = load_json(path)
        assert taskset_from_dict(data["taskset"]) == small_taskset
        assert platform_from_dict(data["platform"]) == hetero_platform

    def test_verdict_stability_after_roundtrip(
        self, tmp_path, small_taskset, hetero_platform
    ):
        """A reloaded instance produces the identical partition."""
        before = first_fit_partition(small_taskset, hetero_platform, "edf", alpha=2.0)
        path = tmp_path / "i.json"
        save_json(
            path,
            {
                "taskset": taskset_to_dict(small_taskset),
                "platform": platform_to_dict(hetero_platform),
            },
        )
        data = load_json(path)
        after = first_fit_partition(
            taskset_from_dict(data["taskset"]),
            platform_from_dict(data["platform"]),
            "edf",
            alpha=2.0,
        )
        assert before.assignment == after.assignment
        assert before.loads == after.loads

    def test_partition_result_export(self, small_taskset):
        platform = Platform.from_speeds([1.0, 2.0])
        r = first_fit_partition(small_taskset, platform, "edf", alpha=2.0)
        d = partition_result_to_dict(r)
        assert d["success"] == r.success
        assert d["alpha"] == 2.0
        assert d["test_name"] == "edf"
        assert len(d["assignment"]) == len(small_taskset)


class TestReportRoundtrip:
    """report_to_dict / report_from_dict — the one JSON schema shared by
    the CLI `test --json` output and every repro.service response."""

    REJECTED = (
        TaskSet([Task(wcet=9, period=10) for _ in range(5)]),
        Platform.from_speeds([1.0, 1.0]),
    )

    def test_accepted_report_roundtrip(self, small_taskset, hetero_platform):
        report = feasibility_test(small_taskset, hetero_platform)
        assert report.accepted
        assert report_from_dict(report_to_dict(report)) == report

    def test_rejected_report_roundtrip_with_certificate(self):
        taskset, platform = self.REJECTED
        for scheduler in ("edf", "rms"):
            report = feasibility_test(taskset, platform, scheduler)
            assert not report.accepted
            back = report_from_dict(report_to_dict(report))
            assert back == report
            assert back.certificate.certifies == report.certificate.certifies

    def test_json_text_roundtrip(self, small_taskset, hetero_platform):
        import json as json_module

        report = feasibility_test(small_taskset, hetero_platform, "rms", "any")
        text = json_module.dumps(report_to_dict(report))
        assert report_from_dict(json_module.loads(text)) == report

    def test_guarantee_text_is_exported(self, small_taskset, hetero_platform):
        report = feasibility_test(small_taskset, hetero_platform)
        assert report_to_dict(report)["guarantee"] == report.guarantee

    def test_certificate_roundtrip(self):
        taskset, platform = self.REJECTED
        cert = feasibility_test(taskset, platform).certificate
        d = certificate_to_dict(cert)
        assert d["certifies"] == cert.certifies
        assert certificate_from_dict(d) == cert

    def test_partition_result_roundtrip(self, small_taskset, hetero_platform):
        for alpha in (1.0, 2.0):
            r = first_fit_partition(
                small_taskset, hetero_platform, "edf", alpha=alpha
            )
            assert partition_result_from_dict(partition_result_to_dict(r)) == r

    def test_partition_result_reconstructs_machine_tasks(self, small_taskset):
        platform = Platform.from_speeds([1.0, 2.0])
        r = first_fit_partition(small_taskset, platform, "edf", alpha=2.0)
        d = partition_result_to_dict(r)
        del d["machine_tasks"]  # archives from before the field was exported
        assert partition_result_from_dict(d) == r


class TestCanonicalDigest:
    """The service's cache key: order/name-invariant, parameter-sensitive,
    stable across interpreter runs."""

    TASKS = TaskSet(
        [Task(wcet=2, period=10), Task(wcet=6, period=8), Task(wcet=3, period=4)]
    )
    SPEEDS = [1.0, 2.0, 4.0]
    #: sha256 of the canonical JSON — pinned so a silent change to the
    #: canonicalization (which would orphan every cached verdict and any
    #: externally stored digest) fails loudly.
    PINNED = "2a00eb53554f9b2b641c2e0e3368d00c2ec646306430234d5438de08b73e75c9"
    PINNED_QUERY = "465f01de192fd5ffb559d296be84c05d1260572f9c016d3df5962c0392220dbc"

    def _platform(self, speeds=None):
        return Platform.from_speeds(speeds or self.SPEEDS)

    def test_pinned_digest_stable_across_runs(self):
        assert instance_digest(self.TASKS, self._platform()) == self.PINNED

    def test_pinned_digest_with_query(self):
        digest = instance_digest(
            self.TASKS,
            self._platform(),
            query={
                "kind": "test",
                "scheduler": "edf",
                "adversary": "partitioned",
                "alpha": 2.0,
            },
        )
        assert digest == self.PINNED_QUERY

    def test_task_permutation_invariant(self):
        import itertools

        platform = self._platform()
        digests = {
            instance_digest(self.TASKS.subset(perm), platform)
            for perm in itertools.permutations(range(len(self.TASKS)))
        }
        assert digests == {self.PINNED}

    def test_machine_permutation_invariant(self):
        for speeds in ([4.0, 1.0, 2.0], [2.0, 4.0, 1.0]):
            assert (
                instance_digest(self.TASKS, self._platform(speeds)) == self.PINNED
            )

    def test_names_do_not_matter(self):
        named = TaskSet(
            Task(wcet=t.wcet, period=t.period, name=f"task-{i}")
            for i, t in enumerate(self.TASKS)
        )
        platform = Platform(
            Machine(speed=s, name=f"node-{j}") for j, s in enumerate(self.SPEEDS)
        )
        assert instance_digest(named, platform) == self.PINNED

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda t: Task(wcet=t.wcet + 1e-9, period=t.period, deadline=t.deadline),
            lambda t: Task(wcet=t.wcet, period=t.period + 1e-9, deadline=None),
            lambda t: Task(wcet=t.wcet, period=t.period, deadline=t.period / 2),
        ],
    )
    def test_changing_any_task_parameter_changes_digest(self, mutate):
        platform = self._platform()
        for i in range(len(self.TASKS)):
            tasks = list(self.TASKS)
            tasks[i] = mutate(tasks[i])
            assert instance_digest(TaskSet(tasks), platform) != self.PINNED

    def test_changing_any_speed_changes_digest(self):
        for j in range(len(self.SPEEDS)):
            speeds = list(self.SPEEDS)
            speeds[j] += 1e-9
            assert (
                instance_digest(self.TASKS, self._platform(speeds)) != self.PINNED
            )

    def test_query_params_change_digest(self):
        base = instance_digest(self.TASKS, self._platform())
        with_query = instance_digest(
            self.TASKS, self._platform(), query={"kind": "partition"}
        )
        assert base != with_query

    def test_canonical_order_is_utilization_descending(self):
        order = canonical_task_order(self.TASKS)
        utils = [self.TASKS[i].utilization for i in order]
        assert utils == sorted(utils, reverse=True)

    def test_canonical_ties_broken_by_parameters_not_position(self):
        # same utilization, different periods: order must not depend on
        # submission order
        a = Task(wcet=1, period=2)
        b = Task(wcet=2, period=4)
        platform = self._platform()
        d1 = instance_digest(TaskSet([a, b]), platform)
        d2 = instance_digest(TaskSet([b, a]), platform)
        assert d1 == d2
        forward = canonical_task_order(TaskSet([a, b]))
        backward = canonical_task_order(TaskSet([b, a]))
        assert [(
            TaskSet([a, b])[i].period) for i in forward
        ] == [(TaskSet([b, a])[i].period) for i in backward]

    def test_canonical_instance_shape(self):
        canon = canonical_instance(self.TASKS, self._platform())
        assert set(canon) == {"tasks", "speeds"}
        assert canon["speeds"] == sorted(self.SPEEDS)
        assert all(len(triple) == 3 for triple in canon["tasks"])


class TestConstrainedDigest:
    """Deadline-axis coverage for the cache key (satellite of the
    constrained-deadline family): a deadline-only edit must re-key, and
    the invariances must survive non-trivial deadlines."""

    TASKS = TaskSet(
        [
            Task(wcet=2.0, period=10.0, deadline=6.0),
            Task(wcet=6.0, period=8.0, deadline=8.0),
            Task(wcet=3.0, period=4.0, deadline=3.5),
        ]
    )
    SPEEDS = [1.0, 2.0, 4.0]
    #: pinned like TestCanonicalDigest.PINNED — a silent change to how
    #: deadlines enter the canonical form would orphan cached verdicts
    #: for every constrained instance
    PINNED = "f73e304a0607845d96e270ddb8f0de205c3418ac427893d5c23bb6b90cf6585b"

    def _platform(self):
        return Platform.from_speeds(self.SPEEDS)

    def test_pinned_constrained_digest(self):
        assert instance_digest(self.TASKS, self._platform()) == self.PINNED

    def test_deadline_only_change_rekeys(self):
        # same wcet/period/speeds, one deadline nudged: these instances
        # have different feasibility regions, so sharing a cache entry
        # would serve a wrong verdict
        for i in range(len(self.TASKS)):
            tasks = list(self.TASKS)
            t = tasks[i]
            nudged = (
                0.5 * (t.deadline + t.period)
                if t.deadline < t.period
                else t.deadline - 1.0
            )
            tasks[i] = Task(wcet=t.wcet, period=t.period, deadline=nudged)
            mutated = instance_digest(TaskSet(tasks), self._platform())
            assert mutated != self.PINNED, i

    def test_permutation_invariant_with_deadlines(self):
        import itertools

        platform = self._platform()
        digests = {
            instance_digest(self.TASKS.subset(perm), platform)
            for perm in itertools.permutations(range(len(self.TASKS)))
        }
        assert digests == {self.PINNED}

    def test_explicit_implicit_deadline_is_digest_neutral(self):
        # writing deadline = period explicitly is the same instance;
        # exact float identity (10.0 vs 10.0), not a tolerance
        implicit = TaskSet([Task(2.0, 10.0), Task(6.0, 8.0), Task(3.0, 4.0)])
        explicit = TaskSet(
            [
                Task(2.0, 10.0, deadline=10.0),
                Task(6.0, 8.0, deadline=8.0),
                Task(3.0, 4.0, deadline=4.0),
            ]
        )
        platform = self._platform()
        assert instance_digest(implicit, platform) == instance_digest(
            explicit, platform
        )

    def test_canonical_triples_carry_the_deadline(self):
        canon = canonical_instance(self.TASKS, self._platform())
        deadlines = sorted(triple[2] for triple in canon["tasks"])
        assert deadlines == [3.5, 6.0, 8.0]


def _reference_digest(taskset, platform, query=None):
    """Order and digest as two passes compute them: a keyed index sort,
    then ``hashlib`` over the canonical JSON."""
    order = sorted(
        range(len(taskset)),
        key=lambda i: (
            -taskset[i].utilization,
            taskset[i].period,
            taskset[i].wcet,
            taskset[i].deadline,
        ),
    )
    payload = {
        "tasks": [
            [taskset[i].wcet, taskset[i].period, taskset[i].deadline] for i in order
        ],
        "speeds": sorted(m.speed for m in platform),
    }
    if query:
        payload["query"] = dict(query)
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return order, hashlib.sha256(blob.encode("utf-8")).hexdigest()


#: few distinct values, so equal utilizations (1/2 = 2/4 = 3/6), equal
#: periods and whole duplicate tasks are common
_WCETS = st.sampled_from([0.1, 0.5, 1.0, 1.5, 2.0, 3.0]) | st.floats(0.01, 20.0)
_PERIODS = st.sampled_from([2.0, 3.0, 4.0, 6.0, 10.0]) | st.floats(0.5, 50.0)


@st.composite
def _float_instances(draw):
    tasks = []
    for _ in range(draw(st.integers(1, 10))):
        wcet, period = draw(_WCETS), draw(_PERIODS)
        # None is implicit; a fraction below 1 constrains the deadline
        share = draw(st.sampled_from([None, 1.0, 0.5]) | st.floats(0.05, 1.0))
        deadline = None if share is None else max(share * period, 1e-3)
        tasks.append(Task(wcet=wcet, period=period, deadline=deadline))
    copies = draw(st.lists(st.integers(0, len(tasks) - 1), max_size=4))
    tasks += [tasks[i] for i in copies]
    order = draw(st.permutations(range(len(tasks))))
    speeds = draw(
        st.lists(st.sampled_from([1.0, 2.0, 4.0]) | st.floats(0.1, 8.0),
                 min_size=1, max_size=4)
    )
    return TaskSet(tasks[i] for i in order), Platform.from_speeds(speeds)


class TestOnePassDigest:
    """:func:`canonical_digest` computes the order and the digest in one
    pass; both must equal the two-pass reference, bit for bit."""

    QUERY = {"kind": "test", "scheduler": "rms", "adversary": "any", "alpha": 2.5}

    def _check(self, taskset, platform):
        for query in (None, self.QUERY):
            order, digest = canonical_digest(
                task_rows(taskset), platform.speeds, query
            )
            assert (order, digest) == _reference_digest(taskset, platform, query)
            assert order == canonical_task_order(taskset)
            assert digest == instance_digest(taskset, platform, query=query)

    @settings(max_examples=300, deadline=None)
    @given(_float_instances())
    def test_matches_the_two_pass_reference(self, instance):
        self._check(*instance)

    @pytest.mark.parametrize("profile", list(PROFILES))
    def test_matches_on_the_fuzz_profiles(self, profile):
        rng = np.random.default_rng(20160516)
        for _ in range(40):
            self._check(*draw_instance(rng, profile))

    def test_single_task_and_single_machine(self):
        self._check(TaskSet([Task(wcet=1.5, period=4.0)]), Platform.from_speeds([2.0]))

    def test_hashes_ints_as_ints(self):
        """The pinned digests are built from ``int`` parameters, which
        serialize without a ``.0``."""
        ints = TestCanonicalDigest.TASKS
        floats = TaskSet(Task(float(t.wcet), float(t.period)) for t in ints)
        platform = Platform.from_speeds(TestCanonicalDigest.SPEEDS)
        assert instance_digest(ints, platform) == TestCanonicalDigest.PINNED
        assert instance_digest(floats, platform) != TestCanonicalDigest.PINNED


#: values no number field accepts (``None`` is a bad wcet, period or
#: speed, but an absent deadline); ``_DROP`` removes the key instead
_DROP = object()
_BAD_NUMBERS = [
    True, False, "1", [], {}, -1, 0, -0.5, float("inf"), float("nan"), 10**400
]


def _profile_instance(profile, seed):
    return draw_instance(np.random.default_rng(seed), profile)


class TestCheckedDecoder:
    """The one decoder from plain dicts (``/v1/*`` bodies, CLI instance
    files, fuzz replays) reproduces what the encoders wrote and names
    every bad field exactly once."""

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(list(PROFILES)), st.integers(0, 2**32 - 1))
    def test_decodes_what_the_encoders_wrote(self, profile, seed):
        taskset, platform = _profile_instance(profile, seed)
        payload = json.loads(json.dumps({
            "taskset": taskset_to_dict(taskset),
            "platform": platform_to_dict(platform),
        }))
        ts2, pf2 = instance_from_dict(payload)
        assert ts2 == taskset and pf2 == platform
        assert [(t.wcet, t.period, t.deadline, t.name) for t in ts2] == [
            (t.wcet, t.period, t.deadline, t.name) for t in taskset
        ]
        assert [(m.speed, m.name) for m in pf2] == [
            (m.speed, m.name) for m in platform
        ]
        assert taskset_from_dict(payload["taskset"]) == taskset
        assert platform_from_dict(payload["platform"]) == platform

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(list(PROFILES)), st.integers(0, 2**32 - 1), st.data())
    def test_k_bad_fields_give_k_errors(self, profile, seed, data):
        taskset, platform = _profile_instance(profile, seed)
        tasks = taskset_to_dict(taskset)["tasks"]
        machines = platform_to_dict(platform)["machines"]
        bad_tasks = data.draw(st.dictionaries(
            st.integers(0, len(tasks) - 1),
            st.sets(st.sampled_from(["wcet", "period", "deadline", "*"]), min_size=1),
        ))
        bad_machines = data.draw(st.dictionaries(
            st.integers(0, len(machines) - 1), st.sampled_from(["speed", "*"])
        ))
        expected = set()
        for i, fields in bad_tasks.items():
            if "*" in fields:
                tasks[i] = data.draw(st.sampled_from([None, 1.5, "task", []]))
                expected.add(f"taskset.tasks[{i}]")
                continue
            for name in fields:
                absent_ok = name == "deadline"
                value = data.draw(st.sampled_from(
                    _BAD_NUMBERS + ([] if absent_ok else [None, _DROP])
                ))
                if value is _DROP:
                    del tasks[i][name]
                else:
                    tasks[i][name] = value
                expected.add(f"taskset.tasks[{i}].{name}")
        for j, name in bad_machines.items():
            if name == "*":
                machines[j] = data.draw(st.sampled_from([None, 2.0, "m"]))
                expected.add(f"platform.machines[{j}]")
            else:
                machines[j]["speed"] = data.draw(st.sampled_from(_BAD_NUMBERS + [None]))
                expected.add(f"platform.machines[{j}].speed")
        payload = {"taskset": {"tasks": tasks}, "platform": {"machines": machines}}
        if not expected:
            assert instance_from_dict(payload) == (taskset, platform)
            return
        with pytest.raises(ValidationError) as exc:
            instance_from_dict(payload)
        fields = [e.field for e in exc.value.errors]
        assert len(fields) == len(expected)
        assert set(fields) == expected

    def test_implicit_deadlines_snap_within_tolerance(self):
        def payload(deadline):
            task = {"wcet": 1.0, "period": 10.0, "deadline": deadline}
            return {"taskset": {"tasks": [task]},
                    "platform": {"machines": [{"speed": 1.0}]}}

        near = payload(10.0000000001)
        (task,), _ = instance_from_dict(near, require_implicit=True)
        assert task.is_implicit and task.deadline == 10.0
        assert task_from_dict(near["taskset"]["tasks"][0]).deadline == 10.0000000001
        with pytest.raises(ValidationError) as exc:
            instance_from_dict(payload(4), require_implicit=True)
        assert [e.field for e in exc.value.errors] == ["taskset.tasks[0].deadline"]

    def test_an_int_beyond_the_float_range_is_refused(self):
        """``float()`` of a 401-digit JSON integer overflows; it is a bad
        field, not an uncaught ``OverflowError`` (a 500 from the service,
        a traceback from the CLI)."""
        from repro.service.validation import parse_test_request

        payload = json.loads(
            '{"taskset": {"tasks": [{"wcet": 1, "period": 1%s}]},'
            ' "platform": {"machines": [{"speed": 1}]}}' % ("0" * 400)
        )
        expected = [
            FieldError("taskset.tasks[0].period", "must be positive and finite, got inf")
        ]
        for decode in (instance_from_dict, parse_test_request):
            with pytest.raises(ValidationError) as exc:
                decode(payload)
            assert exc.value.errors == expected

    def test_only_the_service_has_ceilings(self, monkeypatch):
        from repro.service import validation

        monkeypatch.setattr(validation, "MAX_TASKS", 2)
        monkeypatch.setattr(validation, "MAX_MACHINES", 1)
        payload = {
            "taskset": {"tasks": [{"wcet": 1, "period": 2}] * 3},
            "platform": {"machines": [{"speed": 1}] * 2},
        }
        assert len(instance_from_dict(payload)[0]) == 3
        with pytest.raises(ValidationError) as exc:
            validation.parse_test_request(payload)
        assert exc.value.errors == [
            FieldError("taskset.tasks", "at most 2 tasks per instance"),
            FieldError("platform.machines", "at most 1 machines per instance"),
        ]

    def test_batch_items_prefix_their_fields(self):
        from repro.service.validation import parse_batch_request

        good = {"taskset": {"tasks": [{"wcet": 1, "period": 2}]},
                "platform": {"machines": [{"speed": 1}]}}
        with pytest.raises(ValidationError) as exc:
            parse_batch_request({"instances": [
                good, good, {"platform": {"machines": [{}]}}
            ]})
        assert [e.as_dict() for e in exc.value.errors] == [
            {"field": "instances[2].taskset",
             "message": "must be an object with a 'tasks' list"},
            {"field": "instances[2].platform.machines[0].speed",
             "message": "must be a number, got None"},
        ]

    def test_a_non_object_is_named_at_the_root(self):
        with pytest.raises(ValidationError) as exc:
            instance_from_dict([1])
        assert exc.value.errors == [
            FieldError("", "must be an object with 'taskset' and 'platform'")
        ]
        assert str(exc.value.errors[0]) == (
            "must be an object with 'taskset' and 'platform'"
        )

    def test_service_reexports_the_error_types(self):
        from repro.service import validation

        assert validation.ValidationError is ValidationError
        assert validation.FieldError is FieldError


class TestBuiltinSha256:
    @settings(max_examples=100, deadline=None)
    @given(st.binary(max_size=4096))
    def test_equals_hashlib(self, data):
        assert _hashing.sha256(data).hexdigest() == hashlib.sha256(data).hexdigest()

    def test_is_not_openssl(self):
        assert _hashing.sha256 is not hashlib.sha256
        assert "_hashlib" not in type(_hashing.sha256()).__module__

    def test_hashlib_fallback_gives_the_same_digest(self, monkeypatch):
        # a None entry in sys.modules makes that import raise ImportError
        monkeypatch.setitem(sys.modules, "_sha2", None)
        monkeypatch.setitem(sys.modules, "_sha256", None)
        fallback = _hashing.builtin_sha256()
        assert fallback is hashlib.sha256
        monkeypatch.setattr("repro.io_.serialize.sha256", fallback)
        tasks = TestCanonicalDigest.TASKS
        platform = Platform.from_speeds(TestCanonicalDigest.SPEEDS)
        assert instance_digest(tasks, platform) == TestCanonicalDigest.PINNED


class TestTables:
    ROWS = [
        {"name": "a", "value": 1.23456, "flag": True},
        {"name": "bb", "value": 2.0, "flag": False},
    ]

    def test_format_table_alignment(self):
        text = format_table(self.ROWS, title="T", precision=2)
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "name" in lines[1] and "value" in lines[1]
        assert "1.23" in text and "yes" in text and "no" in text

    def test_format_empty(self):
        assert "(no rows)" in format_table([], title="T")

    def test_union_of_columns(self):
        rows = [{"a": 1}, {"b": 2}]
        text = format_table(rows)
        assert "a" in text and "b" in text

    def test_csv_roundtrip_shape(self):
        csv_text = rows_to_csv(self.ROWS)
        lines = csv_text.strip().splitlines()
        assert lines[0] == "name,value,flag"
        assert len(lines) == 3

    def test_csv_empty(self):
        assert rows_to_csv([]) == ""

    def test_write_csv(self, tmp_path):
        path = tmp_path / "out.csv"
        write_csv(path, self.ROWS)
        assert path.read_text().startswith("name,value,flag")
