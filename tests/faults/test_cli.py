"""``python -m repro chaos``: exit codes, report schema, trace output."""

import json

import pytest

import repro.faults.cli
from repro.__main__ import main
from repro.faults.cli import validate_chaos_report
from repro.obs import validate_trace_file


class TestExitCodes:
    def test_clean_run_exits_zero(self, capsys):
        assert main(["chaos", "E6", "--plan", "quiet", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "chaos E6" in out
        assert "invariants:" in out

    def test_violation_exits_one(self, capsys):
        code = main(["chaos", "E6", "--plan",
                     "registration-partition-noheal", "--seed", "2"])
        assert code == 1
        assert "VIOLATED registration_completes" in capsys.readouterr().out

    def test_missing_experiment_exits_two(self, capsys):
        assert main(["chaos"]) == 2
        assert "required" in capsys.readouterr().err

    def test_unknown_experiment_exits_two(self, capsys):
        assert main(["chaos", "E99"]) == 2
        assert "no scenario" in capsys.readouterr().err

    def test_unknown_plan_exits_two(self, capsys):
        assert main(["chaos", "E4", "--plan", "nope"]) == 2
        assert "chaos:" in capsys.readouterr().err

    def test_undecodable_plan_file_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b"\xff\xfe")
        assert main(["chaos", "E6", "--plan", str(bad)]) == 2
        assert (f"chaos: cannot read plan file {str(bad)!r}"
                in capsys.readouterr().err)

    def test_nan_plan_time_exits_two(self, tmp_path, capsys):
        plan = tmp_path / "nan.json"
        plan.write_text(
            '{"events": [{"kind": "crash", "at": NaN, "node": "srv0"}]}')
        assert main(["chaos", "E4", "--plan", str(plan)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "chaos: Crash.at must be >= 0, got nan" in captured.err

    def test_bad_interval_exits_two(self, capsys):
        for interval in ("0", "nan"):
            code = main(["chaos", "E4", "--plan", "quiet",
                         "--interval", interval])
            assert code == 2
            assert "chaos: --interval" in capsys.readouterr().err

    def test_nan_latency_factor_exits_two(self, tmp_path, capsys):
        plan = tmp_path / "nan.json"
        plan.write_text('{"events": [{"kind": "latency_spike",'
                        ' "factor": NaN, "window": [50, 150]}]}')
        assert main(["chaos", "E4", "--plan", str(plan)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "chaos: LatencySpike.factor must be > 1, got nan" in captured.err

    @pytest.mark.parametrize("event, message", [
        ('{"kind": "partition", "at": 5, "groups": 5}',
         "event 0 (partition): 'int' object is not iterable"),
        ('{"kind": "partition", "at": 5, "groups": [1, 2]}',
         "event 0 (partition): 'int' object is not iterable"),
        ('{"kind": "censor", "at": 5, "inside": 3}',
         "event 0 (censor): 'int' object is not iterable"),
        ('{"kind": "censor", "at": 5, "inside": ["a"], "fingerprints": 7}',
         "event 0 (censor): 'int' object is not iterable"),
        ('{"kind": "drop_burst", "window": 3, "prob": 0.5}',
         "DropBurst.window must be a (start, end) pair, got 3"),
    ], ids=["groups-int", "group-int", "inside-int", "fingerprints-int",
            "window-int"])
    def test_malformed_plan_field_exits_two(self, tmp_path, capsys, event,
                                            message):
        plan = tmp_path / "bad.json"
        plan.write_text('{"events": [' + event + ']}')
        assert main(["chaos", "E4", "--plan", str(plan)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"chaos: {message}" in captured.err

    def test_lowercase_experiment_accepted(self, capsys):
        assert main(["chaos", "e6", "--plan", "quiet"]) == 0
        capsys.readouterr()


class TestListing:
    def test_list_prints_presets_and_scenarios(self, capsys):
        assert main(["chaos", "--list"]) == 0
        out = capsys.readouterr().out
        assert "scenarios: E4 E4C E4P E5 E5C E6 E9 E9C" in out
        for preset in ("quiet", "server-kill", "churn-storm",
                       "registration-partition", "device-flap"):
            assert preset in out


class TestJsonReport:
    @pytest.fixture(scope="class")
    def report(self):
        import io
        from contextlib import redirect_stdout

        buffer = io.StringIO()
        with redirect_stdout(buffer):
            code = main(["chaos", "E6", "--plan", "registration-partition",
                         "--seed", "2", "--format", "json"])
        assert code == 0
        return json.loads(buffer.getvalue())

    def test_schema_validates(self, report):
        assert validate_chaos_report(report) == []

    def test_envelope_contents(self, report):
        assert report["schema"] == 1
        assert report["experiment"] == "E6"
        assert report["plan"] == "registration-partition"
        assert report["seed"] == 2
        assert report["result"]["registered"] is True
        assert report["violations"] == []
        assert report["trace"]["events"] > 0
        assert report["trace"]["by_kind"]["fault_injected"] == 1
        assert report["metrics"]["counters"]["faults.injected"] == 1

    def test_validator_flags_broken_reports(self):
        assert validate_chaos_report([]) != []
        assert any("schema" in e
                   for e in validate_chaos_report({"schema": 99}))
        missing = validate_chaos_report({"schema": 1})
        assert any("experiment" in e for e in missing)


class TestUnwritableOut:
    @pytest.mark.parametrize("target,reason", [
        ("missing/t.jsonl", "No such file or directory"),
        (".", "Is a directory"),
    ])
    def test_exits_two_before_the_run(self, tmp_path, capsys, monkeypatch,
                                      target, reason):
        runs = []
        monkeypatch.setattr(repro.faults.cli, "run_chaos",
                            lambda *args, **kwargs: runs.append(args))
        out = tmp_path / target
        assert main(["chaos", "E6", "--plan", "quiet",
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"chaos: cannot write --out {out}: {reason}\n"
        )
        assert runs == []


class TestTraceOutput:
    def test_identical_invocations_write_identical_traces(
        self, tmp_path, capsys
    ):
        paths = [tmp_path / "a.jsonl", tmp_path / "b.jsonl"]
        for path in paths:
            code = main(["chaos", "E6", "--plan", "registration-partition",
                         "--seed", "2", "--out", str(path)])
            assert code == 0
        capsys.readouterr()
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_trace_validates_against_obs_schema(self, tmp_path, capsys):
        path = tmp_path / "trace.jsonl"
        main(["chaos", "E9", "--plan", "device-flap", "--seed", "2",
              "--out", str(path)])
        capsys.readouterr()
        assert validate_trace_file(str(path)) == []

    def test_trace_contains_fault_kinds(self, tmp_path, capsys):
        path = tmp_path / "trace.jsonl"
        main(["chaos", "E4", "--plan", "server-kill", "--seed", "7",
              "--out", str(path)])
        capsys.readouterr()
        kinds = {json.loads(line)["kind"]
                 for line in path.read_text().splitlines()}
        assert {"fault_injected", "fault_healed",
                "invariant_checked"} <= kinds
