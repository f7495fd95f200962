"""``python -m repro bench``: exit codes, reports, double-run identity."""

import json

from repro.__main__ import main
from repro.bench.report import validate_bench_report

FAST = ["--filter", "rng", "--repetitions", "1"]


def _run_to_file(tmp_path, name, extra=()):
    out = tmp_path / name
    code = main(["bench", "--suite", "micro", *FAST,
                 "--out", str(out), *extra])
    return code, out


class TestExitCodes:
    def test_list_exits_zero(self, capsys):
        assert main(["bench", "--list"]) == 0
        out = capsys.readouterr().out
        assert "micro.engine.schedule_fire_cancel" in out
        assert "macro.sweep.cold_warm_cache" in out

    def test_bad_repetitions_exits_two(self, capsys):
        assert main(["bench", "--repetitions", "0"]) == 2
        assert "--repetitions" in capsys.readouterr().err

    def test_negative_tolerance_exits_two(self, capsys):
        assert main(["bench", "--tolerance", "-1"]) == 2
        assert "--tolerance" in capsys.readouterr().err

    def test_empty_selection_exits_two(self, capsys):
        assert main(["bench", "--filter", "no.such.benchmark"]) == 2
        assert "no benchmarks matched" in capsys.readouterr().err

    def test_missing_baseline_exits_two(self, tmp_path, capsys):
        code = main(["bench", "--compare", str(tmp_path / "absent.json")])
        assert code == 2
        assert "cannot read report" in capsys.readouterr().err

    def test_missing_baseline_fails_before_running(self, tmp_path, capsys):
        out = tmp_path / "bench.json"
        code = main(["bench", "--suite", "micro", *FAST, "--out", str(out),
                     "--compare", str(tmp_path / "absent.json")])
        assert code == 2
        err = capsys.readouterr().err
        assert "cannot read report" in err
        assert "bench: running" not in err
        assert not out.exists()

    def test_invalid_baseline_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"schema": 99}')
        code = main(["bench", "--compare", str(bad), str(bad)])
        assert code == 2
        assert "schema validation" in capsys.readouterr().err

    def test_three_compare_paths_exits_two(self, capsys):
        code = main(["bench", "--compare", "a.json", "b.json", "c.json"])
        assert code == 2
        assert "--compare" in capsys.readouterr().err


class TestRunAndReport:
    def test_out_writes_schema_valid_report(self, tmp_path, capsys):
        code, out = _run_to_file(tmp_path, "bench.json")
        assert code == 0
        doc = json.loads(out.read_text())
        assert validate_bench_report(doc) == []
        names = [b["name"] for b in doc["benchmarks"]]
        assert names == ["micro.rng.stream_draw"]
        assert doc["benchmarks"][0]["deterministic"] is True

    def test_json_format_emits_report_with_compare_section(self, capsys):
        code = main(["bench", "--suite", "micro", *FAST,
                     "--format", "json"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["compare"] == []
        assert doc["nondeterministic"] == []

    def test_double_run_work_sections_byte_identical(self, tmp_path,
                                                     capsys):
        # The acceptance property: two runs of the same code produce
        # byte-identical work counters (wall clock may differ).
        _, first = _run_to_file(tmp_path, "a.json")
        _, second = _run_to_file(tmp_path, "b.json")
        work = [
            json.dumps(
                {b["name"]: b["work"]
                 for b in json.loads(path.read_text())["benchmarks"]},
                sort_keys=True,
            )
            for path in (first, second)
        ]
        assert work[0] == work[1]

    def test_compare_against_own_baseline_exits_zero(self, tmp_path,
                                                     capsys):
        _, baseline = _run_to_file(tmp_path, "baseline.json")
        code, _ = _run_to_file(tmp_path, "again.json",
                               extra=["--compare", str(baseline)])
        assert code == 0


class TestRegressionDetection:
    def _doctored(self, tmp_path, capsys, mutate):
        _, baseline = _run_to_file(tmp_path, "old.json")
        capsys.readouterr()
        doc = json.loads(baseline.read_text())
        mutate(doc["benchmarks"][0])
        slowed = tmp_path / "new.json"
        slowed.write_text(json.dumps(doc))
        return baseline, slowed

    def test_injected_slowdown_exits_one(self, tmp_path, capsys):
        def slow_down(bench):
            bench["best_s"] = bench["best_s"] + 1.0
            bench["mean_s"] = bench["mean_s"] + 1.0

        baseline, slowed = self._doctored(tmp_path, capsys, slow_down)
        code = main(["bench", "--compare", str(baseline), str(slowed)])
        assert code == 1
        assert "wall clock regressed" in capsys.readouterr().out

    def test_work_drift_exits_one(self, tmp_path, capsys):
        def drift(bench):
            bench["work"]["bench.rng_draws"] += 1

        baseline, drifted = self._doctored(tmp_path, capsys, drift)
        code = main(["bench", "--compare", str(baseline), str(drifted)])
        assert code == 1
        assert "drifted" in capsys.readouterr().out

    def test_nondeterministic_new_report_exits_one(self, tmp_path, capsys):
        def wobble(bench):
            bench["deterministic"] = False

        baseline, wobbly = self._doctored(tmp_path, capsys, wobble)
        code = main(["bench", "--compare", str(baseline), str(wobbly)])
        assert code == 1
        assert "NONDETERMINISTIC" in capsys.readouterr().out
