"""Tests for ``python -m repro trace`` and the run_trace entry point."""

import argparse
import errno
import json
import os

import pytest

from repro.__main__ import main
from repro.obs import Tracer, validate_trace_file
from repro.obs.cli import add_trace_arguments, run_trace
from repro.sim import Simulator


def _parse(argv):
    parser = argparse.ArgumentParser()
    add_trace_arguments(parser)
    return parser.parse_args(argv)


def _tiny_driver():
    """A minimal sim-based experiment for exercising the CLI plumbing."""
    sim = Simulator()

    def worker():
        yield 1.0
        yield 2.0
        return "ok"

    sim.spawn(worker(), name="worker")
    sim.run()
    return [{"result": "ok"}]


EXPERIMENTS = {"E1": _tiny_driver}


class TestRunTrace:
    def test_trace_writes_valid_jsonl(self, tmp_path, capsys):
        out = tmp_path / "trace.jsonl"
        args = _parse(["E1", "--out", str(out)])
        assert run_trace(args, EXPERIMENTS) == 0
        assert validate_trace_file(str(out)) == []
        stdout = capsys.readouterr().out
        assert "experiment: E1" in stdout
        assert "process_finished" in stdout
        assert f"trace written: {out}" in stdout

    def test_json_format_report(self, capsys):
        args = _parse(["E1", "--format", "json"])
        assert run_trace(args, EXPERIMENTS) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["experiment"] == "E1"
        assert payload["trace"]["by_kind"]["process_spawned"] == 1
        assert payload["metrics"]["counters"]["sim.processes_finished"] == 1

    def test_capacity_caps_trace(self, capsys):
        args = _parse(["E1", "--capacity", "2"])
        assert run_trace(args, EXPERIMENTS) == 0
        assert "dropped" in capsys.readouterr().out

    def test_lowercase_name_accepted(self, capsys):
        args = _parse(["e1"])
        assert run_trace(args, EXPERIMENTS) == 0
        assert "experiment: E1" in capsys.readouterr().out

    def test_unknown_experiment_is_usage_error(self, capsys):
        args = _parse(["E99"])
        assert run_trace(args, EXPERIMENTS) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_missing_name_is_usage_error(self, capsys):
        args = _parse([])
        assert run_trace(args, EXPERIMENTS) == 2
        assert "required" in capsys.readouterr().err

    def test_negative_capacity_is_usage_error(self, capsys):
        args = _parse(["E1", "--capacity", "-5"])
        assert run_trace(args, EXPERIMENTS) == 2


class TestValidateMode:
    def test_valid_trace_exits_zero(self, tmp_path, capsys):
        out = tmp_path / "trace.jsonl"
        assert run_trace(_parse(["E1", "--out", str(out)]), EXPERIMENTS) == 0
        capsys.readouterr()
        assert run_trace(_parse(["--validate", str(out)]), EXPERIMENTS) == 0
        assert "valid" in capsys.readouterr().out

    def test_invalid_trace_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"schema":9,"seq":0,"kind":"x"}\n')
        assert run_trace(_parse(["--validate", str(bad)]), EXPERIMENTS) == 1
        assert "schema error" in capsys.readouterr().out

    def test_unreadable_path_exits_two(self, tmp_path, capsys):
        missing = tmp_path / "nope.jsonl"
        assert run_trace(_parse(["--validate", str(missing)]), EXPERIMENTS) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_undecodable_file_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b"\xff\xfe")
        assert run_trace(_parse(["--validate", str(bad)]), EXPERIMENTS) == 2
        assert f"trace: cannot read {str(bad)!r}" in capsys.readouterr().err


class TestUnwritableOut:
    @pytest.mark.parametrize("target,reason", [
        ("missing/t.jsonl", "No such file or directory"),
        (".", "Is a directory"),
    ])
    def test_exits_two_before_the_run(self, tmp_path, capsys, target,
                                      reason):
        runs = []
        out = tmp_path / target
        args = _parse(["E1", "--out", str(out)])
        assert run_trace(args, {"E1": lambda: runs.append(1)}) == 2
        assert capsys.readouterr().err == (
            f"trace: cannot write --out {out}: {reason}\n"
        )
        assert runs == []

    def test_failed_write_exits_two(self, tmp_path, capsys, monkeypatch):
        def full_disk(self, path):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(Tracer, "write_jsonl", full_disk)
        out = tmp_path / "t.jsonl"
        assert run_trace(_parse(["E1", "--out", str(out)]), EXPERIMENTS) == 2
        assert capsys.readouterr().err == (
            f"trace: cannot write --out {out}: {os.strerror(errno.ENOSPC)}\n"
        )


class TestMainEndToEnd:
    def test_trace_real_experiment(self, tmp_path, capsys):
        """The CI smoke path: trace a real (small) experiment, validate
        the artifact with the validator the CI step uses."""
        out = tmp_path / "e6c.jsonl"
        assert main(["trace", "E6C", "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "event_fired" in stdout
        assert "sim.queue_depth" in stdout
        assert validate_trace_file(str(out)) == []
        first = json.loads(out.read_text().splitlines()[0])
        assert first["seq"] == 0

    def test_trace_e6c_is_deterministic(self, tmp_path):
        """Two traced runs of the same seeded experiment produce
        byte-identical JSONL — the tracer's determinism contract."""
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        assert main(["trace", "E6C", "--out", str(a)]) == 0
        assert main(["trace", "E6C", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
