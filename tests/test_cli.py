"""Tests for the ``python -m repro`` command-line interface."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.__main__ import main

SRC_DIR = Path(__file__).resolve().parent.parent / "src"


class TestCli:
    def test_table3(self, capsys):
        assert main(["table3"]) == 0
        out = capsys.readouterr().out
        assert "200 Tbps" in out and "5000 Tbps" in out
        assert "210 EB" in out

    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "Namecoin" in out and "ZeroNet" in out

    def test_table2(self, capsys):
        assert main(["table2"]) == 0
        out = capsys.readouterr().out
        assert "Filecoin" in out and "Bitswap" in out

    def test_zooko(self, capsys):
        assert main(["zooko"]) == 0
        out = capsys.readouterr().out
        assert "blockchain" in out

    def test_agenda(self, capsys):
        assert main(["agenda"]) == 0
        out = capsys.readouterr().out
        assert "feudalism" in out.lower()

    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "E4" in out and "E12" in out

    def test_experiment_e6b_fast(self, capsys):
        assert main(["experiment", "E6b"]) == 0
        out = capsys.readouterr().out
        assert "attacker_share" in out

    def test_experiment_e10_fast(self, capsys):
        assert main(["experiment", "e10"]) == 0
        out = capsys.readouterr().out
        assert "spam_pass_rate" in out

    def test_unknown_experiment(self, capsys):
        assert main(["experiment", "E99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_no_command_prints_help(self, capsys):
        assert main([]) == 1
        assert "Regenerate artifacts" in capsys.readouterr().out

    def test_closed_stdout_exits_without_traceback(self):
        # The reader is gone before the first write, as with ``| head``
        # once it has its lines.
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            result = subprocess.run(
                [sys.executable, "-m", "repro", "table1"],
                stdout=write_end, stderr=subprocess.PIPE, text=True,
                env={**os.environ, "PYTHONPATH": str(SRC_DIR)},
                timeout=120,
            )
        finally:
            os.close(write_end)
        assert result.stderr == ""
        assert result.returncode == 1


class TestSweepCommand:
    def test_sweep_cold_then_warm_cache(self, capsys, tmp_path):
        assert main(["sweep", "E4", "--cache-dir", str(tmp_path)]) == 0
        cold = capsys.readouterr().out
        assert "read_availability" in cold
        assert "cache_misses" in cold

        assert main(["sweep", "E4", "--cache-dir", str(tmp_path)]) == 0
        warm = capsys.readouterr().out
        # Zero recomputation on the warm run, and identical rows.
        warm_summary = warm.splitlines()
        assert any(
            line.startswith("3      3           0")
            for line in warm_summary
        ), f"expected 3 hits / 0 misses in:\n{warm}"
        assert cold.split("\n\n")[0] == warm.split("\n\n")[0]

    def test_sweep_parallel_workers(self, capsys, tmp_path):
        assert main([
            "sweep", "E4", "--workers", "2", "--no-cache",
            "--cache-dir", str(tmp_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "replicated_failover" in out

    def test_sweep_unknown_experiment(self, capsys):
        assert main(["sweep", "E99"]) == 2
        assert "unknown sweep" in capsys.readouterr().err

    def test_list_mentions_sweepable(self, capsys):
        assert main(["list"]) == 0
        assert "sweepable" in capsys.readouterr().out

    def test_unusable_cache_dir_exits_two(self, capsys, tmp_path):
        not_a_dir = tmp_path / "cache"
        not_a_dir.write_text("")
        assert main(["sweep", "E3", "--cache-dir", str(not_a_dir)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert line.startswith("sweep: ") and str(not_a_dir) in line

    @pytest.mark.parametrize("workers", ["0", "-2"])
    def test_workers_below_one_exits_two(self, capsys, workers):
        assert main(["sweep", "E4", "--workers", workers, "--no-cache"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"--workers must be >= 1, got {workers}\n"


class TestCohortEngineCommand:
    @pytest.mark.parametrize("name", ["E3", "E4", "E5", "E9"])
    @pytest.mark.parametrize("devices", ["0", "-1"])
    def test_nonpositive_device_count_rejected(self, capsys, name, devices):
        assert main([
            "sweep", name, "--engine", "cohort", "--devices", devices,
            "--no-cache",
        ]) == 2
        assert f"--devices must be >= 1, got {devices}" in (
            capsys.readouterr().err
        )

    def test_e9_needs_one_object_per_replication_factor(self, capsys):
        assert main([
            "sweep", "E9", "--engine", "cohort", "--devices", "3",
            "--no-cache",
        ]) == 2
        assert "E9 cohort needs at least 4 devices" in capsys.readouterr().err

    def test_e3_needs_one_device_per_fleet_class(self, capsys):
        assert main([
            "sweep", "E3", "--engine", "cohort", "--devices", "2",
            "--no-cache",
        ]) == 2
        assert "E3 cohort needs at least 3 devices" in capsys.readouterr().err

    @pytest.mark.parametrize("name, devices", [("E3", "3"), ("E9", "4")])
    def test_smallest_splittable_population_runs(self, capsys, name,
                                                 devices):
        assert main([
            "sweep", name, "--engine", "cohort", "--devices", devices,
            "--no-cache",
        ]) == 0
        assert "cache_misses" in capsys.readouterr().out


class TestVerifyCommand:
    def test_verify_passes_and_exits_zero(self, capsys):
        assert main(["verify"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out
        assert "FAIL" not in out
        assert "All reproduction targets hold." in out

    def test_failing_claim_exits_three_naming_its_assert(
        self, capsys, monkeypatch
    ):
        import dataclasses

        from repro.analysis import claims

        wrong_table = [{"problem": "Naming", "projects": "DNS"}]
        broken = dataclasses.replace(
            claims.CLAIMS["E1"], driver=lambda: wrong_table
        )
        monkeypatch.setattr(claims, "CLAIMS", {"E1": broken})
        assert main(["verify"]) == 3
        [row] = capsys.readouterr().out.splitlines()[2:]
        assert row.startswith("E1 ")
        assert "FAIL" in row and 'assert projects["Naming"] ==' in row

    def test_stripped_asserts_never_pass(self):
        result = subprocess.run(
            [sys.executable, "-O", "-m", "repro", "verify"],
            capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": str(SRC_DIR)}, timeout=120,
        )
        assert result.returncode == 3
        assert "PASS" not in result.stdout
        assert "python -O strips" in result.stdout
