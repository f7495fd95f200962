"""Tests for the ``python -m repro`` command-line interface."""

import pytest

from repro.__main__ import main


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


class TestShardEngineCommand:
    def test_sweep_e4_on_shard_engine(self, capsys):
        assert main([
            "sweep", "E4", "--engine", "shard", "--shards", "4",
            "--no-cache",
        ]) == 0
        out = capsys.readouterr().out
        assert "replicated_failover" in out
        assert "messages_crossed" in out

    def test_shard_count_defaults_to_two(self, capsys):
        assert main([
            "sweep", "E6S", "--engine", "shard", "--no-cache",
        ]) == 0
        out = capsys.readouterr().out
        assert "registration-partition" in out

    def test_shards_flag_requires_shard_engine(self, capsys):
        assert main(["sweep", "E4", "--shards", "2", "--no-cache"]) == 2
        assert "--shards requires --engine shard" in (
            capsys.readouterr().err
        )

    def test_invalid_shard_count_rejected(self, capsys):
        assert main([
            "sweep", "E4", "--engine", "shard", "--shards", "0",
            "--no-cache",
        ]) == 2
        assert "--shards must be >= 1" in capsys.readouterr().err

    def test_unsharded_experiment_rejected(self, capsys):
        assert main([
            "sweep", "E8", "--engine", "shard", "--no-cache",
        ]) == 2
        assert "no shard engine" in capsys.readouterr().err

    def test_list_mentions_shard_engine(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "--engine shard" in out
        assert "E6S" in out


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
