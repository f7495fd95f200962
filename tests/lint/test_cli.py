"""CLI behavior of ``python -m repro lint``: exit codes and formats."""

import json
from pathlib import Path

from repro.__main__ import main
from repro.lint import lint_file

FIXTURES = Path(__file__).parent / "fixtures"


class TestLintCommand:
    def test_clean_path_exits_zero(self, capsys):
        assert main(["lint", str(FIXTURES / "clean.py")]) == 0
        assert "clean" in capsys.readouterr().out

    def test_findings_exit_one_with_rule_ids(self, capsys):
        code = main(["lint", str(FIXTURES / "det001_random_import.py")])
        assert code == 1
        assert "DET001" in capsys.readouterr().out

    def test_json_format_emits_schema(self, capsys):
        code = main(["lint", "--format", "json",
                     str(FIXTURES / "err001_broad_except.py")])
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == 1
        assert [f["rule"] for f in payload["findings"]] == ["ERR001"]

    def test_rules_filter(self, capsys):
        code = main(["lint", "--rules", "ERR001",
                     str(FIXTURES / "det001_random_import.py")])
        assert code == 0
        capsys.readouterr()

    def test_unknown_rule_exits_two(self, capsys):
        code = main(["lint", "--rules", "NOPE999", str(FIXTURES)])
        assert code == 2
        assert "unknown rule" in capsys.readouterr().err

    def test_undecodable_file_is_a_syntax_finding(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_bytes(b"x = 1\ny = '\xff\xfe'\n")
        assert main(["lint", "--format", "json", str(bad)]) == 1
        [finding] = json.loads(capsys.readouterr().out)["findings"]
        assert finding == {
            "rule": "SYNTAX", "path": str(bad), "line": 2, "col": 5,
            "message": "cannot decode as UTF-8: invalid start byte",
        }
        assert [f.to_dict() for f in lint_file(str(bad))] == [finding]

    def test_missing_path_exits_two(self, capsys):
        code = main(["lint", str(FIXTURES / "no_such_file.py")])
        assert code == 2
        capsys.readouterr()

    def test_list_rules_catalog(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("DET001", "DET002", "DET003", "DET004", "DET005",
                        "DET006", "ORD001", "IMP001", "PAR001", "ERR001",
                        "API001", "FLT001"):
            assert rule_id in out

    def test_overlapping_paths_report_findings_once(self, capsys):
        target = str(FIXTURES / "det001_random_import.py")
        main(["lint", "--format", "json", target])
        once = json.loads(capsys.readouterr().out)
        main(["lint", "--format", "json", target, target])
        twice = json.loads(capsys.readouterr().out)
        assert twice["findings"] == once["findings"]

    def test_no_cache_flag_disables_the_cache(self, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        args = ["lint", "--cache-dir", str(cache_dir), "--no-cache",
                str(FIXTURES / "clean.py")]
        assert main(args) == 0
        capsys.readouterr()
        assert not cache_dir.exists()

    def test_cache_dir_flag_populates_and_reuses(self, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        args = ["lint", "--cache-dir", str(cache_dir),
                str(FIXTURES / "clean.py")]
        assert main(args) == 0
        cold = capsys.readouterr()
        assert cache_dir.exists() and any(cache_dir.iterdir())
        assert main(args) == 0
        warm = capsys.readouterr()
        assert warm.out == cold.out
        assert "1 cached" in warm.err

    def test_jobs_flag_matches_serial_output(self, capsys):
        main(["lint", "--format", "json", "--jobs", "1", str(FIXTURES)])
        serial = capsys.readouterr().out
        code = main(["lint", "--format", "json", "--jobs", "2",
                     str(FIXTURES)])
        parallel = capsys.readouterr().out
        assert code == 1
        assert parallel == serial
