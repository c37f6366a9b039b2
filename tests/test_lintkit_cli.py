"""CLI contract tests: exit codes, output formats, path handling."""

import json
import subprocess
import sys

import pytest

from repro.lintkit.cli import main


@pytest.fixture
def tree(tmp_path):
    """A tiny src tree with one dirty and one clean module."""
    pkg = tmp_path / "src" / "pkg"
    pkg.mkdir(parents=True)
    (pkg / "dirty.py").write_text("y = 10.0 ** (x / 10.0)\n")
    (pkg / "clean.py").write_text("def f(x=None):\n    return x\n")
    return tmp_path


class TestExitCodes:
    def test_clean_tree_exits_zero(self, tree, capsys):
        assert main([str(tree / "src" / "pkg" / "clean.py")]) == 0
        assert capsys.readouterr().out == ""

    def test_findings_exit_one(self, tree, capsys):
        assert main([str(tree / "src")]) == 1
        out = capsys.readouterr().out
        assert "RP101" in out
        assert "dirty.py" in out

    def test_missing_path_exits_two(self, tmp_path, capsys):
        assert main([str(tmp_path / "nope")]) == 2
        assert "error" in capsys.readouterr().err

    def test_unknown_rule_exits_two(self, tree, capsys):
        assert main([str(tree / "src"), "--select", "RP999"]) == 2
        assert "RP999" in capsys.readouterr().err


class TestOutput:
    def test_text_format_is_file_line_col(self, tree, capsys):
        main([str(tree / "src")])
        line = capsys.readouterr().out.splitlines()[0]
        path, lineno, col, rest = line.split(":", 3)
        assert path.endswith("dirty.py")
        assert int(lineno) == 1
        assert int(col) >= 1
        assert rest.strip().startswith("RP101")

    def test_statistics(self, tree, capsys):
        main([str(tree / "src"), "--statistics"])
        err = capsys.readouterr().err
        assert "RP101: 1 finding(s)" in err
        assert "checked 2 file(s)" in err

    def test_select_filters_rules(self, tree, capsys):
        assert main([str(tree / "src"), "--select", "RP106"]) == 0

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("RP101", "RP102", "RP103", "RP104", "RP105", "RP106"):
            assert rule_id in out

    def test_list_rules_includes_project_tier(self, capsys):
        main(["--list-rules"])
        out = capsys.readouterr().out
        for rule_id in ("RP201", "RP202", "RP203", "RP204", "RP205"):
            assert rule_id in out
        assert "[project graph]" in out

    def test_sarif_format(self, tree, capsys):
        assert main([str(tree / "src"), "--format", "sarif"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["version"] == "2.1.0"
        run = doc["runs"][0]
        assert run["tool"]["driver"]["name"] == "repro.lintkit"
        rule_ids = {rule["id"] for rule in run["tool"]["driver"]["rules"]}
        assert {"RP101", "RP201", "RP205"} <= rule_ids
        assert run["results"][0]["ruleId"] == "RP101"
        location = run["results"][0]["locations"][0]["physicalLocation"]
        assert location["region"]["startLine"] == 1

    def test_output_file(self, tree, tmp_path, capsys):
        # --output *also* writes the report: stdout keeps the findings
        # (for humans and logs), FILE gets the artifact CI uploads.
        report = tmp_path / "report.sarif"
        main([str(tree / "src"), "--format", "sarif", "--output", str(report)])
        payload = json.loads(report.read_text())
        assert payload["runs"][0]["results"][0]["ruleId"] == "RP101"
        assert json.loads(capsys.readouterr().out) == payload


class TestRunFlags:
    def test_jobs_flag_parallel_parse(self, tree, capsys):
        assert main([str(tree / "src"), "--jobs", "2"]) == 1
        assert "RP101" in capsys.readouterr().out

    def test_no_project_skips_graph_tier(self, tmp_path, capsys):
        service = tmp_path / "src" / "repro" / "service"
        service.mkdir(parents=True)
        (service / "app.py").write_text(
            "async def _handle_x(self):\n    time.sleep(0.01)\n"
        )
        argv = [str(tmp_path / "src"), "--select", "RP201"]
        assert main(argv) == 1
        assert "RP201" in capsys.readouterr().out
        assert main(argv + ["--no-project"]) == 0


def test_module_entry_point(tree):
    """``python -m repro.lintkit`` works end to end as CI invokes it."""
    proc = subprocess.run(
        [sys.executable, "-m", "repro.lintkit", str(tree / "src")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1
    assert "RP101" in proc.stdout
