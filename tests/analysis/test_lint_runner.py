"""Runner end-to-end: exit codes, reports, the repo."""

import json
import os
import subprocess
import sys
from pathlib import Path

from repro.analysis.runner import main

REPO_ROOT = Path(__file__).resolve().parents[2]


def _tree(tmp_path: Path, source: str) -> Path:
    """A minimal lintable tree with one module."""
    pkg = tmp_path / "src" / "pkg"
    pkg.mkdir(parents=True)
    (pkg / "mod.py").write_text(source, encoding="utf-8")
    return tmp_path


BAD_ASYNC = "import time\n\n\nasync def handler():\n    time.sleep(1)\n"


class TestExitCodes:
    def test_repo_is_clean(self, capsys):
        """The acceptance gate: repro-lint exits 0 on today's tree."""
        assert main(["--root", str(REPO_ROOT)]) == 0
        out = capsys.readouterr().out
        assert "0 finding(s)" in out

    def test_findings_exit_one_with_file_line_and_rule(
        self, tmp_path, capsys
    ):
        root = _tree(tmp_path, BAD_ASYNC)
        assert main(["--root", str(root)]) == 1
        out = capsys.readouterr().out
        assert "src/pkg/mod.py:5: RL001" in out

    def test_unknown_rule_id_is_usage_error(self, tmp_path, capsys):
        root = _tree(tmp_path, "x = 1\n")
        assert main(["--root", str(root), "--select", "RL999"]) == 2
        assert "unknown rule" in capsys.readouterr().err

    def test_bad_root_is_usage_error(self, tmp_path, capsys):
        missing = tmp_path / "nope"
        assert main(["--root", str(missing)]) == 2

    def test_bad_path_is_usage_error(self, tmp_path, capsys):
        root = _tree(tmp_path, "x = 1\n")
        assert main(["--root", str(root), "no/such/file.py"]) == 2
        assert "no such file" in capsys.readouterr().err

    def test_select_runs_only_named_rules(self, tmp_path, capsys):
        root = _tree(tmp_path, BAD_ASYNC)
        assert main(["--root", str(root), "--select", "RL002"]) == 0

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("RL001", "RL002", "RL003", "RL004", "RL005", "RL006"):
            assert rule_id in out


class TestRuleTables:
    """The rule tables a reader sees name exactly the registered rules."""

    @staticmethod
    def _registered():
        from repro.analysis import FRAMEWORK_RULE, all_rules

        return set(all_rules()), FRAMEWORK_RULE

    def test_package_docstring_lists_the_registered_rules(self):
        import re

        import repro.analysis

        registered, _ = self._registered()
        named = set(re.findall(r"^(RL\d{3})\s", repro.analysis.__doc__, re.M))
        assert named == registered

    def test_architecture_table_lists_the_registered_rules(self):
        import re

        registered, framework = self._registered()
        text = (REPO_ROOT / "docs" / "architecture.md").read_text(
            encoding="utf-8"
        )
        named = set(re.findall(r"^\| (RL\d{3}) \|", text, re.M))
        assert named == registered | {framework}


class TestReports:
    def test_json_report_written(self, tmp_path, capsys):
        root = _tree(tmp_path, BAD_ASYNC)
        report_path = tmp_path / "out" / "report.json"
        assert (
            main(["--root", str(root), "--report", str(report_path)]) == 1
        )
        report = json.loads(report_path.read_text())
        assert report["schema"] == 1
        assert report["counts"] == {"RL001": 1}
        (finding,) = report["findings"]
        assert finding["rule"] == "RL001"
        assert finding["path"] == "src/pkg/mod.py"
        assert finding["line"] == 5

    def test_json_stdout_format(self, tmp_path, capsys):
        root = _tree(tmp_path, BAD_ASYNC)
        assert main(["--root", str(root), "--format", "json"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["counts"] == {"RL001": 1}


class TestSelectFrameworkDiagnostics:
    def test_rl000_is_a_legal_selection(self, tmp_path):
        root = _tree(tmp_path, "x = 1\n")
        assert main(["--root", str(root), "--select", "RL000"]) == 0

    def test_rl000_reported_even_when_selection_excludes_it(
        self, tmp_path, capsys
    ):
        """Framework diagnostics (unparseable files, malformed
        suppressions) must always surface: narrowing the run to RL002
        cannot silence the syntax error."""
        root = _tree(tmp_path, "def broken(:\n")
        assert main(["--root", str(root), "--select", "RL002"]) == 1
        assert "RL000" in capsys.readouterr().out


class TestGithubFormat:
    def test_workflow_annotations_emitted(self, tmp_path, capsys):
        root = _tree(tmp_path, BAD_ASYNC)
        assert main(["--root", str(root), "--format", "github"]) == 1
        out = capsys.readouterr().out
        assert "::error file=src/pkg/mod.py,line=5,title=RL001 " in out
        assert "1 finding(s)" in out  # summary line still present

    def test_clean_tree_emits_no_annotations(self, tmp_path, capsys):
        root = _tree(tmp_path, "x = 1\n")
        assert main(["--root", str(root), "--format", "github"]) == 0
        assert "::error" not in capsys.readouterr().out


class TestCliIntegration:
    def test_repro_ecg_lint_subcommand(self, capsys):
        from repro.cli import main as cli_main

        assert cli_main(["lint", "--root", str(REPO_ROOT)]) == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_lint_listed_in_cli_help(self):
        from repro.analysis.rules_docs import cli_surface

        subcommands, _ = cli_surface(REPO_ROOT / "src" / "repro" / "cli.py")
        assert "lint" in subcommands

    def test_seeded_violation_fails_via_cli(self, tmp_path, capsys):
        from repro.cli import main as cli_main

        root = _tree(tmp_path, BAD_ASYNC)
        assert cli_main(["lint", "--root", str(root)]) == 1
        assert "RL001" in capsys.readouterr().out


class TestZeroDependency:
    def test_full_lint_runs_with_numpy_blocked(self):
        """CI's lint job installs no third-party deps: the whole repo
        lint — including the package root `python -m repro.analysis`
        traverses and RL004's catalog import — must run on a bare
        stdlib interpreter.  Simulated by a meta-path hook that makes
        numpy/scipy unimportable in a subprocess."""
        blocker = (
            "import sys\n"
            "class _Absent:\n"
            "    def find_spec(self, name, path=None, target=None):\n"
            "        if name.split('.')[0] in ('numpy', 'scipy'):\n"
            "            raise ModuleNotFoundError(\n"
            "                f'{name} is blocked for this test', name=name)\n"
            "        return None\n"
            "sys.meta_path.insert(0, _Absent())\n"
            "from repro.analysis.runner import main\n"
            "sys.exit(main(['--root', sys.argv[1]]))\n"
        )
        env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
        proc = subprocess.run(
            [sys.executable, "-c", blocker, str(REPO_ROOT)],
            capture_output=True,
            text=True,
            env=env,
            cwd=str(REPO_ROOT),
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "0 finding(s)" in proc.stdout
