"""CLI surface: ``repro-model lint`` exit codes, formats, selection flags."""

from __future__ import annotations

import json

import pytest

from repro.cli import main

CLEAN = "def ok(fn):\n    try:\n        fn()\n    except ValueError:\n        pass\n"
DIRTY = "def bad(fn):\n    try:\n        fn()\n    except Exception:\n        pass\n"


@pytest.fixture
def project(tmp_path, monkeypatch):
    """A hermetic mini-project the lint subcommand runs against."""
    (tmp_path / "pyproject.toml").write_text("[tool.repro-lint]\npaths = ['pkg']\n")
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "clean.py").write_text(CLEAN)
    monkeypatch.chdir(tmp_path)
    return tmp_path


class TestExitCodes:
    def test_clean_tree_exits_zero(self, project, capsys):
        assert main(["lint"]) == 0
        assert "clean:" in capsys.readouterr().out

    def test_violations_exit_one(self, project, capsys):
        (project / "pkg" / "dirty.py").write_text(DIRTY)
        assert main(["lint"]) == 1
        out = capsys.readouterr().out
        assert "EXC001" in out and "dirty.py" in out

    def test_unknown_rule_exits_two(self, project, capsys):
        assert main(["lint", "--select", "NOPE999"]) == 2
        assert "unknown rule" in capsys.readouterr().err

    def test_missing_path_exits_two(self, project, capsys):
        assert main(["lint", "does-not-exist"]) == 2
        assert "does not exist" in capsys.readouterr().err


class TestFlags:
    def test_explicit_paths_override_config(self, project, capsys):
        other = project / "other"
        other.mkdir()
        (other / "dirty.py").write_text(DIRTY)
        assert main(["lint", "pkg"]) == 0
        assert main(["lint", "other"]) == 1

    def test_ignore_silences_rule(self, project):
        (project / "pkg" / "dirty.py").write_text(DIRTY)
        assert main(["lint", "--ignore", "EXC001"]) == 0

    def test_select_restricts_rules(self, project):
        (project / "pkg" / "dirty.py").write_text(DIRTY)
        assert main(["lint", "--select", "RNG001,IO001"]) == 0
        assert main(["lint", "--select", "exc001"]) == 1

    def test_json_format(self, project, capsys):
        (project / "pkg" / "dirty.py").write_text(DIRTY)
        assert main(["lint", "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["version"] == 2
        assert payload["clean"] is False
        assert payload["counts"] == {"EXC001": 1}
        assert payload["violations"][0]["rule"] == "EXC001"
        assert payload["violations"][0]["path"] == "pkg/dirty.py"
