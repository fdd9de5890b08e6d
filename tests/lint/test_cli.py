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

    def test_unknown_rule_in_config_exits_two(self, project, capsys):
        # A misspelt id must not turn the lint off: the project has a real
        # RNG001 violation that select = ["RNG01"] would otherwise hide.
        (project / "pkg" / "draw.py").write_text("import random\nrandom.random()\n")
        assert main(["lint"]) == 1
        (project / "pyproject.toml").write_text(
            "[tool.repro-lint]\npaths = ['pkg']\nselect = ['RNG01']\n"
        )
        assert main(["lint"]) == 2
        assert "unknown rule(s) RNG01 in select of [tool.repro-lint]" in capsys.readouterr().err

    def test_missing_path_exits_two(self, project, capsys):
        assert main(["lint", "does-not-exist"]) == 2
        assert "does not exist" in capsys.readouterr().err

    def test_unknown_config_key_exits_two(self, project, capsys):
        (project / "pyproject.toml").write_text(
            "[tool.repro-lint]\npaths = ['pkg']\nignores = ['EXC001']\n"
            "[tool.repro-lint.per-path-ignores]\n'pkg/' = ['EXC001']\n"
        )
        assert main(["lint"]) == 2
        err = capsys.readouterr().err
        assert "unknown [tool.repro-lint] key(s) 'ignores', 'per-path-ignores'" in err

    def test_unregistered_suppression_exits_one(self, project, capsys):
        (project / "pkg" / "stale.py").write_text(
            "x = 1  # repro-lint: disable=FOO001 -- nothing\n"
        )
        assert main(["lint"]) == 1
        out = capsys.readouterr().out
        assert "pkg/stale.py:1:0: SUPPRESSION" in out
        assert "unregistered rule(s) FOO001; registered: ARCH001, CONC001" in out

    def test_suppression_without_rationale_exits_one(self, project, capsys):
        (project / "pkg" / "bare.py").write_text(
            "import random  # repro-lint: disable=RNG001\n"
        )
        assert main(["lint"]) == 1
        out = capsys.readouterr().out
        assert "pkg/bare.py:1:0: SUPPRESSION" in out
        assert "has no '-- rationale'" in out


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
        assert main(["lint", "--select", "RNG001,CONC001"]) == 0
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
