"""Program pass end to end: suppressions, CLI selection, JSON v2, regressions."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro import schemas
from repro.cli import main
from repro.lint import LintConfig, lint_sources, runner

REPO_SRC = Path(__file__).resolve().parents[3] / "src"

RACY = '''\
import threading

_CACHE = {}


def start():
    threading.Thread(target=_loop).start()


def _loop():
    _CACHE["n"] = _CACHE.get("n", 0) + 1
'''

RACY_SUPPRESSED = RACY.replace(
    '    _CACHE["n"]',
    "    # repro-lint: disable-next-line=CONC001 -- single writer by design.\n"
    '    _CACHE["n"]',
)

class TestSuppressions:
    def test_program_findings_respect_disable_comments(self):
        config = LintConfig(select=("CONC001",))
        assert not lint_sources({"svc.py": RACY}, config).clean
        assert lint_sources({"svc.py": RACY_SUPPRESSED}, config).clean


class TestCLI:
    def _project(self, tmp_path, monkeypatch, config="[tool.repro-lint]\npaths = ['pkg']\n"):
        (tmp_path / "pyproject.toml").write_text(config)
        pkg = tmp_path / "pkg"
        pkg.mkdir()
        (pkg / "svc.py").write_text(RACY)
        monkeypatch.chdir(tmp_path)
        return tmp_path

    def test_per_file_selection_skips_the_graph_pass(self, tmp_path, monkeypatch, capsys):
        self._project(tmp_path, monkeypatch)
        assert main(["lint"]) == 1
        assert "CONC001" in capsys.readouterr().out

        def no_graph(sources):
            raise AssertionError("graph built for per-file rules only")

        monkeypatch.setattr(runner, "build_program", no_graph)
        assert main(["lint", "--select", "RNG001,EXC001"]) == 0

    def test_retired_program_switch_refused(self, tmp_path, monkeypatch, capsys):
        self._project(
            tmp_path,
            monkeypatch,
            config="[tool.repro-lint]\npaths = ['pkg']\nprogram = false\n",
        )
        assert main(["lint"]) == 2
        assert "unknown [tool.repro-lint] key(s) 'program'" in capsys.readouterr().err
        with pytest.raises(SystemExit):
            main(["lint", "--no-program"])

    def test_json_output_round_trips_program_findings(
        self, tmp_path, monkeypatch, capsys
    ):
        self._project(tmp_path, monkeypatch)
        assert main(["lint", "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["version"] == 2
        entry = next(v for v in payload["violations"] if v["rule"] == "CONC001")
        assert entry["kind"] == "program"
        assert entry["provenance"] == ["pkg.svc._loop"]
        assert payload["violations"][0]["kind"] == "program"


class TestSeededRegressions:
    """The acceptance drills: re-introducing a defect must fail the lint."""

    def test_duplicating_a_real_canonical_literal_fails(self):
        schemas_src = (REPO_SRC / "repro" / "schemas.py").read_text()
        sources = {
            "src/repro/schemas.py": schemas_src,
            "src/repro/rogue.py": f'SCHEMA = "{schemas.REQUEST_SCHEMA}"\n',
        }
        config = LintConfig(select=("SCHEMA001X",))
        result = lint_sources(sources, config)
        assert [v.rule for v in result.violations] == ["SCHEMA001X"]
        assert result.violations[0].path == "src/repro/rogue.py"

    def test_dropping_a_lock_fails(self):
        config = LintConfig(select=("CONC001",))
        locked = RACY.replace(
            "_CACHE = {}",
            "_CACHE = {}\n_LOCK = threading.Lock()",
        ).replace(
            '    _CACHE["n"] = _CACHE.get("n", 0) + 1',
            '    with _LOCK:\n        _CACHE["n"] = _CACHE.get("n", 0) + 1',
        )
        assert lint_sources({"svc.py": locked}, config).clean
        assert not lint_sources({"svc.py": RACY}, config).clean
