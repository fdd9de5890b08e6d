"""Configuration loading ([tool.repro-lint]) and path scoping."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.lint.config import LintConfig, find_project_root, load_config

PYPROJECT = """\
[tool.repro-lint]
paths = ["src", "tests"]
select = ["RNG001", "exc001"]
ignore = ["ARCH001"]
exclude = ["tests/lint/fixtures", "./scratch"]
"""


def write_pyproject(tmp_path: Path, text: str = PYPROJECT) -> Path:
    (tmp_path / "pyproject.toml").write_text(text)
    return tmp_path


class TestLoadConfig:
    def test_full_table(self, tmp_path):
        config = load_config(write_pyproject(tmp_path))
        assert config.root == tmp_path
        assert config.paths == ("src", "tests")
        assert config.select == ("RNG001", "EXC001")
        assert config.ignore == ("ARCH001",)
        assert config.exclude == ("tests/lint/fixtures", "scratch")

    def test_missing_table_yields_defaults(self, tmp_path):
        write_pyproject(tmp_path, "[project]\nname = 'x'\n")
        config = load_config(tmp_path)
        assert config.select is None
        assert config.ignore == ()
        assert config.paths == LintConfig.paths

    def test_missing_file_yields_defaults(self, tmp_path):
        config = load_config(tmp_path)
        assert config.select is None
        assert config.exclude == ()

    def test_unknown_keys_refused_by_name(self, tmp_path):
        cases = [
            (
                'ignores = ["EXC001"]\n'
                '[tool.repro-lint.per-path-ignores]\n"tests/" = ["EXC001"]\n',
                "'ignores', 'per-path-ignores'",
            ),
            # Retired knobs: the graph pass follows the selection, the
            # schema module is fixed, ARCH001 debt is a site suppression.
            ("program = false\n", "'program'"),
            ('schema-module = "repro.schemas"\n', "'schema-module'"),
            ("arch-allow = []\n", "'arch-allow'"),
        ]
        for extra, named in cases:
            write_pyproject(tmp_path, PYPROJECT + extra)
            with pytest.raises(ValueError) as info:
                load_config(tmp_path)
            message = str(info.value)
            assert f"unknown [tool.repro-lint] key(s) {named} in" in message
            assert "known: exclude, ignore, paths, select" in message

    @pytest.mark.parametrize("key", ["select", "ignore"])
    def test_unknown_rule_ids_refused_by_name(self, tmp_path, key):
        write_pyproject(tmp_path, f'[tool.repro-lint]\n{key} = ["RNG001", "rng01"]\n')
        with pytest.raises(ValueError) as info:
            load_config(tmp_path)
        message = str(info.value)
        assert f"unknown rule(s) RNG01 in {key} of [tool.repro-lint]" in message
        assert "available: ARCH001, CONC001, EXC001, RNG001, SCHEMA001X" in message


class TestRuleSelection:
    REGISTERED = ("RNG001", "EXC001", "CONC001", "ARCH001")

    def test_default_selects_all(self):
        config = LintConfig()
        assert config.active_rules(self.REGISTERED) == set(self.REGISTERED)

    def test_select_and_ignore(self):
        config = LintConfig(select=("RNG001", "ARCH001"), ignore=("ARCH001",))
        assert config.active_rules(self.REGISTERED) == {"RNG001"}


class TestExclusion:
    def test_configured_prefix(self):
        config = LintConfig(exclude=("tests/lint/fixtures",))
        assert config.is_excluded("tests/lint/fixtures/rng_violation.py")
        assert not config.is_excluded("tests/lint/test_rules.py")

    def test_builtin_skips(self):
        config = LintConfig()
        assert config.is_excluded("src/__pycache__/x.py")
        assert config.is_excluded(".venv/lib/x.py")
        assert config.is_excluded("benchmarks/results/x.py")
        assert not config.is_excluded("src/repro/cli.py")


class TestOverrides:
    def test_select_replaces_ignore_extends(self):
        config = LintConfig(select=("RNG001",), ignore=("ARCH001",))
        updated = config.with_overrides(select=["exc001"], ignore=["conc001"])
        assert updated.select == ("EXC001",)
        assert updated.ignore == ("ARCH001", "CONC001")

    def test_none_keeps_configured(self):
        config = LintConfig(select=("RNG001",))
        assert config.with_overrides() is config


class TestProjectRoot:
    def test_walks_up_to_pyproject(self, tmp_path):
        write_pyproject(tmp_path)
        nested = tmp_path / "src" / "pkg"
        nested.mkdir(parents=True)
        assert find_project_root(nested) == tmp_path

    def test_falls_back_to_start(self, tmp_path):
        # No pyproject anywhere up the (tmp) tree guaranteed is hard; at
        # minimum the result is an existing ancestor-or-self directory.
        root = find_project_root(tmp_path)
        assert root == tmp_path or root in tmp_path.parents
