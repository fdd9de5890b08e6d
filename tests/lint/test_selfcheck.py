"""The repository must be clean under its own lint pass.

This is the in-suite twin of the CI ``lint`` job: ``repro-model lint src
tests examples benchmarks`` exiting 0 is an acceptance criterion, and any
re-introduced violation (e.g. the historical hardcoded RNG in
``noise/estimation.py`` or the swallowed encode failure in
``dnn/modeler.py``) fails this test before it ever reaches CI.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.lint import ProgramRule, available_rules, lint_paths, load_config

REPO_ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def repo_config():
    config = load_config(REPO_ROOT)
    if not (REPO_ROOT / "pyproject.toml").is_file():  # defensive: moved tree
        pytest.skip("repository root not found")
    return config


class TestRepositoryIsClean:
    def test_full_tree_clean(self, repo_config):
        targets = [REPO_ROOT / p for p in ("src", "tests", "examples", "benchmarks")]
        result = lint_paths([p for p in targets if p.exists()], repo_config)
        formatted = "\n".join(v.format() for v in result.violations)
        assert result.clean, f"repo lint violations:\n{formatted}"
        # Sanity: the walk actually covered the tree, including this file.
        assert result.files_checked > 100
        assert any(f.endswith("tests/lint/test_selfcheck.py") for f in result.files)

    def test_fixture_files_are_excluded_from_discovery(self, repo_config):
        result = lint_paths([REPO_ROOT / "tests" / "lint"], repo_config)
        assert not any("fixtures/" in f for f in result.files)

    def test_config_matches_issue_contract(self, repo_config):
        # The shipped rules -- two per-file, three whole-program -- are
        # selected, and every one runs on every linted path.
        assert repo_config.select is not None
        assert set(repo_config.select) == {
            "RNG001", "EXC001", "CONC001", "SCHEMA001X", "ARCH001",
        }
        assert repo_config.ignore == ()
        # Selecting program rules is what runs the graph pass.
        rules = available_rules()
        assert any(isinstance(rules[r], ProgramRule) for r in repo_config.select)
