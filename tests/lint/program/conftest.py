"""Helpers for the whole-program lint tests.

Fixture cases are tiny on-disk projects under ``fixtures/<case>/``; each
is linted with the case directory as the project root, so its
``src/repro/...`` stubs produce real ``repro.*`` module names (the pool
dispatchers, seeding helpers, and canonical schema module are all keyed
on fully-qualified names).
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.lint import LintConfig, lint_paths

FIXTURES = Path(__file__).parent / "fixtures"

#: Fixture projects contain deliberately-defective modules (and even a
#: test_*.py consumer); they are lint inputs, never import targets.
collect_ignore = ["fixtures"]


@pytest.fixture
def run_case():
    """Lint one fixture project with only the given rules selected."""

    def _run(name: str, select: "tuple[str, ...]"):
        case = FIXTURES / name
        config = LintConfig(root=case, select=select)
        return lint_paths([case], config)

    return _run
