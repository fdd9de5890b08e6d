"""Shared helpers for the lint-pass tests."""

from __future__ import annotations

from pathlib import Path

import pytest

FIXTURES = Path(__file__).parent / "fixtures"

#: Virtual library path fixtures are linted under, so path-scoped rules
#: (RNG001's library tightening) apply.
LIBRARY_PATH = "src/repro/fake/{name}"


@pytest.fixture
def fixture_source():
    def read(name: str) -> str:
        return (FIXTURES / name).read_text(encoding="utf-8")

    return read
