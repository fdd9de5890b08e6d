"""Reporter contracts: stable text lines, schema-versioned JSON."""

from __future__ import annotations

import json

from repro.lint.core import Violation
from repro.lint.report import JSON_SCHEMA_VERSION, render_json, render_text
from repro.lint.runner import LintResult

V1 = Violation(path="src/a.py", line=3, column=4, rule="RNG001", message="no ad-hoc rng")
V2 = Violation(path="src/b.py", line=9, column=0, rule="EXC001", message="silent broad except")
VP = Violation(
    path="src/c.py",
    line=12,
    column=8,
    rule="CONC001",
    message="module global mutated in a thread without a lock",
    end_line=12,
    kind="program",
    provenance=("pkg.fit", "pkg.helper", "pkg.jitter"),
)


class TestTextReporter:
    def test_violation_lines_and_summary(self):
        result = LintResult(violations=(V1, V2), files_checked=5)
        text = render_text(result)
        lines = text.splitlines()
        assert lines[0] == "src/a.py:3:4: RNG001 no ad-hoc rng"
        assert lines[1] == "src/b.py:9:0: EXC001 silent broad except"
        assert "2 violation(s) in 5 file(s) checked" in lines[2]
        assert "EXC001 x1" in lines[2] and "RNG001 x1" in lines[2]

    def test_clean_summary(self):
        text = render_text(LintResult(violations=(), files_checked=7))
        assert text == "clean: 7 file(s) checked"


class TestJsonReporter:
    def test_schema(self):
        result = LintResult(violations=(V1, V2), files_checked=5)
        payload = json.loads(render_json(result))
        assert payload["version"] == JSON_SCHEMA_VERSION == 2
        assert payload["files_checked"] == 5
        assert payload["clean"] is False
        assert payload["counts"] == {"EXC001": 1, "RNG001": 1}
        assert payload["violations"] == [
            {
                "rule": "RNG001",
                "path": "src/a.py",
                "line": 3,
                "column": 4,
                "message": "no ad-hoc rng",
                "end_line": 0,
                "kind": "file",
                "provenance": [],
            },
            {
                "rule": "EXC001",
                "path": "src/b.py",
                "line": 9,
                "column": 0,
                "message": "silent broad except",
                "end_line": 0,
                "kind": "file",
                "provenance": [],
            },
        ]

    def test_program_finding_carries_kind_and_provenance(self):
        payload = json.loads(render_json(LintResult(violations=(VP,), files_checked=1)))
        entry = payload["violations"][0]
        assert entry["kind"] == "program"
        assert entry["provenance"] == ["pkg.fit", "pkg.helper", "pkg.jitter"]
        assert entry["end_line"] == 12

    def test_clean_document(self):
        payload = json.loads(render_json(LintResult(violations=(), files_checked=2)))
        assert payload["clean"] is True
        assert payload["counts"] == {}
        assert payload["violations"] == []

    def test_deterministic_serialization(self):
        result = LintResult(violations=(V1,), files_checked=1)
        assert render_json(result) == render_json(result)
        assert render_json(result).endswith("\n")
