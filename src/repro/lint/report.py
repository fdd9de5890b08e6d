"""Reporters: render a lint run as human text or machine JSON.

The JSON document is versioned and schema-stable (``tests/lint`` pins it)
so CI annotations and dashboards can consume it::

    {
      "version": 2,
      "files_checked": 57,
      "clean": false,
      "counts": {"RNG001": 1},
      "violations": [
        {"rule": "RNG001", "path": "src/...", "line": 3, "column": 4,
         "message": "...", "end_line": 3, "kind": "file", "provenance": []}
      ]
    }

Version history:

* **v2** adds three keys to each violation: ``end_line``, ``kind``
  (``"file"`` for per-file findings, ``"program"`` for whole-program
  findings from :mod:`repro.lint.program`), and ``provenance`` (the call
  chain / module list behind a program finding, empty otherwise). v2 is a
  strict superset of v1: consumers reading only the v1 keys keep working.
"""

from __future__ import annotations

import json
from collections import Counter
from typing import TYPE_CHECKING, Iterable

from repro.lint.core import Violation

if TYPE_CHECKING:  # pragma: no cover
    from repro.lint.runner import LintResult

#: Version of the JSON report schema.
JSON_SCHEMA_VERSION = 2


def render_text(result: "LintResult") -> str:
    """One ``path:line:col: RULE message`` line per violation plus a summary."""
    lines = [violation.format() for violation in result.violations]
    counts = _counts(result.violations)
    if counts:
        breakdown = ", ".join(f"{rule} x{count}" for rule, count in sorted(counts.items()))
        lines.append(
            f"{len(result.violations)} violation(s) in {result.files_checked} "
            f"file(s) checked ({breakdown})"
        )
    else:
        lines.append(f"clean: {result.files_checked} file(s) checked")
    return "\n".join(lines)


def render_json(result: "LintResult") -> str:
    """The versioned JSON report document (sorted keys, trailing newline)."""
    payload = {
        "version": JSON_SCHEMA_VERSION,
        "files_checked": result.files_checked,
        "clean": not result.violations,
        "counts": dict(sorted(_counts(result.violations).items())),
        "violations": [violation.to_json() for violation in result.violations],
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _counts(violations: "Iterable[Violation]") -> "Counter[str]":
    return Counter(violation.rule for violation in violations)
