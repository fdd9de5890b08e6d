"""repro-lint: AST-based invariant checking for the reproduction's conventions.

The library has conventions that ordinary tests cannot enforce: stochastic
code must thread explicit ``np.random.Generator`` objects through
:mod:`repro.util.seeding`, and a broad ``except`` must not swallow a
failure silently. This package is a small rule-based static-analysis
framework -- one rule registry, one shared AST walk per file, per-rule
``# repro-lint: disable=RULE -- rationale`` suppression comments, and
text/JSON reporters -- that checks those invariants on every file of the
repository, wired into CI as a gating job.

Some rules need the whole program: every discovered file is parsed once
into a shared project graph (:mod:`repro.lint.program`) -- symbol table,
import graph, approximate call graph -- feeding cross-file rules
(:mod:`repro.lint.program_rules`) for thread-shared state, schema-literal
drift, and import hygiene. The graph is built exactly when a selected rule
is a program rule. Both kinds of rule register through
:func:`register_rule`, yield :class:`Violation` records, and are filtered
through the same suppression comments.

Run it as ``repro-model lint [paths]``, or call :func:`lint_paths` (files
on disk) or :func:`lint_sources` (an in-memory ``{relpath: source}``
project); see :mod:`repro.lint.rules` for the per-file rule catalogue and
DESIGN.md §9 for the rationale and suppression policy.
"""

from __future__ import annotations

from repro.lint.config import LintConfig, find_project_root, load_config
from repro.lint.core import (
    LintContext,
    Rule,
    Violation,
    available_rules,
    register_rule,
)
from repro.lint.program import ProgramGraph, ProgramRule, build_program
from repro.lint.report import render_json, render_text
from repro.lint.runner import LintResult, lint_paths, lint_sources

__all__ = [
    "LintConfig",
    "LintContext",
    "LintResult",
    "ProgramGraph",
    "ProgramRule",
    "Rule",
    "Violation",
    "available_rules",
    "build_program",
    "find_project_root",
    "lint_paths",
    "lint_sources",
    "load_config",
    "register_rule",
    "render_json",
    "render_text",
]
