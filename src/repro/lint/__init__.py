"""repro-lint: AST-based invariant checking for the reproduction's conventions.

The library has conventions that ordinary tests cannot enforce: stochastic
code must thread explicit ``np.random.Generator`` objects through
:mod:`repro.util.seeding`, and a broad ``except`` must not swallow a
failure silently. This package is a small rule-based static-analysis
framework -- a shared AST walk, a rule registry, per-rule
``# repro-lint: disable=RULE -- rationale`` suppression comments, and
text/JSON reporters -- that checks those invariants on every file of the
repository, wired into CI as a gating job.

On top of the per-file pass sits a whole-program pass
(:mod:`repro.lint.program`): every discovered file is parsed once into a
shared project graph -- symbol table, import graph, approximate call graph --
feeding cross-file rules (:mod:`repro.lint.program_rules`) for thread-shared
state, schema-literal drift, and import hygiene.

Run it as ``repro-model lint [paths]``; see :mod:`repro.lint.rules` for the
per-file rule catalogue and DESIGN.md §9 for the rationale and suppression
policy.
"""

from __future__ import annotations

from repro.lint.config import LintConfig, find_project_root, load_config
from repro.lint.core import (
    LintContext,
    Rule,
    Violation,
    available_rules,
    lint_source,
    register_rule,
)
from repro.lint.program import (
    ProgramFinding,
    ProgramGraph,
    ProgramRule,
    available_program_rules,
    build_program,
    register_program_rule,
)
from repro.lint.report import render_json, render_text
from repro.lint.runner import LintResult, lint_file, lint_paths, lint_sources

# Importing the rule catalogues registers the built-in rules.
from repro.lint import rules as _rules  # noqa: F401  (import for side effect)
from repro.lint import program_rules as _program_rules  # noqa: F401

__all__ = [
    "LintConfig",
    "LintContext",
    "LintResult",
    "ProgramFinding",
    "ProgramGraph",
    "ProgramRule",
    "Rule",
    "Violation",
    "available_program_rules",
    "available_rules",
    "build_program",
    "find_project_root",
    "lint_file",
    "lint_paths",
    "lint_source",
    "lint_sources",
    "load_config",
    "register_program_rule",
    "register_rule",
    "render_json",
    "render_text",
]
