"""The lint engine: violation model, rule registry, and the shared AST walk.

One registry holds both kinds of rule. A per-file :class:`Rule` declares
the AST node types it is interested in; one walk over each file dispatches
nodes to every active rule, so adding a rule never adds a traversal. A
:class:`~repro.lint.program.ProgramRule` instead sees the whole-program
graph (:mod:`repro.lint.program`) once per run. Both kinds yield
:class:`Violation` records built by :meth:`Violation.at`; the runner
(:mod:`repro.lint.runner`) filters them through each file's suppression
comments (:mod:`repro.lint.suppressions`), and the configuration
(:mod:`repro.lint.config`) selects which rules run.

Files that do not parse produce a single :data:`PARSE_RULE` violation at
the syntax error's location instead of crashing the run -- a lint pass
that dies on the code it is judging is useless in CI. Suppression comments
that cannot do their job -- unreadable, naming no registered rule, or
without a rationale -- are :data:`SUPPRESSION_RULE` violations.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Iterable, Iterator

from repro.lint.suppressions import Suppressions

#: Pseudo-rule id for files that fail to parse. Always active: a syntax
#: error hides every other violation in the file, so it must surface.
PARSE_RULE = "PARSE"

#: Pseudo-rule id for suppression comments that cannot do their job.
#: Always active and never itself suppressible.
SUPPRESSION_RULE = "SUPPRESSION"


@dataclass(frozen=True, order=True)
class Violation:
    """One finding: rule id, location, and a human-readable message.

    ``kind`` distinguishes per-file findings (``"file"``) from
    whole-program findings (``"program"``, see :mod:`repro.lint.program`);
    program findings may carry ``provenance`` -- the call chain or module
    set that produced them -- so a reader can retrace the cross-file
    reasoning without rebuilding the graph.
    """

    path: str
    line: int
    column: int
    rule: str
    message: str
    end_line: int = 0
    kind: str = "file"
    provenance: "tuple[str, ...]" = ()

    @classmethod
    def at(
        cls,
        relpath: str,
        node: "ast.AST | None",
        rule: str,
        message: str,
        kind: str = "file",
        provenance: "Iterable[str]" = (),
    ) -> "Violation":
        """The finding located at ``node`` (line 1 when it has no position)."""
        return cls(
            path=relpath,
            line=getattr(node, "lineno", 1),
            column=getattr(node, "col_offset", 0),
            rule=rule,
            message=message,
            end_line=getattr(node, "end_lineno", 0) or 0,
            kind=kind,
            provenance=tuple(provenance),
        )

    def format(self) -> str:
        return f"{self.path}:{self.line}:{self.column}: {self.rule} {self.message}"

    def to_json(self) -> "dict[str, object]":
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "column": self.column,
            "message": self.message,
            "end_line": self.end_line,
            "kind": self.kind,
            "provenance": list(self.provenance),
        }


class LintContext:
    """Per-file state shared by all rules during one walk."""

    def __init__(self, relpath: str, tree: ast.AST):
        self.relpath = relpath
        self.tree = tree

    @property
    def in_library(self) -> bool:
        """True for files under the installable package (``src/repro/``)."""
        return self.relpath.startswith("src/repro/")

    def matches(self, *suffixes: str) -> bool:
        """True when the file path ends with any of the given suffixes."""
        return any(self.relpath.endswith(suffix) for suffix in suffixes)


class Rule:
    """Base class for per-file lint rules.

    Subclasses set :attr:`rule_id`, list the AST node class names they
    want in :attr:`interests`, and implement :meth:`visit` as a generator
    of ``(node, message)`` findings. :meth:`start_file` can
    veto a file entirely (return ``False``) or reset per-file state.
    """

    rule_id: str = ""
    interests: "tuple[str, ...]" = ()

    def start_file(self, ctx: LintContext) -> bool:
        return True

    def visit(self, node: ast.AST, ctx: LintContext) -> "Iterator[tuple[ast.AST, str]]":
        return iter(())


#: rule id -> rule instance; populated by :func:`register_rule`.
_RULES: "dict[str, Rule]" = {}


def register_rule(cls: "type[Rule]") -> "type[Rule]":
    """Class decorator adding a rule to the registry (one shared instance)."""
    rule = cls()
    if not rule.rule_id:
        raise ValueError(f"rule {cls.__name__} has no rule_id")
    if rule.rule_id in _RULES:
        raise ValueError(f"rule {rule.rule_id} is already registered")
    _RULES[rule.rule_id] = rule
    return cls


def available_rules() -> "dict[str, Rule]":
    """Every registered rule, per-file and program, sorted by id (imports
    the built-in catalogues)."""
    from repro.lint import program_rules, rules  # noqa: F401  (registration)

    return {rule_id: _RULES[rule_id] for rule_id in sorted(_RULES)}


def parse_violation(relpath: str, exc: SyntaxError) -> Violation:
    """The single :data:`PARSE_RULE` finding for an unparseable file."""
    return Violation(
        path=relpath,
        line=exc.lineno or 1,
        column=(exc.offset or 1) - 1,
        rule=PARSE_RULE,
        message=f"syntax error: {exc.msg}",
    )


def suppression_violations(
    relpath: str, suppressions: Suppressions, known: "list[str]"
) -> "list[Violation]":
    """The :data:`SUPPRESSION_RULE` findings for one file's comments;
    ``known`` is every registered rule id, sorted."""
    found = [
        (line, f"unreadable suppression comment {text!r}; "
               "write '# repro-lint: disable=RULE -- rationale'")
        for line, text in suppressions.malformed
    ]
    for entry in suppressions.entries:
        unknown = sorted(entry.rules.difference(known))
        if unknown:
            found.append((
                entry.line,
                f"suppression names unregistered rule(s) {', '.join(unknown)}; "
                f"registered: {', '.join(known)}",
            ))
        if not entry.rationale:
            found.append((
                entry.line,
                f"suppression of {', '.join(sorted(entry.rules))} has no "
                "'-- rationale'; state why the site is safe",
            ))
    return [
        Violation(path=relpath, line=line, column=0, rule=SUPPRESSION_RULE, message=message)
        for line, message in found
    ]


def file_findings(tree: ast.AST, relpath: str, rules: "Iterable[Rule]") -> "list[Violation]":
    """The per-file pass: one walk of ``tree`` dispatching to ``rules``.

    Findings are unfiltered; the runner applies the file's suppressions.
    """
    ctx = LintContext(relpath, tree)
    by_interest: "dict[str, list[Rule]]" = {}
    for rule in rules:
        if rule.start_file(ctx):
            for interest in rule.interests:
                by_interest.setdefault(interest, []).append(rule)
    if not by_interest:
        return []
    return [
        Violation.at(relpath, found_node, rule.rule_id, message)
        for node in ast.walk(tree)
        for rule in by_interest.get(type(node).__name__, ())
        for found_node, message in rule.visit(node, ctx)
    ]


# ----------------------------------------------------------- shared helpers
def dotted_name(node: ast.AST) -> "str | None":
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts: "list[str]" = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def call_name(node: ast.Call) -> "str | None":
    """The dotted name a call targets, or ``None`` for dynamic callees."""
    return dotted_name(node.func)
