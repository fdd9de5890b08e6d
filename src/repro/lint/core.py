"""The lint engine: violation model, rule registry, and the shared AST walk.

A :class:`Rule` declares the AST node types it is interested in; one walk
over each file dispatches nodes to every active rule, so adding a rule
never adds a traversal. Rules yield ``(node, message)`` pairs which the
engine turns into :class:`Violation` records, then filters through the
file's suppression comments (:mod:`repro.lint.suppressions`); the
configuration (:mod:`repro.lint.config`) selects which rules run.

Files that do not parse produce a single :data:`PARSE_RULE` violation at
the syntax error's location instead of crashing the run -- a lint pass
that dies on the code it is judging is useless in CI. Suppression comments
that cannot do their job -- unreadable, naming no registered rule, or
without a rationale -- are :data:`SUPPRESSION_RULE` violations.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

from repro.lint.config import LintConfig
from repro.lint.suppressions import Suppressions, parse_suppressions

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

    def __init__(self, relpath: str, source: str, tree: ast.AST, config: LintConfig):
        self.relpath = relpath
        self.source = source
        self.tree = tree
        self.config = config

    @property
    def in_library(self) -> bool:
        """True for files under the installable package (``src/repro/``)."""
        return self.relpath.startswith("src/repro/")

    def matches(self, *suffixes: str) -> bool:
        """True when the file path ends with any of the given suffixes."""
        return any(self.relpath.endswith(suffix) for suffix in suffixes)


class Rule:
    """Base class for lint rules.

    Subclasses set :attr:`rule_id` and :attr:`summary`, list the AST node
    class names they want in :attr:`interests`, and implement :meth:`visit`
    as a generator of ``(node, message)`` findings. :meth:`start_file` can
    veto a file entirely (return ``False``) or reset per-file state.
    """

    rule_id: str = ""
    summary: str = ""
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
    """All registered rules by id, sorted (imports the builtin catalogue)."""
    from repro.lint import rules as _rules  # noqa: F401  (registration side effect)

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


def suppression_violations(relpath: str, suppressions: Suppressions) -> "list[Violation]":
    """The :data:`SUPPRESSION_RULE` findings for one file's comments."""
    from repro.lint.program import available_program_rules

    known = set(available_rules()) | set(available_program_rules())
    found = [
        (line, f"unreadable suppression comment {text!r}; "
               "write '# repro-lint: disable=RULE -- rationale'")
        for line, text in suppressions.malformed
    ]
    for entry in suppressions.entries:
        unknown = sorted(entry.rules - known)
        if unknown:
            found.append((
                entry.line,
                f"suppression names unregistered rule(s) {', '.join(unknown)}; "
                f"registered: {', '.join(sorted(known))}",
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


def lint_source(
    source: str,
    relpath: str = "<string>",
    config: "LintConfig | None" = None,
) -> "list[Violation]":
    """Lint one in-memory source file.

    ``relpath`` is the posix-style path the rules see: path-scoped rules
    (e.g. RNG001's tightening inside ``src/repro``) key off it, so tests can
    exercise scoping with virtual paths without touching the filesystem.
    """
    try:
        tree = ast.parse(source, filename=relpath)
    except SyntaxError as exc:
        return [parse_violation(relpath, exc)]
    return lint_parsed(source, tree, relpath, config)


def lint_parsed(
    source: str,
    tree: ast.AST,
    relpath: str = "<string>",
    config: "LintConfig | None" = None,
) -> "list[Violation]":
    """The per-file pass over an already-parsed tree.

    This is :func:`lint_source` minus the parse, so the whole-tree runner
    can share one AST per file between the per-file and whole-program
    passes (:mod:`repro.lint.program`) instead of parsing twice.
    """
    config = config or LintConfig()
    suppressions = parse_suppressions(source)
    problems = suppression_violations(relpath, suppressions)
    registered = available_rules()
    active_ids = config.active_rules(registered)
    ctx = LintContext(relpath, source, tree, config)
    active = [
        rule
        for rule_id, rule in registered.items()
        if rule_id in active_ids and rule.start_file(ctx)
    ]
    if not active:
        return sorted(problems)
    by_interest: "dict[str, list[Rule]]" = {}
    for rule in active:
        for interest in rule.interests:
            by_interest.setdefault(interest, []).append(rule)
    raw: "list[Violation]" = []
    for node in ast.walk(tree):
        for rule in by_interest.get(type(node).__name__, ()):
            for found_node, message in rule.visit(node, ctx):
                raw.append(
                    Violation(
                        path=relpath,
                        line=getattr(found_node, "lineno", 1),
                        column=getattr(found_node, "col_offset", 0),
                        rule=rule.rule_id,
                        message=message,
                        end_line=getattr(found_node, "end_lineno", 0) or 0,
                    )
                )
    kept = [
        v
        for v in raw
        if not suppressions.is_suppressed(v.rule, v.line, v.end_line or v.line)
    ]
    return sorted(kept + problems)


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


def iter_paths(paths: "Iterable[str | Path]") -> "Iterator[Path]":
    for path in paths:
        yield Path(path)
