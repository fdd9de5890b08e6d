"""Parsing of ``# repro-lint: disable=RULE`` suppression comments.

Two forms are recognized, each followed by its rationale after ``--``::

    x = risky()  # repro-lint: disable=EXC001 -- failure is recorded, not lost
    # repro-lint: disable-next-line=RNG001 -- frozen seed of a published table

``disable`` suppresses matching violations on the comment's own physical
line (for multi-line statements, any line the violating node spans works);
``disable-next-line`` suppresses them on the next *code* line -- blank
lines and further comment lines in between are skipped, so a rationale may
continue over several comment lines. Rule lists are comma-separated.

The parser records what each comment says; the lint pass checks it
(:func:`repro.lint.core.suppression_violations`): a rule id that names no
registered rule, a missing rationale, and a ``repro-lint:`` comment that
does not parse are findings, never silently ignored.

Comments are found with :mod:`tokenize`, so ``#`` characters inside string
literals never parse as suppressions.
"""

from __future__ import annotations

import io
import re
import tokenize
from dataclasses import dataclass, field

_DIRECTIVE_RE = re.compile(r"#\s*repro-lint:\s*(?P<body>.*?)\s*$")
_BODY_RE = re.compile(
    r"(?P<kind>disable(?:-next-line)?)\s*=\s*(?P<rules>[A-Za-z0-9_,\s]+?)"
    r"\s*(?:--\s*(?P<rationale>.*\S))?$"
)


@dataclass(frozen=True)
class Suppression:
    """One parsed suppression comment."""

    line: int  # physical line of the comment
    kind: str  # "disable" | "disable-next-line"
    rules: "frozenset[str]"  # upper-cased rule ids
    rationale: str = ""

    def matches(self, rule: str) -> bool:
        return rule.upper() in self.rules


@dataclass
class Suppressions:
    """All suppression comments of one source file, indexed for lookup."""

    entries: "list[Suppression]" = field(default_factory=list)
    #: ``(line, comment)`` of each ``repro-lint:`` comment that did not parse.
    malformed: "list[tuple[int, str]]" = field(default_factory=list)
    _by_line: "dict[int, list[Suppression]]" = field(default_factory=dict)

    def add(self, suppression: Suppression, target: "int | None" = None) -> None:
        """Index ``suppression``; ``target`` is the line it applies to
        (defaults to its own line)."""
        self.entries.append(suppression)
        self._by_line.setdefault(target or suppression.line, []).append(suppression)

    def is_suppressed(self, rule: str, first_line: int, last_line: "int | None" = None) -> bool:
        """True when ``rule`` is disabled on any line in ``[first_line, last_line]``."""
        last = first_line if last_line is None else max(first_line, last_line)
        for line in range(first_line, last + 1):
            if any(s.matches(rule) for s in self._by_line.get(line, ())):
                return True
        return False


def parse_suppressions(source: str) -> Suppressions:
    """Extract every suppression comment from ``source``.

    Tokenization errors (the file may not even parse) degrade gracefully to
    an empty suppression set; the parse error itself is reported separately.
    """
    suppressions = Suppressions()
    if "repro-lint:" not in source:  # every directive spells it; skip tokenizing
        return suppressions
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        comments = [t for t in tokens if t.type == tokenize.COMMENT]
    except (tokenize.TokenError, IndentationError, SyntaxError):
        return suppressions
    lines = source.splitlines()
    for token in comments:
        directive = _DIRECTIVE_RE.search(token.string)
        if not directive:
            continue
        match = _BODY_RE.match(directive.group("body"))
        rules = frozenset(
            part.strip().upper()
            for part in (match.group("rules").split(",") if match else ())
            if part.strip()
        )
        if not rules:
            suppressions.malformed.append((token.start[0], token.string))
            continue
        suppression = Suppression(
            line=token.start[0],
            kind=match.group("kind"),
            rules=rules,
            rationale=match.group("rationale") or "",
        )
        target = None
        if suppression.kind == "disable-next-line":
            target = _next_code_line(lines, suppression.line)
        suppressions.add(suppression, target)
    return suppressions


def _next_code_line(lines: "list[str]", comment_line: int) -> int:
    """The first line after ``comment_line`` that holds code.

    Blank and comment-only lines are skipped so a suppression's rationale
    can continue over several comment lines. Lines are 1-based.
    """
    for index in range(comment_line, len(lines)):  # lines[index] is line index+1
        stripped = lines[index].strip()
        if stripped and not stripped.startswith("#"):
            return index + 1
    return comment_line + 1
