"""Parsing of ``# repro-lint: disable=RULE`` suppression comments.

Three forms are recognized, all carrying an optional rationale after
``--`` (the project's suppression policy, DESIGN.md §9, requires one)::

    x = risky()  # repro-lint: disable=EXC001 -- failure is recorded, not lost
    # repro-lint: disable-next-line=IO001 -- writes into a caller's buffer
    # repro-lint: disable-file=PMNF001 -- this module builds the search space

``disable`` suppresses matching violations on the comment's own physical
line (for multi-line statements, any line the violating node spans works);
``disable-next-line`` suppresses them on the next *code* line -- blank
lines and further comment lines in between are skipped, so a rationale may
continue over several comment lines; ``disable-file`` suppresses the rule
for the whole file. Rule lists are comma-separated; the special value
``all`` matches every rule.

Comments are found with :mod:`tokenize`, so ``#`` characters inside string
literals never parse as suppressions.
"""

from __future__ import annotations

import io
import re
import tokenize
from dataclasses import dataclass, field

_COMMENT_RE = re.compile(
    r"#\s*repro-lint:\s*(?P<kind>disable(?:-next-line|-file)?)\s*=\s*"
    r"(?P<rules>[A-Za-z0-9_,\s]+?)\s*(?:--\s*(?P<rationale>.*\S))?\s*$"
)

ALL_RULES = "all"


@dataclass(frozen=True)
class Suppression:
    """One parsed suppression comment."""

    line: int  # physical line of the comment
    kind: str  # "disable" | "disable-next-line" | "disable-file"
    rules: "frozenset[str]"  # upper-cased rule ids, or {"ALL"}
    rationale: str = ""

    def matches(self, rule: str) -> bool:
        return rule.upper() in self.rules or ALL_RULES.upper() in self.rules


@dataclass
class Suppressions:
    """All suppression comments of one source file, indexed for lookup."""

    entries: "list[Suppression]" = field(default_factory=list)
    _by_line: "dict[int, list[Suppression]]" = field(default_factory=dict)
    _file_level: "list[Suppression]" = field(default_factory=list)

    def add(self, suppression: Suppression, target: "int | None" = None) -> None:
        """Index ``suppression``; ``target`` is the line it applies to
        (defaults to its own line)."""
        self.entries.append(suppression)
        if suppression.kind == "disable-file":
            self._file_level.append(suppression)
            return
        self._by_line.setdefault(target or suppression.line, []).append(suppression)

    def is_suppressed(self, rule: str, first_line: int, last_line: "int | None" = None) -> bool:
        """True when ``rule`` is disabled on any line in ``[first_line, last_line]``
        or for the whole file."""
        if any(s.matches(rule) for s in self._file_level):
            return True
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
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        comments = [t for t in tokens if t.type == tokenize.COMMENT]
    except (tokenize.TokenError, IndentationError, SyntaxError):
        return suppressions
    lines = source.splitlines()
    for token in comments:
        match = _COMMENT_RE.search(token.string)
        if not match:
            continue
        rules = frozenset(
            part.strip().upper()
            for part in match.group("rules").split(",")
            if part.strip()
        )
        if not rules:
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
