"""Suppression comments: parsing, line targeting, and the checks on them."""

from __future__ import annotations

from repro.lint import LintConfig, lint_sources
from repro.lint.suppressions import parse_suppressions


def suppression_findings(source):
    return [
        (v.line, v.message)
        for v in lint_sources({"src/repro/fake/module.py": source}).violations
        if v.rule == "SUPPRESSION"
    ]


class TestParsing:
    def test_same_line_form(self):
        sup = parse_suppressions("x = f()  # repro-lint: disable=EXC001\n")
        assert len(sup.entries) == 1
        entry = sup.entries[0]
        assert entry.kind == "disable"
        assert entry.rules == frozenset({"EXC001"})
        assert entry.line == 1
        assert sup.is_suppressed("EXC001", 1)
        assert not sup.is_suppressed("EXC001", 2)
        assert not sup.is_suppressed("RNG001", 1)

    def test_rationale_captured(self):
        sup = parse_suppressions(
            "y = g()  # repro-lint: disable=RNG001 -- frozen legacy seed, see DESIGN.md\n"
        )
        assert sup.entries[0].rationale == "frozen legacy seed, see DESIGN.md"

    def test_rationale_optional(self):
        # The grammar parses a directive without a rationale (so the lint
        # can point at it), but the lint reports it: the policy requires one.
        source = "z = h()  # repro-lint: disable=RNG001\n"
        assert parse_suppressions(source).entries[0].rationale == ""
        [(line, message)] = suppression_findings(source)
        assert line == 1
        assert "suppression of RNG001 has no '-- rationale'" in message

    def test_multiple_rules_comma_separated(self):
        sup = parse_suppressions("w = i()  # repro-lint: disable=RNG001, EXC001\n")
        assert sup.entries[0].rules == frozenset({"RNG001", "EXC001"})
        assert sup.is_suppressed("RNG001", 1)
        assert sup.is_suppressed("EXC001", 1)

    def test_rule_ids_case_insensitive(self):
        sup = parse_suppressions("a = 1  # repro-lint: disable=exc001\n")
        assert sup.is_suppressed("EXC001", 1)

    def test_unrelated_comments_ignored(self):
        sup = parse_suppressions("# plain comment\nx = 1  # noqa: E501\n")
        assert sup.entries == []
        assert sup.malformed == []

    def test_comment_inside_string_not_parsed(self):
        source = 's = "# repro-lint: disable=EXC001"\n'
        assert parse_suppressions(source).entries == []

    def test_unparseable_source_degrades_gracefully(self):
        assert parse_suppressions("def broken(:\n").entries == []


class TestNextLineForm:
    def test_targets_following_line(self):
        source = "# repro-lint: disable-next-line=RNG001\nx = random.random()\n"
        sup = parse_suppressions(source)
        assert sup.is_suppressed("RNG001", 2)
        assert not sup.is_suppressed("RNG001", 1)

    def test_skips_continuation_comment_lines(self):
        source = (
            "# repro-lint: disable-next-line=EXC001 -- the rationale is long\n"
            "# and continues on a second comment line\n"
            "\n"
            "except_site = 1\n"
        )
        sup = parse_suppressions(source)
        assert sup.is_suppressed("EXC001", 4)

    def test_at_end_of_file(self):
        sup = parse_suppressions("# repro-lint: disable-next-line=EXC001\n")
        assert sup.entries[0].kind == "disable-next-line"


class TestLineRanges:
    def test_multiline_statement_span(self):
        # A violation spanning lines 1-3 with the comment on the last line.
        source = "x = call(\n    arg,\n)  # repro-lint: disable=EXC001\n"
        sup = parse_suppressions(source)
        assert sup.is_suppressed("EXC001", 1, 3)
        assert not sup.is_suppressed("EXC001", 1, 2)


class TestChecked:
    """A suppression that cannot do its job is a finding, never ignored."""

    def test_unknown_forms_are_findings(self):
        # ``all`` is no wildcard: it reads as an unregistered rule id. Any
        # form but disable= and disable-next-line= does not parse.
        source = (
            "a = 1  # repro-lint: disable=all -- everything\n"
            "# repro-lint: disable-block=EXC001 -- whole block\n"
            "b = 2  # repro-lint: disable=EXC001 - one dash\n"
        )
        found = suppression_findings(source)
        assert [line for line, _ in found] == [1, 2, 3]
        assert "unregistered rule(s) ALL" in found[0][1]
        assert "unreadable suppression comment" in found[1][1]
        assert "disable-block=EXC001" in found[1][1]
        assert "unreadable suppression comment" in found[2][1]

    def test_checked_even_when_no_rule_is_selected(self):
        config = LintConfig(select=())
        source = "x = 1  # repro-lint: disable=RNG001\n"
        found = lint_sources({"m.py": source}, config).violations
        assert [v.rule for v in found] == ["SUPPRESSION"]
