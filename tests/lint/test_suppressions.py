"""Suppression-comment parsing: forms, rationale, and line targeting."""

from __future__ import annotations

from repro.lint.suppressions import parse_suppressions


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
        assert not sup.is_suppressed("IO001", 1)

    def test_rationale_captured(self):
        sup = parse_suppressions(
            "y = g()  # repro-lint: disable=IO001 -- writes a caller's buffer, see DESIGN.md\n"
        )
        assert sup.entries[0].rationale == "writes a caller's buffer, see DESIGN.md"

    def test_rationale_optional(self):
        sup = parse_suppressions("z = h()  # repro-lint: disable=IO001\n")
        assert sup.entries[0].rationale == ""

    def test_multiple_rules_comma_separated(self):
        sup = parse_suppressions("w = i()  # repro-lint: disable=RNG001, IO001\n")
        assert sup.entries[0].rules == frozenset({"RNG001", "IO001"})
        assert sup.is_suppressed("RNG001", 1)
        assert sup.is_suppressed("IO001", 1)

    def test_rule_ids_case_insensitive(self):
        sup = parse_suppressions("a = 1  # repro-lint: disable=exc001\n")
        assert sup.is_suppressed("EXC001", 1)

    def test_all_wildcard(self):
        sup = parse_suppressions("a = 1  # repro-lint: disable=all\n")
        assert sup.is_suppressed("EXC001", 1)
        assert sup.is_suppressed("ANYTHING", 1)

    def test_unrelated_comments_ignored(self):
        sup = parse_suppressions("# plain comment\nx = 1  # noqa: E501\n")
        assert sup.entries == []

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
        sup = parse_suppressions("# repro-lint: disable-next-line=IO001\n")
        assert sup.entries[0].kind == "disable-next-line"


class TestFileLevelForm:
    def test_disables_everywhere_in_file(self):
        source = "# repro-lint: disable-file=PMNF001 -- search-space builder\nx = 1\n"
        sup = parse_suppressions(source)
        assert sup.is_suppressed("PMNF001", 1)
        assert sup.is_suppressed("PMNF001", 999)
        assert not sup.is_suppressed("RNG001", 1)


class TestLineRanges:
    def test_multiline_statement_span(self):
        # A violation spanning lines 1-3 with the comment on the last line.
        source = "x = call(\n    arg,\n)  # repro-lint: disable=SPEC001\n"
        sup = parse_suppressions(source)
        assert sup.is_suppressed("SPEC001", 1, 3)
        assert not sup.is_suppressed("SPEC001", 1, 2)
