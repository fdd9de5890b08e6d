"""SCHEMA001X (schema-literal drift) and ARCH001 (import hygiene)."""

from __future__ import annotations

from repro.lint import LintConfig, lint_sources

SCHEMA_CONFIG = LintConfig(select=("SCHEMA001X",))
ARCH_CONFIG = LintConfig(select=("ARCH001",))

CANONICAL = 'REQUEST_SCHEMA = "repro.request/v1"\nTRACE_SCHEMA = "repro.trace/v1"\n'


class TestSchemaDrift:
    def test_library_dup_and_test_drift_fire(self, run_case):
        result = run_case("schema_arch", ("SCHEMA001X",))
        by_path = {v.path: v for v in result.violations}
        assert set(by_path) == {"src/repro/wire.py", "tests/test_pin.py"}
        assert "import it from repro.schemas" in by_path["src/repro/wire.py"].message
        assert "drifted" in by_path["tests/test_pin.py"].message
        # The matching pin (EXPECTED) in the test file is fine; only the
        # stale spelling (STALE, line 7) is flagged.
        assert by_path["tests/test_pin.py"].line == 7

    def test_duplicate_inside_canonical_module_fires(self):
        sources = {
            "src/repro/schemas.py": CANONICAL
            + 'LEGACY_REQUEST = "repro.request/v1"\n',
        }
        result = lint_sources(sources, SCHEMA_CONFIG)
        assert len(result.violations) == 1
        assert "more than once" in result.violations[0].message
        assert result.violations[0].line == 3

    def test_silent_when_canonical_module_absent(self):
        # Linting a lone directory without the constants module must not
        # flag every literal as drifted.
        sources = {"tools/probe.py": 'SCHEMA = "repro.request/v1"\n'}
        assert lint_sources(sources, SCHEMA_CONFIG).clean

    def test_docstrings_are_not_literals(self):
        sources = {
            "src/repro/schemas.py": CANONICAL,
            "src/repro/doc.py": '"""Speaks repro.request/v1 on the wire."""\n',
        }
        assert lint_sources(sources, SCHEMA_CONFIG).clean


LIB = '''\
__all__ = ["used", "unused"]


def used():
    return 1


def unused():
    return 2
'''

#: An import cycle (a <-> b) and a dead export (lib.unused); the test
#: module puts a consumer side in the program, so exports are checked.
ARCH_DEBT = {
    "src/repro/a.py": "from repro.b import fb\n\n\ndef fa():\n    return fb()\n",
    "src/repro/b.py": "from repro.a import fa\n\n\ndef fb():\n    return 1\n",
    "src/repro/lib.py": '__all__ = ["unused"]\n\n\ndef unused():\n    return 2\n',
    "tests/test_a.py": "from repro.a import fa\n",
}

ARCH_DEBT_SUPPRESSED = {
    **ARCH_DEBT,
    "src/repro/a.py": "# repro-lint: disable-next-line=ARCH001 -- a and b load as one unit.\n"
    + ARCH_DEBT["src/repro/a.py"],
    "src/repro/lib.py": ARCH_DEBT["src/repro/lib.py"].replace(
        "\n", "  # repro-lint: disable=ARCH001 -- API for downstream callers.\n", 1
    ),
}


class TestImportHygiene:
    def test_cycle_and_dead_export_fire(self, run_case):
        result = run_case("schema_arch", ("ARCH001",))
        by_path = {v.path: v for v in result.violations}
        assert set(by_path) == {"src/repro/a.py", "src/repro/lib.py"}
        cycle, dead = by_path["src/repro/a.py"], by_path["src/repro/lib.py"]
        assert "import cycle between repro.a, repro.b" in cycle.message
        assert cycle.provenance == ("repro.a", "repro.b")
        assert "public export 'unused' of repro.lib" in dead.message
        assert dead.provenance == ("repro.lib.unused",)
        # `used` is imported by tests/test_pin.py, so it is alive.
        assert "'used'" not in dead.message

    def test_allowlist_ratchets_the_debt(self):
        # Known debt is silenced at the reported site; new debt still fires.
        found = lint_sources(ARCH_DEBT, ARCH_CONFIG).violations
        assert [(v.path, v.line, v.provenance) for v in found] == [
            ("src/repro/a.py", 1, ("repro.a", "repro.b")),
            ("src/repro/lib.py", 1, ("repro.lib.unused",)),
        ]
        assert lint_sources(ARCH_DEBT_SUPPRESSED, ARCH_CONFIG).clean
        new_cycle = {
            **ARCH_DEBT_SUPPRESSED,
            "src/repro/c.py": "from repro.d import fd\n\n\ndef fc():\n    return fd()\n",
            "src/repro/d.py": "from repro.c import fc\n\n\ndef fd():\n    return 1\n",
            "tests/test_c.py": "from repro.c import fc\n",
        }
        found = lint_sources(new_cycle, ARCH_CONFIG).violations
        assert [(v.path, v.provenance) for v in found] == [
            ("src/repro/c.py", ("repro.c", "repro.d")),
        ]

    def test_dead_exports_need_a_consumer_side_program(self):
        # Library-only lint runs cannot witness consumers: the export check
        # is skipped entirely.
        sources = {"src/repro/lib.py": LIB}
        assert lint_sources(sources, ARCH_CONFIG).clean

    def test_lazy_in_function_imports_do_not_cycle(self):
        sources = {
            "src/repro/a.py": (
                "def fa():\n    from repro.b import fb\n    return fb()\n"
            ),
            "src/repro/b.py": (
                "def fb():\n    from repro.a import fa\n    return 1\n"
            ),
            "tests/test_ab.py": "from repro.a import fa\n",
        }
        assert lint_sources(sources, ARCH_CONFIG).clean
