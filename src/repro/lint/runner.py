"""File discovery and the whole-tree lint entry point.

:func:`lint_paths` is what the CLI and CI call: it expands the requested
paths (files or directory trees) into Python sources, skips the
configuration's excluded prefixes, parses each file exactly once, runs the
per-file pass (:mod:`repro.lint.core`) and -- when enabled -- the
whole-program pass (:mod:`repro.lint.program`) over the shared trees, and
returns a :class:`LintResult` with deterministic (path, line) ordering
regardless of filesystem enumeration order.

:func:`lint_sources` is the same two-pass engine over an in-memory
``{relpath: source}`` mapping, so tests can exercise cross-file rules on
virtual mini-projects without touching the filesystem.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping

from repro.lint.config import LintConfig
from repro.lint.core import (
    Violation,
    available_rules,
    lint_parsed,
    lint_source,
    parse_violation,
)
from repro.lint.suppressions import Suppressions, parse_suppressions


@dataclass(frozen=True)
class LintResult:
    """Outcome of one lint run."""

    violations: "tuple[Violation, ...]" = ()
    files_checked: int = 0
    files: "tuple[str, ...]" = field(default=(), repr=False)

    @property
    def clean(self) -> bool:
        return not self.violations


@dataclass(frozen=True)
class SourceFile:
    """One discovered file, parsed exactly once for both lint passes."""

    relpath: str
    source: str
    tree: "object | None"  # ast.Module, or None when the file failed to parse
    error: "Violation | None" = None  # the PARSE violation for unparseable files


def relative_path(path: Path, config: LintConfig) -> str:
    """The posix-style path rules and reports see, relative to the root."""
    resolved = path.resolve()
    try:
        return resolved.relative_to(Path(config.root).resolve()).as_posix()
    except ValueError:
        return path.as_posix()


def discover_files(paths: "Iterable[str | Path]", config: LintConfig) -> "list[Path]":
    """Expand files/directories into the sorted list of lintable sources."""
    seen: "dict[str, Path]" = {}
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            candidates = sorted(path.rglob("*.py"))
        elif path.is_file():
            candidates = [path]
        else:
            raise FileNotFoundError(f"lint target {path} does not exist")
        for candidate in candidates:
            relpath = relative_path(candidate, config)
            if config.is_excluded(relpath):
                continue
            seen.setdefault(relpath, candidate)
    return [seen[relpath] for relpath in sorted(seen)]


def load_source(relpath: str, source: str) -> SourceFile:
    """Parse one file into a :class:`SourceFile` (errors become findings)."""
    try:
        tree = ast.parse(source, filename=relpath)
    except SyntaxError as exc:
        return SourceFile(relpath, source, None, parse_violation(relpath, exc))
    return SourceFile(relpath, source, tree)


def lint_file(path: "str | Path", config: "LintConfig | None" = None) -> "list[Violation]":
    """Lint one on-disk file (per-file rules only; no program pass)."""
    config = config or LintConfig()
    path = Path(path)
    source = path.read_text(encoding="utf-8")
    return lint_source(source, relative_path(path, config), config)


def lint_paths(
    paths: "Iterable[str | Path] | None" = None,
    config: "LintConfig | None" = None,
) -> LintResult:
    """Lint whole trees; ``paths=None`` uses the configured defaults."""
    config = config or LintConfig()
    targets = list(paths) if paths else [Path(config.root) / p for p in config.paths]
    files = discover_files(targets, config)
    sources = [
        load_source(relative_path(path, config), path.read_text(encoding="utf-8"))
        for path in files
    ]
    return _lint_loaded(sources, config)


def lint_sources(
    sources: "Mapping[str, str]",
    config: "LintConfig | None" = None,
) -> LintResult:
    """Run both passes over an in-memory ``{relpath: source}`` project.

    The hermetic counterpart of :func:`lint_paths`: relpaths are virtual
    (``src/repro/...`` prefixes scope the path-sensitive rules exactly as
    on disk), nothing is read from or written to the filesystem, and the
    whole-program pass sees the mapping as the complete program.
    """
    config = config or LintConfig()
    loaded = [
        load_source(relpath, sources[relpath]) for relpath in sorted(sources)
    ]
    return _lint_loaded(loaded, config)


def _lint_loaded(sources: "list[SourceFile]", config: LintConfig) -> LintResult:
    violations: "list[Violation]" = []
    for src in sources:
        if src.error is not None:
            violations.append(src.error)
        else:
            violations.extend(lint_parsed(src.source, src.tree, src.relpath, config))
    if config.program:
        violations.extend(_program_pass(sources, config))
    return LintResult(
        violations=tuple(sorted(violations)),
        files_checked=len(sources),
        files=tuple(src.relpath for src in sources),
    )


def _program_pass(sources: "list[SourceFile]", config: LintConfig) -> "list[Violation]":
    """Build the program graph once and run every selected program rule.

    Findings are mapped back onto files and filtered exactly like per-file
    findings: the finding file's suppression comments apply. A finding
    attributed to a file outside the program (e.g. ARCH001's
    stale-allowlist report against pyproject.toml) has none to apply.
    """
    from repro.lint.program import SourceModule, available_program_rules, build_program

    program_rules = available_program_rules()
    registered_ids = list(available_rules()) + list(program_rules)
    wanted = config.active_rules(registered_ids) & set(program_rules)
    if not wanted or not sources:
        return []
    by_relpath = {src.relpath: src for src in sources}
    graph = build_program(
        SourceModule(src.relpath, src.tree) for src in sources if src.tree is not None
    )
    suppressions: "dict[str, Suppressions]" = {}  # parsed on a file's first finding
    violations: "list[Violation]" = []
    for rule_id in sorted(wanted):
        rule = program_rules[rule_id]
        for finding in rule.check(graph, config):
            src = by_relpath.get(finding.relpath)
            if src is not None and src.tree is not None:
                if src.relpath not in suppressions:
                    suppressions[src.relpath] = parse_suppressions(src.source)
                last = finding.end_line or finding.line
                if suppressions[src.relpath].is_suppressed(rule_id, finding.line, last):
                    continue
            violations.append(
                Violation(
                    path=finding.relpath,
                    line=finding.line,
                    column=finding.column,
                    rule=rule_id,
                    message=finding.message,
                    end_line=finding.end_line,
                    kind="program",
                    provenance=finding.provenance,
                )
            )
    return violations
