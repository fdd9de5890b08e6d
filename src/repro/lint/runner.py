"""File discovery and the two lint entry points.

:func:`lint_paths` is what the CLI and CI call: it expands the requested
paths (files or directory trees) into Python sources, skips the
configuration's excluded prefixes, parses each file exactly once, runs the
per-file pass (:mod:`repro.lint.core`) and -- when a selected rule needs
it -- the whole-program pass (:mod:`repro.lint.program`) over the shared
trees, and returns a :class:`LintResult` with deterministic (path, line)
ordering regardless of filesystem enumeration order.

:func:`lint_sources` is the same engine over an in-memory
``{relpath: source}`` mapping, so tests can lint single files and virtual
mini-projects without touching the filesystem.
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
    file_findings,
    parse_violation,
    suppression_violations,
)
from repro.lint.program import ProgramRule, SourceModule, build_program
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
    """Both passes over parsed sources, filtered through one suppression map.

    Each file's suppression comments are parsed once and apply to the
    per-file and the whole-program findings alike. The program graph is
    built only when a selected rule is a program rule.
    """
    registered = available_rules()
    active = config.active_rules(registered)
    selected = [rule for rule_id, rule in registered.items() if rule_id in active]
    known = list(registered)
    suppressions: "dict[str, Suppressions]" = {}
    findings: "list[Violation]" = []
    checked: "list[Violation]" = []  # PARSE and SUPPRESSION: never suppressed
    for src in sources:
        if src.error is not None:
            checked.append(src.error)
            continue
        suppressions[src.relpath] = parse_suppressions(src.source)
        checked.extend(suppression_violations(src.relpath, suppressions[src.relpath], known))
        findings.extend(file_findings(src.tree, src.relpath, selected))
    program_rules = [rule for rule in selected if isinstance(rule, ProgramRule)]
    if program_rules:
        graph = build_program(
            SourceModule(src.relpath, src.tree) for src in sources if src.error is None
        )
        for rule in program_rules:
            findings.extend(rule.check(graph))
    kept = [
        v
        for v in findings
        if not suppressions[v.path].is_suppressed(v.rule, v.line, v.end_line or v.line)
    ]
    return LintResult(
        violations=tuple(sorted(kept + checked)),
        files_checked=len(sources),
        files=tuple(src.relpath for src in sources),
    )
