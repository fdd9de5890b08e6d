"""Lint configuration: defaults, ``[tool.repro-lint]`` in pyproject.toml.

The configuration controls *which* rules run and *which* files are
linted; the rules themselves, and the paths each applies to, live in
:mod:`repro.lint.rules`. Recognized pyproject keys (dashes and
underscores are interchangeable)::

    [tool.repro-lint]
    paths = ["src", "tests"]          # default lint targets for the CLI
    select = ["RNG001", ...]          # default rule selection (omit = all)
    ignore = ["ARCH001"]              # rules dropped everywhere
    exclude = ["tests/lint/fixtures"] # path prefixes never discovered
    program = true                    # run the whole-program pass
    schema-module = "repro.schemas"   # SCHEMA001X canonical constants
    arch-allow = ["cycle:a<->b"]      # ARCH001 ratcheted debt list

Any other key is refused by name (:func:`load_config` raises
``ValueError``), so a misspelt or retired knob cannot be accepted while
doing nothing. A selected rule runs on every linted path it scopes itself
to; a deliberate exception is a suppression comment with its reason at
the site, not a path-wide switch. CLI ``--select``/``--ignore`` override
the config-file selection. Paths in the config are interpreted relative
to the project root (the directory holding pyproject.toml).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Iterable, Mapping

try:  # Python >= 3.11
    import tomllib
except ImportError:  # pragma: no cover - 3.10 fallback, config is optional
    tomllib = None

#: Directory names never descended into during file discovery.
SKIP_DIRS = {"__pycache__", ".git", ".venv", "node_modules", "results"}


@dataclass(frozen=True)
class LintConfig:
    """Resolved lint configuration (defaults merged with pyproject + CLI)."""

    root: Path = field(default_factory=Path.cwd)
    paths: "tuple[str, ...]" = ("src", "tests", "examples", "benchmarks")
    select: "tuple[str, ...] | None" = None  # None = every registered rule
    ignore: "tuple[str, ...]" = ()
    exclude: "tuple[str, ...]" = ()
    program: bool = True
    schema_module: str = "repro.schemas"
    arch_allow: "tuple[str, ...]" = ()

    def with_overrides(
        self,
        select: "Iterable[str] | None" = None,
        ignore: "Iterable[str] | None" = None,
        program: "bool | None" = None,
    ) -> "LintConfig":
        """CLI-level overrides: ``--select`` replaces, ``--ignore`` extends,
        ``--program/--no-program`` forces the whole-program pass on or off."""
        out = self
        if select is not None:
            out = replace(out, select=tuple(_upper(select)))
        if ignore is not None:
            out = replace(out, ignore=tuple(self.ignore) + tuple(_upper(ignore)))
        if program is not None:
            out = replace(out, program=bool(program))
        return out

    def active_rules(self, registered: "Iterable[str]") -> "set[str]":
        """Rule ids that run: the selection (default every registered
        rule) less the ignored ones."""
        active = set(self.select) if self.select is not None else set(registered)
        return active - set(self.ignore)

    def is_excluded(self, relpath: str) -> bool:
        normalized = _normalize(relpath)
        if any(part in SKIP_DIRS or part.startswith(".") for part in normalized.split("/")):
            return True
        return any(_prefix_match(normalized, prefix) for prefix in self.exclude)


def _upper(rules: Iterable[str]) -> "list[str]":
    return [r.strip().upper() for r in rules if r.strip()]


def _normalize(path: str) -> str:
    normalized = str(path).replace("\\", "/")
    while normalized.startswith("./"):
        normalized = normalized[2:]
    return normalized


def _prefix_match(relpath: str, prefix: str) -> bool:
    prefix = _normalize(prefix).rstrip("/")
    return relpath == prefix or relpath.startswith(prefix + "/")


def find_project_root(start: "Path | None" = None) -> Path:
    """The nearest ancestor of ``start`` containing a pyproject.toml."""
    here = Path(start or Path.cwd()).resolve()
    for candidate in (here, *here.parents):
        if (candidate / "pyproject.toml").is_file():
            return candidate
    return here


def load_config(root: "Path | None" = None) -> LintConfig:
    """Build a :class:`LintConfig` from ``<root>/pyproject.toml``.

    A missing file, missing ``[tool.repro-lint]`` table, or an interpreter
    without :mod:`tomllib` all yield the defaults -- configuration is an
    overlay, never a requirement. A key that names no :class:`LintConfig`
    field raises ``ValueError`` naming it.
    """
    root = find_project_root(root) if root is None else Path(root)
    table: "Mapping[str, object]" = {}
    pyproject = root / "pyproject.toml"
    if tomllib is not None and pyproject.is_file():
        with open(pyproject, "rb") as handle:
            data = tomllib.load(handle)
        table = data.get("tool", {}).get("repro-lint", {})
    normalized = {str(key).replace("-", "_"): value for key, value in table.items()}
    known = {f.name for f in fields(LintConfig)} - {"root"}
    unknown = [str(key) for key in table if str(key).replace("-", "_") not in known]
    if unknown:
        raise ValueError(
            f"unknown [tool.repro-lint] key(s) {', '.join(map(repr, unknown))} "
            f"in {pyproject}; known: {', '.join(sorted(k.replace('_', '-') for k in known))}"
        )
    select = normalized.get("select")
    return LintConfig(
        root=root,
        paths=tuple(str(p) for p in normalized.get("paths", LintConfig.paths)),
        select=tuple(_upper(select)) if select is not None else None,
        ignore=tuple(_upper(normalized.get("ignore", ()))),
        exclude=tuple(_normalize(str(p)) for p in normalized.get("exclude", ())),
        program=bool(normalized.get("program", LintConfig.program)),
        schema_module=str(normalized.get("schema_module", LintConfig.schema_module)),
        arch_allow=tuple(str(v) for v in normalized.get("arch_allow", ())),
    )
