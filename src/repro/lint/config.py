"""Lint configuration: defaults, ``[tool.repro-lint]`` in pyproject.toml.

The configuration controls *which* rules run and *which* files are
linted; the rules themselves, and the paths each applies to, live in
:mod:`repro.lint.rules` and :mod:`repro.lint.program_rules`. Recognized
pyproject keys::

    [tool.repro-lint]
    paths = ["src", "tests"]          # default lint targets for the CLI
    select = ["RNG001", ...]          # default rule selection (omit = all)
    ignore = ["ARCH001"]              # rules dropped everywhere
    exclude = ["tests/lint/fixtures"] # path prefixes never discovered

Any other key, and any rule id in ``select``/``ignore`` that names no
registered rule, is refused by name (:func:`load_config` raises
``ValueError``), so a misspelt or retired knob cannot be accepted while
doing nothing. CLI ``--select``/``--ignore`` override the config-file
selection and go through the same rule-id check. The whole-program pass
runs exactly when a selected rule is a program rule. A selected rule runs
on every linted path it scopes itself to; a deliberate exception is a
suppression comment with its reason at the site, not a path-wide switch.
Paths in the config are interpreted relative to the project root (the
directory holding pyproject.toml).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Iterable, Mapping

from repro.lint.core import available_rules

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

    def with_overrides(
        self,
        select: "Iterable[str] | None" = None,
        ignore: "Iterable[str] | None" = None,
    ) -> "LintConfig":
        """CLI-level overrides: ``--select`` replaces, ``--ignore`` extends.

        Raises ``ValueError`` naming any id that is no registered rule.
        """
        out = self
        if select is not None:
            out = replace(out, select=_rule_ids(select, "--select"))
        if ignore is not None:
            out = replace(out, ignore=tuple(self.ignore) + _rule_ids(ignore, "--ignore"))
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


def _rule_ids(rules: Iterable[str], source: str) -> "tuple[str, ...]":
    """Upper-cased rule ids, refusing any that names no registered rule."""
    ids = tuple(str(r).strip().upper() for r in rules if str(r).strip())
    known = available_rules()
    unknown = [r for r in ids if r not in known]
    if unknown:
        raise ValueError(
            f"unknown rule(s) {', '.join(unknown)} in {source}; "
            f"available: {', '.join(known)}"
        )
    return ids


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
    field, or a ``select``/``ignore`` id that names no registered rule,
    raises ``ValueError`` naming it.
    """
    root = find_project_root(root) if root is None else Path(root)
    table: "Mapping[str, object]" = {}
    pyproject = root / "pyproject.toml"
    if tomllib is not None and pyproject.is_file():
        with open(pyproject, "rb") as handle:
            data = tomllib.load(handle)
        table = data.get("tool", {}).get("repro-lint", {})
    known = {f.name for f in fields(LintConfig)} - {"root"}
    unknown = [str(key) for key in table if key not in known]
    if unknown:
        raise ValueError(
            f"unknown [tool.repro-lint] key(s) {', '.join(map(repr, unknown))} "
            f"in {pyproject}; known: {', '.join(sorted(known))}"
        )
    select = table.get("select")
    where = f"[tool.repro-lint] of {pyproject}"
    return LintConfig(
        root=root,
        paths=tuple(str(p) for p in table.get("paths", LintConfig.paths)),
        select=_rule_ids(select, f"select of {where}") if select is not None else None,
        ignore=_rule_ids(table.get("ignore", ()), f"ignore of {where}"),
        exclude=tuple(_normalize(str(p)) for p in table.get("exclude", ())),
    )
