"""The spec grammar and the registry type behind every spec string.

Modelers (``dnn(top_k=5)``), noise models (``tainted(level=0.05, p=0.1)``)
and pre-filters (``mad(k=3)``) are all built from spec strings of the form
``name`` or ``name(key=value, ...)``. Arguments are keyword-only and their
values are Python literals (``top_k=5``, ``thresholds={1: 0.2}``); bare
words are strings (``aggregation=median``), with ``true``/``false``/``none``
mapping to the Python singletons. A keyword that names a sub-registry takes
a nested call (``inner=gamma(shape=2.0)``, ``prefilter=mad(k=3)``): its
value is kept as a spec string, validated with the outer spec and built
through the sub-registry.

Each kind of object has one :class:`SpecRegistry`. Keyword overrides passed
to :meth:`SpecRegistry.create` (a shared network object, a sweep-axis
value) win over the spec's keywords.
"""

from __future__ import annotations

import ast
import inspect
import re
from dataclasses import dataclass
from typing import Callable

_SPEC_RE = re.compile(r"^\s*([A-Za-z_][\w.-]*)\s*(?:\((.*)\))?\s*$", re.DOTALL)
_BARE_WORDS = {"true": True, "false": False, "none": None}


@dataclass(frozen=True)
class SpecEntry:
    """One registered factory with what validation and listing read."""

    name: str
    factory: Callable[..., object]
    description: str
    #: The factory's parameters, read once at registration.
    parameters: "tuple[inspect.Parameter, ...]"
    #: Accepted keyword names, or ``None`` when the factory takes ``**kwargs``.
    keywords: "frozenset[str] | None"
    #: Keyword a degradation sweep binds its per-cell value to (noise
    #: models), or ``None`` when there is no single sweep axis.
    axis: "str | None" = None

    def signature(self) -> str:
        """The spec signature, e.g. ``dnn(top_k=3, aggregation='median')``."""
        parts = []
        for param in self.parameters:
            if param.kind in (param.VAR_POSITIONAL, param.VAR_KEYWORD):
                parts.append("...")
            elif param.default is inspect.Parameter.empty:
                parts.append(param.name)
            else:
                parts.append(f"{param.name}={param.default!r}")
        return f"{self.name}({', '.join(parts)})"


class SpecRegistry:
    """Name -> factory entries of one kind, built from spec strings.

    ``kind`` names the objects in every message (``"noise model"``).
    When ``builds`` is a type, instances of it pass through :meth:`create`
    unchanged and a factory must return one. :attr:`nested` maps a keyword
    to the registry its string values are specs of.
    """

    def __init__(self, kind: str, builds: "type | None" = None):
        self.kind = kind
        self.builds = builds
        self.nested: "dict[str, SpecRegistry]" = {}
        self.entries: "dict[str, SpecEntry]" = {}

    def register(
        self,
        name: str,
        factory: "Callable[..., object] | None" = None,
        *,
        description: str = "",
        axis: "str | None" = None,
        replace: bool = False,
    ):
        """Register ``factory`` under ``name``, as a plain call or a decorator.

        Re-registering a name requires ``replace=True``. A class is also
        registered under its class name (unless taken), so that a
        keyword-form ``repr`` of what it builds is itself a valid spec.
        """

        def _register(fn: Callable[..., object]) -> Callable[..., object]:
            if name in self.entries and not replace:
                raise ValueError(f"{self.kind} {name!r} is already registered")
            parameters = tuple(inspect.signature(fn).parameters.values())
            keywords = None
            if not any(p.kind is p.VAR_KEYWORD for p in parameters):
                keywords = frozenset(p.name for p in parameters)
            if axis is not None and keywords is not None and axis not in keywords:
                raise ValueError(
                    f"sweep axis {axis!r} is not a keyword of {self.kind} {name!r}"
                )

            def entry_for(key: str) -> SpecEntry:
                return SpecEntry(
                    name=key,
                    factory=fn,
                    description=description or (fn.__doc__ or "").strip(),
                    parameters=parameters,
                    keywords=keywords,
                    axis=axis,
                )

            self.entries[name] = entry_for(name)
            if isinstance(fn, type) and fn.__name__ not in self.entries:
                self.entries[fn.__name__] = entry_for(fn.__name__)
            return fn

        if factory is not None:
            return _register(factory)
        return _register

    def available(self) -> "dict[str, SpecEntry]":
        """All registered entries, by name, in sorted order."""
        return {name: self.entries[name] for name in sorted(self.entries)}

    def entry(self, name: str) -> SpecEntry:
        """The entry registered under ``name`` (raises naming the others)."""
        try:
            return self.entries[name]
        except KeyError:
            raise ValueError(
                f"unknown {self.kind} {name!r}: registered {self.kind}s are "
                f"{', '.join(sorted(self.entries))}"
            ) from None

    def parse(self, spec: str) -> "tuple[str, dict[str, object]]":
        """Split ``"name(key=value, ...)"`` into the name and keyword dict."""
        if not isinstance(spec, str):
            raise TypeError(f"{self.kind} spec must be a string, got {type(spec).__name__}")
        match = _SPEC_RE.match(spec)
        if not match:
            raise ValueError(
                f"malformed {self.kind} spec {spec!r}: "
                "expected 'name' or 'name(key=value, ...)'"
            )
        name, argstr = match.groups()
        kwargs: dict[str, object] = {}
        if argstr and argstr.strip():
            try:
                call = ast.parse(f"_spec({argstr})", mode="eval").body
            except SyntaxError as exc:
                raise ValueError(f"malformed {self.kind} spec {spec!r}: {exc.msg}") from None
            if call.args or any(kw.arg is None for kw in call.keywords):
                raise ValueError(
                    f"{self.kind} spec {spec!r} takes keyword arguments only (key=value)"
                )
            for kw in call.keywords:
                kwargs[kw.arg] = self._value(kw.value, kw.arg, spec)
        return name, kwargs

    def _value(self, node: ast.expr, keyword: str, spec: str) -> object:
        if isinstance(node, ast.Name):  # bare word: aggregation=median
            return _BARE_WORDS.get(node.id.lower(), node.id)
        if (
            keyword in self.nested
            and isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
        ):
            return ast.unparse(node)  # nested spec: prefilter=mad(k=3)
        try:
            return ast.literal_eval(node)
        except (ValueError, SyntaxError):
            raise ValueError(
                f"unsupported value {ast.unparse(node)!r} in {self.kind} spec "
                f"{spec!r}: use Python literals or bare words"
            ) from None

    def validate(self, spec: str, **overrides) -> "tuple[SpecEntry, dict[str, object]]":
        """Parse and resolve ``spec`` without building it.

        Checks the grammar, the name and every keyword (``overrides``
        included) against the factory, and validates nested specs, which
        stay strings. Returns the entry and the merged keyword dict; raises
        :class:`ValueError` naming the valid alternatives.
        """
        name, kwargs = self.parse(spec)
        entry = self.entry(name)
        kwargs.update(overrides)
        if entry.keywords is not None:
            unknown = sorted(set(kwargs) - entry.keywords)
            if unknown:
                accepted = ", ".join(p.name for p in entry.parameters) or "(none)"
                raise ValueError(
                    f"unknown keyword(s) {', '.join(unknown)} for {self.kind} "
                    f"{name!r}: accepted keywords are {accepted}"
                )
        for key, sub in self.nested.items():
            if isinstance(kwargs.get(key), str):
                sub.validate(kwargs[key])
        return entry, kwargs

    def build(self, entry: SpecEntry, kwargs: "dict[str, object]") -> object:
        """Call a validated entry's factory, nested specs built first."""
        for key, sub in self.nested.items():
            if isinstance(kwargs.get(key), str):
                kwargs = {**kwargs, key: sub.create(kwargs[key])}
        built = entry.factory(**kwargs)
        if self.builds is not None and not isinstance(built, self.builds):
            raise TypeError(
                f"{self.kind} factory {entry.name!r} returned {type(built).__name__}, "
                f"expected a {self.builds.__name__}"
            )
        return built

    def create(self, spec: str, **overrides) -> object:
        """Build from a spec string, e.g. ``"adaptive(top_k=5)"``."""
        if self.builds is not None and isinstance(spec, self.builds):
            return spec
        return self.build(*self.validate(spec, **overrides))
