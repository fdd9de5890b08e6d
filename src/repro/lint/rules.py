"""The built-in per-file rule catalogue.

==========  =================================================================
RNG001      no global/hardcoded randomness: library code must accept ``rng``
            parameters normalized through ``repro.util.seeding``
EXC001      no broad ``except`` that swallows silently: re-raise, log, or
            suppress with a written rationale
==========  =================================================================

Every rule is registered via :func:`repro.lint.core.register_rule`; the
scoping decisions (which paths a rule applies to) are documented per rule
and mirrored in DESIGN.md §9.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.core import LintContext, Rule, call_name, dotted_name, register_rule

# --------------------------------------------------------------------- RNG001
#: Attributes of ``np.random`` that are legitimate *types* to reference
#: (isinstance checks, annotations, an explicitly seeded bit generator)
#: rather than global-state draws: every bit-generator type numpy ships.
_NP_RANDOM_TYPES = {
    "Generator",
    "SeedSequence",
    "BitGenerator",
    "MT19937",
    "PCG64",
    "PCG64DXSM",
    "Philox",
    "SFC64",
}


@register_rule
class NoAdHocRandomness(Rule):
    """RNG001: randomness must be threaded through ``util/seeding``.

    Fires on (a) any ``np.random.default_rng(...)`` call in library code
    (``src/repro/``) outside ``util/seeding.py`` -- generators must arrive
    as parameters and be normalized via ``as_generator``; (b) any
    global-state numpy randomness (``np.random.seed``, ``np.random.rand``,
    ``np.random.RandomState``, ...) anywhere; (c) any use of the stdlib
    ``random`` module anywhere. Tests and examples may build seeded
    generators explicitly (they *are* the callers that control seeds), but
    nothing may mutate or draw from process-global RNG state -- and a
    zero-argument ``default_rng()``, seeded from OS entropy, is not a
    seeded generator.
    """

    rule_id = "RNG001"
    interests = ("Call", "Import", "ImportFrom")

    def start_file(self, ctx: LintContext) -> bool:
        return not ctx.matches("repro/util/seeding.py")

    def visit(self, node: ast.AST, ctx: LintContext) -> "Iterator[tuple[ast.AST, str]]":
        if isinstance(node, ast.ImportFrom) and node.module == "random":
            yield node, (
                "stdlib random imported; use numpy Generators threaded "
                "through repro.util.seeding.as_generator instead"
            )
            return
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [alias.name for alias in node.names if self._numpy_random(node, alias)]
            if names:
                yield node, (
                    f"direct numpy.random import of {', '.join(names)}; accept an rng "
                    "parameter and normalize via repro.util.seeding.as_generator"
                )
            return
        name = call_name(node)
        if name is None:
            return
        if name in ("np.random.default_rng", "numpy.random.default_rng"):
            if ctx.in_library:
                yield node, (
                    "np.random.default_rng(...) in library code; accept an "
                    "rng parameter and normalize it via "
                    "repro.util.seeding.as_generator"
                )
            elif not node.args and not node.keywords:
                yield node, (
                    "np.random.default_rng() without a seed draws from OS "
                    "entropy; pass an explicit seed"
                )
            return
        for prefix in ("np.random.", "numpy.random."):
            if name.startswith(prefix):
                attr = name[len(prefix) :]
                if attr not in _NP_RANDOM_TYPES:
                    yield node, (
                        f"global-state numpy randomness {name}(...); use an "
                        "explicit np.random.Generator from "
                        "repro.util.seeding.as_generator"
                    )
                return
        module, _, attr = name.partition(".")
        if attr and "." not in attr and module in self._stdlib_random_names(ctx):
            yield node, (
                f"stdlib {name}(...) draws from process-global state; use "
                "an explicit np.random.Generator from repro.util.seeding"
            )

    @staticmethod
    def _numpy_random(node: "ast.Import | ast.ImportFrom", alias: ast.alias) -> bool:
        """Whether ``alias`` brings in numpy.random or one of its names.

        A plain ``import numpy.random`` is left to the call checks; an
        aliased module (``import numpy.random as npr``, ``from numpy import
        random``) would hide its calls from the ``np.random.`` prefix.
        """
        if isinstance(node, ast.Import):
            return alias.name == "numpy.random" and alias.asname is not None
        if node.module in ("numpy.random", "np.random"):
            return True
        return node.module in ("numpy", "np") and alias.name == "random"

    @staticmethod
    def _stdlib_random_names(ctx: LintContext) -> "frozenset[str]":
        """The names the file binds the stdlib ``random`` module to
        (``import random``, ``import random as r``)."""
        cached = getattr(ctx, "_random_names", None)
        if cached is None:
            # Imports are statements, so only statement lists need walking
            # (``handlers`` and ``cases`` hold the except and match bodies).
            names = set()
            stack = list(ctx.tree.body)
            while stack:
                stmt = stack.pop()
                if isinstance(stmt, ast.Import):
                    names.update(
                        alias.asname or alias.name
                        for alias in stmt.names
                        if alias.name == "random"
                    )
                for block in ("body", "orelse", "finalbody", "handlers", "cases"):
                    stack.extend(getattr(stmt, block, ()))
            cached = ctx._random_names = frozenset(names)
        return cached


# --------------------------------------------------------------------- EXC001
_BROAD_EXCEPTIONS = {"Exception", "BaseException"}
#: Call targets that count as surfacing a swallowed exception.
_SURFACING_CALLS = {"warnings.warn", "print", "traceback.print_exc"}
_LOGGING_METHODS = {"debug", "info", "warning", "warn", "error", "exception", "critical", "log"}


@register_rule
class NoSilentBroadExcept(Rule):
    """EXC001: broad ``except`` must re-raise, surface, or justify itself.

    Fires on ``except:``, ``except Exception``, and ``except BaseException``
    handlers whose body neither raises nor calls anything that surfaces the
    failure (``warnings.warn``, a ``logging`` method, ``print``,
    ``traceback.print_exc``). Handlers that convert the failure into a
    *recorded* outcome (an error object appended to results) are still
    flagged -- that design decision deserves a suppression comment stating
    why the swallow is safe, which is exactly the written rationale the
    policy wants next to every such site.
    """

    rule_id = "EXC001"
    interests = ("ExceptHandler",)

    def visit(self, node: ast.AST, ctx: LintContext) -> "Iterator[tuple[ast.AST, str]]":
        broad = self._broad_name(node.type)
        if broad is None:
            return
        if self._surfaces(node.body):
            return
        yield node, (
            f"{broad} handler neither re-raises nor logs; narrow the "
            "exception type, surface the failure, or add a suppression "
            "comment stating why swallowing is safe"
        )

    @staticmethod
    def _broad_name(type_node: "ast.expr | None") -> "str | None":
        if type_node is None:
            return "bare except"
        candidates = (
            type_node.elts if isinstance(type_node, ast.Tuple) else [type_node]
        )
        for candidate in candidates:
            name = dotted_name(candidate)
            if name in _BROAD_EXCEPTIONS:
                return f"except {name}"
        return None

    @staticmethod
    def _surfaces(body: "list[ast.stmt]") -> bool:
        for stmt in body:
            for node in ast.walk(stmt):
                if isinstance(node, ast.Raise):
                    return True
                if isinstance(node, ast.Call):
                    name = call_name(node)
                    if name in _SURFACING_CALLS:
                        return True
                    if name is not None and "." in name:
                        root, method = name.split(".", 1)[0], name.rsplit(".", 1)[1]
                        if method in _LOGGING_METHODS and (
                            root in ("logging", "logger", "log") or "log" in root.lower()
                        ):
                            return True
        return False
