"""The built-in rule catalogue.

==========  =================================================================
RNG001      no global/hardcoded randomness: library code must accept ``rng``
            parameters normalized through ``repro.util.seeding``
IO001       no raw file writes in library code: artifacts go through the
            atomic writers in ``repro.util.artifacts``
EXC001      no broad ``except`` that swallows silently: re-raise, log, or
            suppress with a written rationale
SPEC001     modeler spec strings must parse and resolve against the
            registry at lint time
PMNF001     exponent-pair literals must be members of the paper's 43-pair
            search space
==========  =================================================================

Every rule is registered via :func:`repro.lint.core.register_rule`; the
scoping decisions (which paths a rule applies to) are documented per rule
and mirrored in DESIGN.md §9.
"""

from __future__ import annotations

import ast
from fractions import Fraction
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
    nothing may mutate or draw from process-global RNG state.
    """

    rule_id = "RNG001"
    summary = "randomness outside util/seeding: thread an explicit np.random.Generator"
    interests = ("Call", "ImportFrom")

    def start_file(self, ctx: LintContext) -> bool:
        return not ctx.matches("repro/util/seeding.py")

    def visit(self, node: ast.AST, ctx: LintContext) -> "Iterator[tuple[ast.AST, str]]":
        if isinstance(node, ast.ImportFrom):
            if node.module == "random":
                yield node, (
                    "stdlib random imported; use numpy Generators threaded "
                    "through repro.util.seeding.as_generator instead"
                )
            elif node.module in ("numpy.random", "np.random"):
                names = ", ".join(alias.name for alias in node.names)
                yield node, (
                    f"direct numpy.random import of {names}; accept an rng "
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
        if name.startswith("random.") and name.count(".") == 1:
            if self._imports_stdlib_random(ctx):
                yield node, (
                    f"stdlib {name}(...) draws from process-global state; use "
                    "an explicit np.random.Generator from repro.util.seeding"
                )

    @staticmethod
    def _imports_stdlib_random(ctx: LintContext) -> bool:
        cached = getattr(ctx, "_imports_random", None)
        if cached is None:
            cached = any(
                isinstance(stmt, ast.Import)
                and any(alias.name == "random" and alias.asname is None for alias in stmt.names)
                for stmt in ast.walk(ctx.tree)
            )
            ctx._imports_random = cached
        return cached


# ---------------------------------------------------------------------- IO001
#: Write-capable calls that bypass the atomic artifact layer.
_RAW_WRITERS = {
    "np.save",
    "np.savez",
    "np.savez_compressed",
    "np.savetxt",
    "numpy.save",
    "numpy.savez",
    "numpy.savez_compressed",
    "numpy.savetxt",
    "json.dump",
    "pickle.dump",
}
_WRITE_METHODS = {"write_text", "write_bytes"}


@register_rule
class AtomicArtifactWrites(Rule):
    """IO001: library artifact writes must go through ``util/artifacts``.

    Fires in ``src/repro/`` (outside ``util/artifacts.py``) on ``open``
    with a ``"w"``/``"x"`` mode, ``np.save*``/``json.dump``/``pickle.dump``,
    and ``Path.write_text``/``write_bytes``. PR 2's crash-safety contract
    (readers see either the complete old artifact or the complete new one)
    only holds if every producer uses the fsynced write-rename recipe;
    a serializer that targets an in-memory buffer before handing the bytes
    to ``atomic_write_bytes`` carries a suppression stating exactly that.
    Appending (journals) and reading are out of scope.

    The telemetry trace sink (``obs/sink.py``) is the canonical producer:
    it serializes every record to one JSONL string and emits it in a
    single ``atomic_write_text`` call, so a crash mid-write can never
    leave a torn ``trace.jsonl`` behind — the manifest-registered SHA-256
    only exists once the rename landed. New artifact producers should
    copy that shape rather than streaming records to an open handle.
    """

    rule_id = "IO001"
    summary = "raw artifact write; route through repro.util.artifacts atomic writers"
    interests = ("Call",)

    def start_file(self, ctx: LintContext) -> bool:
        return ctx.in_library and not ctx.matches("repro/util/artifacts.py")

    def visit(self, node: ast.AST, ctx: LintContext) -> "Iterator[tuple[ast.AST, str]]":
        name = call_name(node)
        if name == "open" and self._write_mode(node):
            yield node, (
                f"open(..., {self._write_mode(node)!r}) writes non-atomically; "
                "use repro.util.artifacts.atomic_write_* so crashes never "
                "leave torn files"
            )
            return
        if name in _RAW_WRITERS:
            yield node, (
                f"{name}(...) bypasses the atomic artifact layer; serialize "
                "to bytes and hand them to repro.util.artifacts"
            )
            return
        # Method check is attribute-based so dynamic receivers such as
        # ``Path(x).write_text(...)`` are still caught.
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in _WRITE_METHODS:
            yield node, (
                f".{func.attr}(...) writes non-atomically; use "
                "repro.util.artifacts.atomic_write_* instead"
            )

    @staticmethod
    def _write_mode(node: ast.Call) -> "str | None":
        mode: "ast.expr | None" = None
        if len(node.args) >= 2:
            mode = node.args[1]
        for kw in node.keywords:
            if kw.arg == "mode":
                mode = kw.value
        if isinstance(mode, ast.Constant) and isinstance(mode.value, str):
            if mode.value and mode.value[0] in ("w", "x"):
                return mode.value
        return None


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
    summary = "broad except swallows the failure; re-raise, log, or justify"
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


# -------------------------------------------------------------------- SPEC001
@register_rule
class ValidModelerSpecs(Rule):
    """SPEC001: literal modeler and noise specs must resolve against their registry.

    Every string literal passed to ``create_modeler``/``create_modelers``
    (first positional argument; for ``create_modelers`` also the elements
    of a literal list/tuple and the values of a literal dict) is parsed and
    resolved at lint time via :func:`repro.modeling.registry.validate_spec`
    -- the same validation the runtime applies, so a typo in an example or
    benchmark fails in CI instead of minutes into a sweep. Literal noise
    specs (``create_noise``/``validate_noise_spec``/``noise_for_level``/
    ``noise_axis``) are checked the same way against
    :func:`repro.noise.registry.validate_noise_spec`. Non-literal
    arguments are out of static reach and skipped; specs that are
    *deliberately* invalid (tests asserting the error message) carry
    suppressions saying so.
    """

    rule_id = "SPEC001"
    summary = "modeler or noise spec string does not resolve against the registry"
    interests = ("Call",)

    _NOISE_CALLS = {"create_noise", "validate_noise_spec", "noise_for_level", "noise_axis"}

    def visit(self, node: ast.AST, ctx: LintContext) -> "Iterator[tuple[ast.AST, str]]":
        name = call_name(node)
        if name is None:
            return
        base = name.rsplit(".", 1)[-1]
        if base in ("create_modeler", "create_modelers"):
            specs = self._literal_specs(node.args[0]) if node.args else []
            checker, kind = self._spec_error, "modeler"
        elif base in self._NOISE_CALLS:
            specs = self._literal_specs(node.args[0]) if node.args else []
            checker, kind = self._noise_spec_error, "noise"
        else:
            return
        for spec_node in specs:
            error = checker(spec_node.value)
            if error is not None:
                yield spec_node, f"invalid {kind} spec {spec_node.value!r}: {error}"

    @staticmethod
    def _literal_specs(arg: ast.expr) -> "list[ast.Constant]":
        """String constants inside a literal spec argument."""
        if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
            return [arg]
        if isinstance(arg, (ast.List, ast.Tuple, ast.Set)):
            candidates = arg.elts
        elif isinstance(arg, ast.Dict):
            candidates = arg.values
        else:
            return []
        return [
            element
            for element in candidates
            if isinstance(element, ast.Constant) and isinstance(element.value, str)
        ]

    @staticmethod
    def _spec_error(spec: str) -> "str | None":
        from repro.modeling.registry import validate_spec

        try:
            validate_spec(spec)
        except ValueError as exc:
            return str(exc)
        return None

    @staticmethod
    def _noise_spec_error(spec: str) -> "str | None":
        from repro.noise.registry import validate_noise_spec

        try:
            validate_noise_spec(spec)
        except ValueError as exc:
            return str(exc)
        return None


# -------------------------------------------------------------------- PMNF001
_FRACTION_NAMES = {"Fraction", "F", "_F"}


@register_rule
class ExponentPairInSearchSpace(Rule):
    """PMNF001: exponent-pair literals must come from the paper's 43-pair set.

    ``ExponentPair(i, j)`` calls whose arguments are fully literal (ints,
    floats, or ``Fraction``/``F``/``_F`` of int literals) are resolved and
    checked for membership in :data:`repro.pmnf.searchspace.EXPONENT_PAIRS`
    (Eq. 2). A pair outside the space silently models a growth class the
    network cannot predict and the paper's evaluation never exercises.
    ``pmnf/searchspace.py`` itself (which constructs the set) is exempt;
    tests that probe out-of-space behaviour on purpose carry suppressions.
    Non-literal arguments are skipped.
    """

    rule_id = "PMNF001"
    summary = "exponent-pair literal outside the paper's 43-pair search space"
    interests = ("Call",)

    def start_file(self, ctx: LintContext) -> bool:
        return not ctx.matches("repro/pmnf/searchspace.py")

    def visit(self, node: ast.AST, ctx: LintContext) -> "Iterator[tuple[ast.AST, str]]":
        name = call_name(node)
        if name is None or name.rsplit(".", 1)[-1] != "ExponentPair":
            return
        args: "dict[str, ast.expr]" = {}
        for position, arg in zip(("i", "j"), node.args):
            args[position] = arg
        for kw in node.keywords:
            if kw.arg in ("i", "j"):
                args[kw.arg] = kw.value
        if set(args) != {"i", "j"}:
            return
        i = self._literal_fraction(args["i"])
        j = self._literal_fraction(args["j"])
        if i is None or j is None:
            return
        if j.denominator != 1:
            yield node, f"log exponent j={j} is not an integer"
            return
        if (i, int(j)) not in self._search_space():
            yield node, (
                f"ExponentPair({i}, {int(j)}) is not in the paper's 43-pair "
                "search space (repro.pmnf.searchspace.EXPONENT_PAIRS)"
            )

    @staticmethod
    def _literal_fraction(node: ast.expr) -> "Fraction | None":
        sign = 1
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
            sign = -1 if isinstance(node.op, ast.USub) else 1
            node = node.operand
        if isinstance(node, ast.Constant) and isinstance(node.value, (int, float)):
            if isinstance(node.value, bool):
                return None
            try:
                return sign * Fraction(node.value).limit_denominator(64)
            except (ValueError, OverflowError):
                return None
        if isinstance(node, ast.Call):
            name = call_name(node)
            if name is None or name.rsplit(".", 1)[-1] not in _FRACTION_NAMES:
                return None
            parts = []
            for arg in node.args:
                part = ExponentPairInSearchSpace._literal_fraction(arg)
                if part is None:
                    return None
                parts.append(part)
            if len(parts) == 1:
                return sign * parts[0]
            if len(parts) == 2 and parts[1] != 0:
                return sign * parts[0] / parts[1]
        return None

    @staticmethod
    def _search_space() -> "frozenset[tuple[Fraction, int]]":
        global _SEARCH_SPACE
        if _SEARCH_SPACE is None:
            from repro.pmnf.searchspace import EXPONENT_PAIRS

            _SEARCH_SPACE = frozenset((pair.i, pair.j) for pair in EXPONENT_PAIRS)
        return _SEARCH_SPACE


_SEARCH_SPACE: "frozenset[tuple[Fraction, int]] | None" = None
