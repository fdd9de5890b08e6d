"""The whole-program rule catalogue (CONC001 / SCHEMA001X / ARCH001).

Each rule sees the finished :class:`~repro.lint.program.ProgramGraph` and
yields findings; the runner maps them back onto files, applying the same
suppression comments and rule selection as the per-file rules. The
rules deliberately stay on the conservative side of the graph's
approximations: an unresolvable callee or receiver produces *no* finding,
never a guessed one.
"""

from __future__ import annotations

from typing import Iterator

from repro.lint.program import (
    ProgramFinding,
    ProgramGraph,
    ProgramRule,
    register_program_rule,
)

@register_program_rule
class SharedStateLockRule(ProgramRule):
    """CONC001: state shared with a thread must be mutated under a lock.

    Three complementary checks, all scoped to *compound* mutations
    (``+=``, subscript stores, mutator-method calls) -- plain attribute
    rebinds are atomic under the GIL and exempt:

    a. An instance attribute touched both by thread-reachable methods and
       by the rest of the class must have every compound mutation inside a
       ``with self.<lock>:`` block.
    b. A lock attribute named ``<base>_lock`` pins the convention: compound
       mutations of ``self.<base>`` must hold exactly that lock.
    c. A mutable module global compound-mutated from a thread-reachable
       function must hold a module-level lock.

    ``__init__`` bodies are exempt (they run before the thread starts), as
    are attributes holding internally-synchronized types (queues, events,
    locks themselves). Functions reached only through process-pool
    dispatch do not count as thread-reachable: workers get a copied
    address space.
    """

    rule_id = "CONC001"
    summary = "shared mutable state must be mutated under a lock"

    def check(self, graph: ProgramGraph, config) -> "Iterator[ProgramFinding]":
        closure = graph.reachable_from(graph.thread_roots)
        seen: "set[tuple[str, int, str]]" = set()

        def emit(relpath, node, message, provenance=()):
            key = (relpath, getattr(node, "lineno", 0), message)
            if key in seen:
                return None
            seen.add(key)
            return ProgramFinding.at(relpath, node, message, tuple(provenance))

        for cls in graph.classes.values():
            thread_methods = {
                m for m in cls.methods if f"{cls.qualname}.{m}" in closure
            }
            accesses_by_attr: "dict[str, list]" = {}
            for access in cls.accesses:
                if access.attr in cls.lock_attrs or access.attr in cls.safe_attrs:
                    continue
                accesses_by_attr.setdefault(access.attr, []).append(access)
            for attr, accesses in sorted(accesses_by_attr.items()):
                finding = self._check_attr(
                    graph, cls, attr, accesses, thread_methods, emit
                )
                yield from finding
        for mutation in graph.global_mutations:
            if mutation.function not in closure:
                continue
            if mutation.locks:
                continue
            chain = graph.chain(closure, mutation.function)
            fn = graph.functions.get(mutation.function)
            relpath = fn.relpath if fn is not None else ""
            finding = emit(
                relpath,
                mutation.node,
                f"module global '{mutation.name}' is mutated in thread-reachable "
                f"'{mutation.function}' without holding a module-level lock "
                f"(thread entry: {chain[0]})",
                provenance=chain,
            )
            if finding is not None:
                yield finding

    def _check_attr(self, graph, cls, attr, accesses, thread_methods, emit):
        # __init__ accesses count on neither side: construction happens
        # strictly before the thread starts, so they cannot race.
        in_thread = [
            a for a in accesses if a.method in thread_methods and not a.in_init
        ]
        outside = [
            a for a in accesses if a.method not in thread_methods and not a.in_init
        ]
        shared = bool(thread_methods) and bool(in_thread) and bool(outside)
        convention_lock = (
            f"{attr}_lock" if f"{attr}_lock" in cls.lock_attrs else None
        )
        for access in accesses:
            if access.kind != "mutate" or access.in_init:
                continue
            if shared and not access.locks:
                touching = ", ".join(sorted({a.method for a in in_thread}))
                finding = emit(
                    cls.relpath,
                    access.node,
                    f"'{cls.qualname}.{attr}' is shared with thread-reachable "
                    f"method(s) {touching} but mutated in '{access.method}' "
                    f"without holding a lock",
                )
                if finding is not None:
                    yield finding
            elif convention_lock is not None and convention_lock not in access.locks:
                finding = emit(
                    cls.relpath,
                    access.node,
                    f"'{cls.qualname}.{attr}' has a dedicated lock "
                    f"'{convention_lock}' but is mutated in '{access.method}' "
                    f"without holding it",
                )
                if finding is not None:
                    yield finding


@register_program_rule
class SchemaLiteralDriftRule(ProgramRule):
    """SCHEMA001X: every ``repro.*/vN`` literal resolves to one constant.

    The canonical module (``schema-module`` in ``[tool.repro-lint]``,
    default ``repro.schemas``) defines each wire-schema string exactly
    once. Everywhere else:

    * library code (``src/repro/``) repeating a canonical value must import
      the constant instead -- duplicated spellings are how schema bumps
      miss a site;
    * *any* file using a schema-shaped literal that matches no canonical
      constant has drifted (typo'd version, renamed family) -- this
      deliberately covers tests, where a stale pin silently vacuously
      passes. Tests asserting the canonical wire bytes on purpose are fine:
      their literals match a canonical value.

    When the canonical module is not part of the linted program (e.g.
    linting a single unrelated directory) the rule stays silent.
    """

    rule_id = "SCHEMA001X"
    summary = "wire-schema literals must resolve to the canonical constants"

    def check(self, graph: ProgramGraph, config) -> "Iterator[ProgramFinding]":
        canonical_name = config.schema_module
        canonical = graph.modules.get(canonical_name)
        if canonical is None:
            return
        values: "dict[str, int]" = {}
        for literal in canonical.schema_literals:
            values[literal.value] = values.get(literal.value, 0) + 1
            if values[literal.value] > 1:
                yield ProgramFinding.at(
                    literal.relpath,
                    literal.node,
                    f"schema literal '{literal.value}' appears more than once "
                    f"in canonical module {canonical_name}; each wire schema "
                    f"must have exactly one constant",
                )
        for module in graph.modules.values():
            if module.name == canonical_name:
                continue
            for literal in module.schema_literals:
                if literal.value in values:
                    if module.in_library:
                        yield ProgramFinding.at(
                            literal.relpath,
                            literal.node,
                            f"schema literal '{literal.value}' duplicates a "
                            f"canonical constant; import it from "
                            f"{canonical_name} instead of respelling it",
                        )
                else:
                    yield ProgramFinding.at(
                        literal.relpath,
                        literal.node,
                        f"schema literal '{literal.value}' matches no constant "
                        f"in {canonical_name}; the schema has drifted or the "
                        f"literal is typo'd",
                    )


@register_program_rule
class ImportHygieneRule(ProgramRule):
    """ARCH001: no import cycles, no dead public exports -- ratcheted.

    Cycles are computed over module-level imports only (lazy in-function
    imports cannot deadlock import time), with each import edge pointing at
    the most-specific project module so package ``__init__`` re-exports do
    not read as cycles. Dead exports are ``__all__`` names in library
    modules that no other module imports or references; the check only
    runs when the linted program extends beyond the library (tests,
    examples), since the library alone cannot witness its own consumers.

    Both checks ratchet through ``arch-allow`` in ``[tool.repro-lint]``:
    entries are ``cycle:a<->b`` (members sorted) and ``export:mod.name``.
    An allowlist entry matching nothing is itself a violation, so the debt
    list can only shrink.
    """

    rule_id = "ARCH001"
    summary = "import cycles and dead public exports (ratcheted allowlist)"

    def check(self, graph: ProgramGraph, config) -> "Iterator[ProgramFinding]":
        allow = set(config.arch_allow)
        used: "set[str]" = set()
        yield from self._cycles(graph, allow, used)
        exports_checked = any(not m.in_library for m in graph.modules.values())
        if exports_checked:
            yield from self._dead_exports(graph, allow, used)
        for entry in sorted(allow - used):
            if entry.startswith("export:") and not exports_checked:
                continue
            yield ProgramFinding(
                relpath="pyproject.toml",
                line=1,
                column=0,
                message=(
                    f"stale arch-allow entry '{entry}' matches no current "
                    f"finding; remove it to keep the ratchet tight"
                ),
            )

    def _cycles(self, graph, allow, used):
        edges: "dict[str, dict[str, object]]" = {}
        for info in graph.modules.values():
            out = edges.setdefault(info.name, {})
            for target, stmt in info.top_imports:
                dep = graph.module_of(graph.resolve_absolute(target))
                if dep is not None and dep != info.name:
                    out.setdefault(dep, stmt)
        for component in _strongly_connected(edges):
            if len(component) < 2:
                continue
            members = sorted(component)
            key = "cycle:" + "<->".join(members)
            if key in allow:
                used.add(key)
                continue
            first = members[0]
            info = graph.modules[first]
            stmt = next(
                (s for dep, s in edges[first].items() if dep in component), None
            )
            yield ProgramFinding.at(
                info.relpath,
                stmt,
                f"import cycle between {', '.join(members)}; break it or "
                f"allowlist '{key}' under [tool.repro-lint] arch-allow",
                tuple(members),
            )

    def _dead_exports(self, graph, allow, used):
        for name in sorted(graph.modules):
            info = graph.modules[name]
            if not info.in_library or not info.exports:
                continue
            for export in info.exports:
                fq = f"{info.name}.{export}"
                # A re-export is alive when the *symbol* is used by any
                # path: check the spelled export path and its resolution
                # through __init__ aliases.
                resolved = graph.resolve_absolute(fq)
                refs = (
                    graph.references.get(fq, set())
                    | graph.references.get(resolved, set())
                ) - {info.name, graph.module_of(resolved) or ""}
                if refs:
                    continue
                key = f"export:{fq}"
                if key in allow:
                    used.add(key)
                    continue
                yield ProgramFinding.at(
                    info.relpath,
                    info.exports_node,
                    f"public export '{export}' of {info.name} is referenced "
                    f"nowhere else in the program; drop it from __all__ or "
                    f"allowlist '{key}' under [tool.repro-lint] arch-allow",
                    (fq,),
                )


def _strongly_connected(edges: "dict[str, dict[str, object]]") -> "list[set[str]]":
    """Tarjan's SCC algorithm, iterative (lint may see deep import chains)."""
    index: "dict[str, int]" = {}
    lowlink: "dict[str, int]" = {}
    on_stack: "set[str]" = set()
    stack: "list[str]" = []
    components: "list[set[str]]" = []
    counter = [0]

    for root in sorted(edges):
        if root in index:
            continue
        work: "list[tuple[str, Iterator[str] | None]]" = [(root, None)]
        while work:
            node, iterator = work.pop()
            if iterator is None:
                index[node] = lowlink[node] = counter[0]
                counter[0] += 1
                stack.append(node)
                on_stack.add(node)
                iterator = iter(sorted(edges.get(node, ())))
            advanced = False
            for succ in iterator:
                if succ not in edges:
                    continue
                if succ not in index:
                    work.append((node, iterator))
                    work.append((succ, None))
                    advanced = True
                    break
                if succ in on_stack:
                    lowlink[node] = min(lowlink[node], index[succ])
            if advanced:
                continue
            if lowlink[node] == index[node]:
                component: "set[str]" = set()
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.add(member)
                    if member == node:
                        break
                components.append(component)
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
    return components
