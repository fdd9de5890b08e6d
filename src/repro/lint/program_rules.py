"""The whole-program rule catalogue (CONC001 / SCHEMA001X / ARCH001).

Each rule sees the finished :class:`~repro.lint.program.ProgramGraph` and
yields ``kind="program"`` violations; the runner applies the same
suppression comments and rule selection as to the per-file rules. The
rules deliberately stay on the conservative side of the graph's
approximations: an unresolvable callee or receiver produces *no* finding,
never a guessed one.
"""

from __future__ import annotations

from typing import Iterator

from repro.lint.core import Violation, register_rule
from repro.lint.program import ProgramGraph, ProgramRule

#: The one module allowed to spell wire-schema literals (SCHEMA001X).
SCHEMA_MODULE = "repro.schemas"


@register_rule
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

    def check(self, graph: ProgramGraph) -> "Iterator[Violation]":
        closure = graph.reachable_from(graph.thread_roots)
        seen: "set[tuple[str, int, str]]" = set()

        def emit(relpath, node, message, provenance=()):
            key = (relpath, getattr(node, "lineno", 0), message)
            if key in seen:
                return None
            seen.add(key)
            return self.finding(relpath, node, message, provenance)

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
            finding = emit(
                graph.functions[mutation.function].relpath,
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


@register_rule
class SchemaLiteralDriftRule(ProgramRule):
    """SCHEMA001X: every ``repro.*/vN`` literal resolves to one constant.

    The canonical module (:data:`SCHEMA_MODULE`, ``repro.schemas``) defines
    each wire-schema string exactly once. Everywhere else:

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

    def check(self, graph: ProgramGraph) -> "Iterator[Violation]":
        canonical = graph.modules.get(SCHEMA_MODULE)
        if canonical is None:
            return
        values: "dict[str, int]" = {}
        for literal in canonical.schema_literals:
            values[literal.value] = values.get(literal.value, 0) + 1
            if values[literal.value] > 1:
                yield self.finding(
                    canonical.relpath,
                    literal,
                    f"schema literal '{literal.value}' appears more than once "
                    f"in canonical module {SCHEMA_MODULE}; each wire schema "
                    f"must have exactly one constant",
                )
        for module in graph.modules.values():
            if module is canonical:
                continue
            for literal in module.schema_literals:
                if literal.value in values:
                    if module.in_library:
                        yield self.finding(
                            module.relpath,
                            literal,
                            f"schema literal '{literal.value}' duplicates a "
                            f"canonical constant; import it from "
                            f"{SCHEMA_MODULE} instead of respelling it",
                        )
                else:
                    yield self.finding(
                        module.relpath,
                        literal,
                        f"schema literal '{literal.value}' matches no constant "
                        f"in {SCHEMA_MODULE}; the schema has drifted or the "
                        f"literal is typo'd",
                    )


@register_rule
class ImportHygieneRule(ProgramRule):
    """ARCH001: no import cycles, no dead public exports.

    Cycles are computed over module-level imports only (lazy in-function
    imports cannot deadlock import time), with each import edge pointing at
    the most-specific project module so package ``__init__`` re-exports do
    not read as cycles. Dead exports are ``__all__`` names in library
    modules that no other module imports or references; the check only
    runs when the linted program extends beyond the library (tests,
    examples), since the library alone cannot witness its own consumers.

    A deliberate exception is a suppression comment with its rationale at
    the reported site: the cycle's first import, or the ``__all__``.
    """

    rule_id = "ARCH001"

    def check(self, graph: ProgramGraph) -> "Iterator[Violation]":
        yield from self._cycles(graph)
        if any(not m.in_library for m in graph.modules.values()):
            yield from self._dead_exports(graph)

    def _cycles(self, graph):
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
            first = members[0]
            stmt = next(
                (s for dep, s in edges[first].items() if dep in component), None
            )
            yield self.finding(
                graph.modules[first].relpath,
                stmt,
                f"import cycle between {', '.join(members)}; break it, or "
                f"suppress ARCH001 at this import with a rationale",
                members,
            )

    def _dead_exports(self, graph):
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
                yield self.finding(
                    info.relpath,
                    info.exports_node,
                    f"public export '{export}' of {info.name} is referenced "
                    f"nowhere else in the program; drop it from __all__, or "
                    f"suppress ARCH001 at __all__ with a rationale",
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
