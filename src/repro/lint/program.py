"""Whole-program analysis: project symbol table, import graph, call graph.

The per-file pass (:mod:`repro.lint.core`) sees one AST at a time, so it
cannot notice an unlocked counter mutated from a thread entry point two
modules away, a schema literal drifting from its canonical constant, or an
import cycle. This module parses every discovered file once (the runner
shares the trees with the per-file pass), builds a :class:`ProgramGraph`,
and feeds it to the program rules in :mod:`repro.lint.program_rules`.

The graph is deliberately approximate, trading soundness for a usable
signal (DESIGN.md documents each caveat):

* **Names, not values.** Resolution follows import aliases (absolute and
  relative, including ``__init__`` re-exports) and lexical symbols;
  dynamic dispatch, monkey-patching, and ``getattr`` strings are invisible.
* **Calls + references.** ``f(x)`` and passing ``f`` as a value (a thread
  target, a callback) both add an edge ``caller -> f``. A function handed
  to the parallel engine crosses a process boundary, so it gets no edge --
  same-thread reachability must not follow it -- only a reference.
* **``self`` only.** Method resolution covers ``self.m()`` (including
  project base classes) and ``self.attr.m()`` where ``attr`` was assigned
  a resolvable constructor; arbitrary receiver expressions are skipped.
* **Locks are lexical.** A mutation counts as lock-protected when it sits
  inside ``with self.<lock>:`` (or a module-level ``with <lock>:``);
  ``acquire()``/``release()`` pairs are not tracked.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping

from repro.lint.core import Rule, Violation, dotted_name

#: ``repro.<name>/v<N>`` -- the wire-schema literal shape SCHEMA001X guards.
SCHEMA_LITERAL_RE = re.compile(r"repro\.[A-Za-z0-9_.-]+/v\d+")

#: Constructor targets that make an attribute a lock for CONC001 purposes.
LOCK_TYPES = {"threading.Lock", "threading.RLock"}

#: Constructor targets whose instances are internally synchronized --
#: mutating them without an extra lock is not a data race.
THREAD_SAFE_TYPES = LOCK_TYPES | {
    "queue.Queue",
    "queue.LifoQueue",
    "queue.PriorityQueue",
    "queue.SimpleQueue",
    "threading.Event",
    "threading.Condition",
    "threading.Semaphore",
    "threading.BoundedSemaphore",
    "threading.Barrier",
    "threading.local",
}

#: Method names treated as in-place mutations of their receiver. The list
#: is intentionally name-based (no type inference): it covers the stdlib
#: containers plus the project's own mutating verbs (``MetricsRegistry.merge``,
#: metric ``inc``/``observe``). ``set`` is deliberately absent -- it would
#: swallow ``threading.Event.set``.
MUTATOR_METHODS = {
    "append",
    "extend",
    "insert",
    "add",
    "update",
    "setdefault",
    "pop",
    "popitem",
    "remove",
    "discard",
    "clear",
    "merge",
    "inc",
    "observe",
}

#: Fully-qualified names whose calls dispatch their first argument onto
#: worker processes: that argument gets no edge, so the thread closure
#: does not follow it.
POOL_DISPATCHERS = {
    "repro.parallel.engine.run_tasks",
    "repro.parallel.pool.parallel_map",
    "repro.parallel.engine.EngineSession.run",
}


def module_name(relpath: str) -> str:
    """The dotted module name a project-relative posix path denotes.

    ``src/`` layouts are collapsed (``src/repro/obs/sink.py`` ->
    ``repro.obs.sink``); packages shed their ``__init__`` suffix.
    """
    path = relpath[:-3] if relpath.endswith(".py") else relpath
    if path.startswith("src/"):
        path = path[len("src/") :]
    if path.endswith("/__init__"):
        path = path[: -len("/__init__")]
    elif path == "__init__":
        path = ""
    return path.replace("/", ".")


@dataclass(frozen=True)
class SourceModule:
    """One parsed input file handed to :func:`build_program`."""

    relpath: str
    tree: ast.Module


@dataclass
class AttrAccess:
    """One ``self.<attr>`` access inside a method."""

    attr: str
    method: str  # plain method name within the class
    kind: str  # "read" | "rebind" | "mutate"
    node: ast.AST
    locks: "frozenset[str]"  # lock attributes held at the access site
    in_init: bool


@dataclass
class GlobalMutation:
    """A compound mutation of a module-level name inside a function."""

    name: str
    function: str  # fq of the mutating function
    node: ast.AST
    locks: "frozenset[str]"  # module-level locks held at the site


@dataclass
class FunctionInfo:
    """One project function or method."""

    qualname: str  # "pkg.mod.fn" or "pkg.mod.Class.fn"
    module: str
    relpath: str
    node: "ast.FunctionDef | ast.AsyncFunctionDef"
    params: "tuple[str, ...]"
    class_name: "str | None" = None  # owning class fq when a method


@dataclass
class ClassInfo:
    """One project class with its concurrency-relevant structure."""

    qualname: str
    module: str
    relpath: str
    node: ast.ClassDef
    bases: "tuple[str, ...]" = ()  # resolved base names
    methods: "dict[str, FunctionInfo]" = field(default_factory=dict)
    lock_attrs: "set[str]" = field(default_factory=set)
    safe_attrs: "set[str]" = field(default_factory=set)
    attr_types: "dict[str, str]" = field(default_factory=dict)
    accesses: "list[AttrAccess]" = field(default_factory=list)


@dataclass
class ModuleInfo:
    """Everything the program pass knows about one module."""

    name: str
    relpath: str
    tree: ast.Module
    is_init: bool
    in_library: bool  # under src/repro/
    aliases: "dict[str, str]" = field(default_factory=dict)
    top_imports: "list[tuple[str, ast.stmt]]" = field(default_factory=list)
    functions: "dict[str, FunctionInfo]" = field(default_factory=dict)
    classes: "dict[str, ClassInfo]" = field(default_factory=dict)
    module_globals: "dict[str, ast.AST]" = field(default_factory=dict)
    mutable_globals: "set[str]" = field(default_factory=set)
    lock_globals: "set[str]" = field(default_factory=set)
    exports: "list[str] | None" = None
    exports_node: "ast.AST | None" = None
    #: ``repro.*/vN`` string constants outside docstrings, in walk order.
    schema_literals: "list[ast.Constant]" = field(default_factory=list)

    @property
    def package(self) -> str:
        """The package relative imports resolve against."""
        if self.is_init:
            return self.name
        return self.name.rsplit(".", 1)[0] if "." in self.name else ""


class ProgramGraph:
    """The resolved project: modules, symbols, imports, and call edges."""

    def __init__(self) -> None:
        self.modules: "dict[str, ModuleInfo]" = {}
        self.functions: "dict[str, FunctionInfo]" = {}
        self.classes: "dict[str, ClassInfo]" = {}
        #: caller fq -> callee fqs in source order (a list, not a set, so
        #: reachability and its provenance chains never depend on hashing).
        self.edges: "dict[str, list[str]]" = {}
        self.thread_roots: "list[str]" = []  # thread target fqs, first seen first
        self.references: "dict[str, set[str]]" = {}  # fq symbol -> referencing modules
        self.global_mutations: "list[GlobalMutation]" = []

    # ------------------------------------------------------------- resolution
    def is_internal(self, dotted: str) -> bool:
        """True when ``dotted`` belongs to a module of this program."""
        return self._module_prefix(dotted) is not None

    def module_of(self, dotted: str) -> "str | None":
        """The program module a dotted name lives in (most-specific prefix)."""
        return self._module_prefix(dotted)

    def _module_prefix(self, dotted: str) -> "str | None":
        parts = dotted.split(".")
        for i in range(len(parts), 0, -1):
            prefix = ".".join(parts[:i])
            if prefix in self.modules:
                return prefix
        return None

    def resolve_absolute(self, dotted: str, _depth: int = 0) -> str:
        """Chase ``dotted`` through project re-exports to a stable name.

        Returns a project-fq symbol/module name when the prefix is a
        program module (following ``__init__`` aliases transitively), and
        the input unchanged for external names. Chasing is depth-bounded
        so pathological alias cycles cannot loop.
        """
        prefix = self._module_prefix(dotted)
        if prefix is None or _depth > 16:
            return dotted
        rest = dotted[len(prefix) :].lstrip(".").split(".") if len(dotted) > len(prefix) else []
        if not rest:
            return prefix
        mod = self.modules[prefix]
        head = rest[0]
        target = mod.aliases.get(head)
        if target is not None:
            return self.resolve_absolute(".".join([target, *rest[1:]]), _depth + 1)
        return dotted

    def resolve_in_module(self, mod: ModuleInfo, dotted: str) -> "str | None":
        """Resolve a dotted name as seen from inside ``mod``.

        Returns an absolute dotted name (project-fq or external), or
        ``None`` when the head is neither an import alias nor a
        module-level symbol (i.e. a local variable or builtin).
        """
        head, _, rest = dotted.partition(".")
        target = mod.aliases.get(head)
        if target is not None:
            return self.resolve_absolute(target + ("." + rest if rest else ""))
        if (
            head in mod.functions
            or head in mod.classes
            or head in mod.module_globals
        ):
            return f"{mod.name}.{dotted}"
        return None

    def function_at(self, fq: str) -> "FunctionInfo | None":
        """Look up a function, following class inheritance for methods."""
        found = self.functions.get(fq)
        if found is not None:
            return found
        # ``Class.m`` where m lives on a project base class.
        head, _, meth = fq.rpartition(".")
        cls = self.classes.get(head)
        seen = set()
        while cls is not None and cls.qualname not in seen:
            seen.add(cls.qualname)
            if meth in cls.methods:
                return cls.methods[meth]
            cls = next(
                (self.classes[b] for b in cls.bases if b in self.classes), None
            )
        return None

    # ----------------------------------------------------------- reachability
    def reachable_from(self, roots: "Iterable[str]") -> "dict[str, str | None]":
        """Closure over :attr:`edges` (same-thread control flow).

        Returns ``{reached_fq: parent_fq}`` (roots map to ``None``), so
        callers can rebuild the path that made a function reachable.
        """
        parents: "dict[str, str | None]" = {}
        frontier = []
        for root in roots:
            if root not in parents:
                parents[root] = None
                frontier.append(root)
        while frontier:
            current = frontier.pop()
            for target in self.edges.get(current, ()):
                if target not in parents:
                    parents[target] = current
                    frontier.append(target)
        return parents

    @staticmethod
    def chain(parents: "Mapping[str, str | None]", target: str) -> "list[str]":
        """The root-to-target path recorded by :meth:`reachable_from`."""
        path = [target]
        seen = {target}
        while True:
            parent = parents.get(path[-1])
            if parent is None or parent in seen:
                break
            path.append(parent)
            seen.add(parent)
        return list(reversed(path))


# ---------------------------------------------------------------- rule model
class ProgramRule(Rule):
    """Base class for rules that see the whole program graph.

    A program rule runs once per lint run, after the graph is built, and
    yields ``kind="program"`` :class:`Violation` records (see
    :meth:`finding`). It has no per-file interests, so the per-file walk
    never dispatches to it.
    """

    def check(self, graph: ProgramGraph) -> "Iterator[Violation]":
        return iter(())

    def finding(
        self,
        relpath: str,
        node: "ast.AST | None",
        message: str,
        provenance: "Iterable[str]" = (),
    ) -> Violation:
        return Violation.at(relpath, node, self.rule_id, message, "program", provenance)


# ------------------------------------------------------------- graph builder
def build_program(sources: "Iterable[SourceModule]") -> ProgramGraph:
    """Parse-free graph construction over already-parsed sources."""
    graph = ProgramGraph()
    infos: "list[ModuleInfo]" = []
    for src in sources:
        info = ModuleInfo(
            name=module_name(src.relpath),
            relpath=src.relpath,
            tree=src.tree,
            is_init=src.relpath.endswith("__init__.py"),
            in_library=src.relpath.startswith("src/repro/"),
        )
        graph.modules[info.name] = info
        infos.append(info)
    # Phase 1: per-module structure (aliases, symbols, class skeletons).
    for info in infos:
        _collect_module(info)
        for fn in info.functions.values():
            graph.functions[fn.qualname] = fn
        for cls in info.classes.values():
            graph.classes[f"{info.name}.{cls.node.name}"] = cls
    # Phase 2: resolve class bases and attribute constructor types (needs
    # every module's alias table, hence a separate pass).
    for info in infos:
        for cls in info.classes.values():
            _resolve_class(graph, info, cls)
    # Phase 3: function bodies -- calls, references, accesses.
    for info in infos:
        _scan_module(graph, info)
    return graph


# --------------------------------------------------------- phase 1: structure
def _collect_module(info: ModuleInfo) -> None:
    _walk_module(info)
    _collect_top_imports(info)
    for stmt in info.tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            info.functions[stmt.name] = _function_info(info, stmt, class_fq=None)
        elif isinstance(stmt, ast.ClassDef):
            cls = ClassInfo(
                qualname=f"{info.name}.{stmt.name}",
                module=info.name,
                relpath=info.relpath,
                node=stmt,
            )
            for sub in stmt.body:
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    method = _function_info(info, sub, class_fq=cls.qualname)
                    cls.methods[sub.name] = method
                    info.functions[f"{stmt.name}.{sub.name}"] = method
            info.classes[stmt.name] = cls
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            _collect_global_assign(info, stmt)


def _function_info(
    info: ModuleInfo,
    node: "ast.FunctionDef | ast.AsyncFunctionDef",
    class_fq: "str | None",
) -> FunctionInfo:
    if class_fq is not None:
        qualname = f"{class_fq}.{node.name}"
    else:
        qualname = f"{info.name}.{node.name}"
    args = node.args
    params = tuple(
        a.arg
        for a in (*args.posonlyargs, *args.args, *args.kwonlyargs)
    )
    return FunctionInfo(
        qualname=qualname,
        module=info.name,
        relpath=info.relpath,
        node=node,
        params=params,
        class_name=class_fq,
    )


def _walk_module(info: ModuleInfo) -> None:
    """The one whole-module walk: import aliases and schema literals.

    Aliases are module-wide (function-level lazy imports included):
    module-level bindings win on collision, and lazy in-function imports
    fill the gaps so call resolution can see e.g. ``validate_spec``
    imported inside a method. Schema literals skip docstrings; the walk
    is breadth-first, so a docstring's owner is always seen before it.
    """
    top_level = {id(stmt) for stmt in info.tree.body}
    lazy: "dict[str, str]" = {}
    docstrings: "set[int]" = set()
    for node in ast.walk(info.tree):
        if isinstance(node, (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            body = node.body
            if (
                body
                and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)
            ):
                docstrings.add(id(body[0].value))
        elif isinstance(node, ast.Constant):
            if (
                isinstance(node.value, str)
                and id(node) not in docstrings
                and SCHEMA_LITERAL_RE.fullmatch(node.value)
            ):
                info.schema_literals.append(node)
        elif isinstance(node, ast.Import):
            sink = info.aliases if id(node) in top_level else lazy
            for alias in node.names:
                if alias.asname is not None:
                    sink.setdefault(alias.asname, alias.name)
                else:
                    head = alias.name.split(".")[0]
                    sink.setdefault(head, head)
        elif isinstance(node, ast.ImportFrom):
            sink = info.aliases if id(node) in top_level else lazy
            base = _import_base(info, node)
            if base is None:
                continue
            for alias in node.names:
                if alias.name != "*":
                    sink.setdefault(alias.asname or alias.name, f"{base}.{alias.name}")
    for name, target in lazy.items():
        info.aliases.setdefault(name, target)


def _import_base(info: ModuleInfo, node: ast.ImportFrom) -> "str | None":
    """The absolute package/module a ``from ... import`` pulls from."""
    if node.level == 0:
        return node.module
    package = info.package
    for _ in range(node.level - 1):
        if "." not in package:
            if not package:
                return None
            package = ""
        else:
            package = package.rsplit(".", 1)[0]
    if node.module:
        return f"{package}.{node.module}" if package else node.module
    return package or None


def _collect_top_imports(info: ModuleInfo) -> None:
    """Module-level import targets (the edges the cycle detector sees).

    Descends into top-level ``if``/``try``/``with`` blocks (version guards,
    optional imports) but never into function or class bodies -- a lazy
    import cannot create an import-time cycle.
    """
    stack: "list[ast.stmt]" = list(info.tree.body)
    while stack:
        stmt = stack.pop()
        if isinstance(stmt, (ast.If, ast.Try, ast.With)):
            for part in ast.iter_child_nodes(stmt):
                if isinstance(part, ast.stmt):
                    stack.append(part)
            for handler in getattr(stmt, "handlers", ()):
                stack.extend(handler.body)
            stack.extend(getattr(stmt, "orelse", ()))
            stack.extend(getattr(stmt, "finalbody", ()))
        elif isinstance(stmt, ast.Import):
            for alias in stmt.names:
                info.top_imports.append((alias.name, stmt))
        elif isinstance(stmt, ast.ImportFrom):
            base = _import_base(info, stmt)
            if base is None:
                continue
            for alias in stmt.names:
                if alias.name == "*":
                    info.top_imports.append((base, stmt))
                else:
                    info.top_imports.append((f"{base}.{alias.name}", stmt))


def _collect_global_assign(info: ModuleInfo, stmt: "ast.Assign | ast.AnnAssign") -> None:
    targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
    value = stmt.value
    for target in targets:
        if not isinstance(target, ast.Name):
            continue
        if target.id == "__all__" and isinstance(value, (ast.List, ast.Tuple)):
            names = [
                e.value
                for e in value.elts
                if isinstance(e, ast.Constant) and isinstance(e.value, str)
            ]
            info.exports = names
            info.exports_node = stmt
            continue
        info.module_globals[target.id] = stmt
        if value is None:
            continue
        if isinstance(
            value, (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)
        ):
            info.mutable_globals.add(target.id)
        elif isinstance(value, ast.Call):
            callee = dotted_name(value.func)
            if callee in ("dict", "list", "set", "collections.defaultdict", "defaultdict"):
                info.mutable_globals.add(target.id)


# ----------------------------------------------- phase 2: class-level typing
def _resolve_class(graph: ProgramGraph, info: ModuleInfo, cls: ClassInfo) -> None:
    bases = []
    for base in cls.node.bases:
        dotted = dotted_name(base)
        if dotted is None:
            continue
        resolved = graph.resolve_in_module(info, dotted)
        bases.append(resolved if resolved is not None else dotted)
    cls.bases = tuple(bases)
    # ``self.X = Ctor(...)`` anywhere in the class types the attribute.
    for method in cls.methods.values():
        for node in ast.walk(method.node):
            if not isinstance(node, ast.Assign) or not isinstance(node.value, ast.Call):
                continue
            callee = dotted_name(node.value.func)
            if callee is None:
                continue
            resolved = graph.resolve_in_module(info, callee) or callee
            for target in node.targets:
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    cls.attr_types.setdefault(target.attr, resolved)
                    if resolved in LOCK_TYPES:
                        cls.lock_attrs.add(target.attr)
                    if resolved in THREAD_SAFE_TYPES:
                        cls.safe_attrs.add(target.attr)


# ------------------------------------------------- phase 3: body-level edges
def _scan_module(graph: ProgramGraph, info: ModuleInfo) -> None:
    # Record every import target as a cross-module symbol reference (used
    # by the dead-export check): importing a name *is* using it. Both the
    # spelled target and its re-export resolution are recorded, so a chain
    # consumer justifies every module along its import path.
    for target in info.aliases.values():
        if graph.is_internal(target):
            graph.references.setdefault(target, set()).add(info.name)
        resolved = graph.resolve_absolute(target)
        if resolved != target and graph.is_internal(resolved):
            graph.references.setdefault(resolved, set()).add(info.name)
    # Module-level locks guard module-level state.
    for name, stmt in info.module_globals.items():
        value = getattr(stmt, "value", None)
        if isinstance(value, ast.Call):
            callee = dotted_name(value.func)
            if callee is not None:
                resolved = graph.resolve_in_module(info, callee) or callee
                if resolved in LOCK_TYPES:
                    info.lock_globals.add(name)
    for fn in info.functions.values():
        scanner = _BodyScanner(graph, info, fn)
        scanner.scan()
    # Module-level statements (decorator calls, registry setup) can also
    # reference/dispatch; scan them under a synthetic "<module>" scope.
    module_scope = FunctionInfo(
        qualname=f"{info.name}.<module>",
        module=info.name,
        relpath=info.relpath,
        node=info.tree,  # type: ignore[arg-type]
        params=(),
    )
    scanner = _BodyScanner(graph, info, module_scope, module_level=True)
    scanner.scan()


class _BodyScanner(ast.NodeVisitor):
    """One pass over a function body (or the module level).

    Collects call and reference edges, thread roots, pool dispatches,
    ``self`` attribute accesses, and module-global mutations, tracking the
    lexical ``with``-lock stack as it goes.
    """

    def __init__(
        self,
        graph: ProgramGraph,
        info: ModuleInfo,
        fn: FunctionInfo,
        module_level: bool = False,
    ) -> None:
        self.graph = graph
        self.info = info
        self.fn = fn
        self.module_level = module_level
        self.cls = graph.classes.get(fn.class_name) if fn.class_name else None
        self.held: "list[str]" = []  # lock stack (class attrs + module locks)
        self.local_defs: "dict[str, str]" = {}  # name -> nested fq
        self.local_types: "dict[str, str]" = {}  # var -> resolved ctor
        self._func_exprs: "set[int]" = set()  # callee exprs (not value refs)
        self._process_args: "set[int]" = set()  # pool-dispatched fn arguments
        self.local_names: "set[str]" = set()  # names bound inside this body
        self.global_decls: "set[str]" = set()  # names declared ``global``

    # ------------------------------------------------------------- traversal
    def scan(self) -> None:
        if self.module_level:
            for stmt in self.fn.node.body:  # type: ignore[union-attr]
                if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    self.visit(stmt)
        else:
            # Pre-register nested defs (forward references), local bindings
            # (to tell a shadowing local apart from a module global), and
            # ``global`` declarations in one walk.
            self.local_names.update(self.fn.params)
            for stmt in ast.walk(self.fn.node):
                if (
                    isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and stmt is not self.fn.node
                ):
                    self.local_defs.setdefault(
                        stmt.name, f"{self.fn.qualname}.<locals>.{stmt.name}"
                    )
                elif isinstance(stmt, ast.Global):
                    self.global_decls.update(stmt.names)
                elif isinstance(stmt, ast.Name) and isinstance(stmt.ctx, ast.Store):
                    self.local_names.add(stmt.id)
            for stmt in self.fn.node.body:
                self.visit(stmt)

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        # Nested function bodies belong to the nested function, not to us.
        fq = f"{self.fn.qualname}.<locals>.{node.name}"
        nested = FunctionInfo(
            qualname=fq,
            module=self.info.name,
            relpath=self.info.relpath,
            node=node,
            params=tuple(a.arg for a in node.args.args),
        )
        self.graph.functions.setdefault(fq, nested)
        self._edge(fq)
        sub = _BodyScanner(self.graph, self.info, nested)
        sub.scan()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        return  # local classes are out of scope

    def visit_With(self, node: ast.With) -> None:
        added = []
        for item in node.items:
            lock = self._lock_name(item.context_expr)
            if lock is not None:
                added.append(lock)
                self.held.append(lock)
            if isinstance(item.optional_vars, ast.Name) and isinstance(
                item.context_expr, ast.Call
            ):
                callee = dotted_name(item.context_expr.func)
                if callee is not None:
                    resolved = self.graph.resolve_in_module(self.info, callee)
                    if resolved is not None:
                        self.local_types.setdefault(item.optional_vars.id, resolved)
            self.visit(item.context_expr)
        for stmt in node.body:
            self.visit(stmt)
        for _ in added:
            self.held.pop()

    def _lock_name(self, expr: ast.expr) -> "str | None":
        if (
            isinstance(expr, ast.Attribute)
            and isinstance(expr.value, ast.Name)
            and expr.value.id == "self"
            and self.cls is not None
            and expr.attr in self.cls.lock_attrs
        ):
            return expr.attr
        if isinstance(expr, ast.Name) and expr.id in self.info.lock_globals:
            return expr.id
        return None

    # ----------------------------------------------------------------- calls
    def visit_Call(self, node: ast.Call) -> None:
        dotted = dotted_name(node.func)
        if isinstance(node.func, (ast.Name, ast.Attribute)):
            self._func_exprs.add(id(node.func))
        resolved, internal = self._resolve_callee(node, dotted)
        if internal and resolved is not None:
            target = self._callable_target(resolved)
            if target is not None:
                self._edge(target)
        self._record_thread_target(node, resolved)
        self._record_dispatch(node, resolved)
        self.generic_visit(node)

    def _resolve_callee(
        self, node: ast.Call, dotted: "str | None"
    ) -> "tuple[str | None, bool]":
        if dotted is None:
            return None, False
        # self.m() / self.attr.m()
        if dotted.startswith("self.") and self.cls is not None:
            rest = dotted[len("self.") :]
            if "." not in rest:
                target = f"{self.cls.qualname}.{rest}"
                if self.graph.function_at(target) is not None:
                    return target, True
                return target, False
            attr, _, meth = rest.partition(".")
            attr_type = self.cls.attr_types.get(attr)
            if attr_type is not None and "." not in meth:
                return f"{attr_type}.{meth}", self.graph.is_internal(attr_type)
            return None, False
        head = dotted.split(".", 1)[0]
        if head in self.local_defs and "." not in dotted:
            return self.local_defs[dotted], True
        if head in self.local_types:
            rest = dotted[len(head) :].lstrip(".")
            base = self.local_types[head]
            full = f"{base}.{rest}" if rest else base
            return full, self.graph.is_internal(base)
        resolved = self.graph.resolve_in_module(self.info, dotted)
        if resolved is None:
            return None, False
        return resolved, self.graph.is_internal(resolved)

    def _callable_target(self, resolved: str) -> "str | None":
        """The function fq a resolved internal callee actually enters."""
        if self.graph.function_at(resolved) is not None:
            self._note_reference(resolved)
            return resolved
        cls = self.graph.classes.get(resolved)
        if cls is not None:
            self._note_reference(resolved)
            init = f"{resolved}.__init__"
            return init if self.graph.function_at(init) is not None else resolved
        if self.graph.is_internal(resolved):
            self._note_reference(resolved)
        return None

    def _edge(self, target: str) -> None:
        self.graph.edges.setdefault(self.fn.qualname, []).append(target)

    def _note_reference(self, fq: str) -> None:
        self.graph.references.setdefault(fq, set()).add(self.info.name)

    # -------------------------------------------------------- threads / pool
    def _record_thread_target(self, node: ast.Call, resolved: "str | None") -> None:
        if resolved != "threading.Thread":
            return
        for kw in node.keywords:
            if kw.arg != "target":
                continue
            target_fq = self._function_ref(kw.value)
            if target_fq is not None and target_fq not in self.graph.thread_roots:
                self.graph.thread_roots.append(target_fq)

    def _record_dispatch(self, node: ast.Call, resolved: "str | None") -> None:
        if resolved not in POOL_DISPATCHERS or not node.args:
            return
        fn_arg = node.args[0]
        # The argument crosses the process boundary: suppress the edge its
        # Name/Attribute visit would add, or the thread closure would
        # swallow worker-only code. ARCH001 still sees the reference.
        self._process_args.add(id(fn_arg))
        fn_fq = self._function_ref(fn_arg)
        if fn_fq is not None:
            self._note_reference(fn_fq)

    def _function_ref(self, expr: ast.expr) -> "str | None":
        """Resolve an expression used as a function value, if possible."""
        dotted = dotted_name(expr)
        if dotted is None:
            return None
        if dotted in self.local_defs:
            return self.local_defs[dotted]
        if dotted.startswith("self."):
            rest = dotted[len("self.") :]
            if self.cls is None or "." in rest:
                return None
            resolved: "str | None" = f"{self.cls.qualname}.{rest}"
        else:
            resolved = self.graph.resolve_in_module(self.info, dotted)
        if resolved is not None and self.graph.function_at(resolved) is not None:
            return resolved
        return None

    # -------------------------------------------------- names and references
    def visit_Name(self, node: ast.Name) -> None:
        if id(node) in self._process_args:
            return
        if isinstance(node.ctx, ast.Load) and id(node) not in self._func_exprs:
            if node.id in self.local_defs:
                self._edge(self.local_defs[node.id])
            else:
                resolved = self.graph.resolve_in_module(self.info, node.id)
                if resolved is not None and self.graph.is_internal(resolved):
                    if self.graph.function_at(resolved) is not None:
                        self._edge(resolved)
                    self._note_reference(resolved)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if id(node) in self._process_args:
            return
        dotted = dotted_name(node)
        if dotted is not None and isinstance(node.ctx, ast.Load):
            if id(node) not in self._func_exprs:
                if dotted.startswith("self."):
                    rest = dotted[len("self.") :]
                    if self.cls is not None and "." not in rest:
                        target = f"{self.cls.qualname}.{rest}"
                        if self.graph.function_at(target) is not None:
                            self._edge(target)
                else:
                    resolved = self.graph.resolve_in_module(self.info, dotted)
                    if resolved is not None and self.graph.is_internal(resolved):
                        if self.graph.function_at(resolved) is not None:
                            self._edge(resolved)
                        self._note_reference(resolved)
        # self.X accesses (reads); writes arrive via visit_Assign/AugAssign.
        if (
            isinstance(node.value, ast.Name)
            and node.value.id == "self"
            and isinstance(node.ctx, ast.Load)
        ):
            self._access(node.attr, "read", node)
        self.generic_visit(node)

    # ------------------------------------------------------------- mutations
    def visit_Assign(self, node: ast.Assign) -> None:
        if isinstance(node.value, ast.Call):
            callee = dotted_name(node.value.func)
            if callee is not None:
                resolved = self.graph.resolve_in_module(self.info, callee)
                if resolved is not None:
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            self.local_types.setdefault(target.id, resolved)
        for target in node.targets:
            self._store(target)
        self.visit(node.value)
        for target in node.targets:
            self.generic_visit(target)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        target = node.target
        if self._is_self_attr(target):
            self._access(target.attr, "mutate", node)  # type: ignore[union-attr]
        elif isinstance(target, ast.Subscript) and self._is_self_attr(target.value):
            self._access(target.value.attr, "mutate", node)  # type: ignore[union-attr]
        elif (
            isinstance(target, ast.Name)
            and target.id in self.global_decls
            and target.id in self.info.module_globals
        ):
            # Augmenting a bare name only reaches the module global under a
            # ``global`` declaration; otherwise it is a local.
            self._global_mutation(target.id, node)
        elif (
            isinstance(target, ast.Subscript)
            and isinstance(target.value, ast.Name)
            and self._names_global(target.value.id)
        ):
            self._global_mutation(target.value.id, node)
        self.visit(node.value)

    def visit_Delete(self, node: ast.Delete) -> None:
        for target in node.targets:
            if isinstance(target, ast.Subscript):
                if self._is_self_attr(target.value):
                    self._access(target.value.attr, "mutate", node)  # type: ignore[union-attr]
                elif isinstance(target.value, ast.Name) and self._names_global(
                    target.value.id
                ):
                    self._global_mutation(target.value.id, node)
        self.generic_visit(node)

    def _store(self, target: ast.expr) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._store(element)
            return
        if self._is_self_attr(target):
            kind = "rebind"
            self._access(target.attr, kind, target)  # type: ignore[union-attr]
        elif isinstance(target, ast.Subscript):
            if self._is_self_attr(target.value):
                self._access(target.value.attr, "mutate", target)  # type: ignore[union-attr]
            elif isinstance(target.value, ast.Name) and self._names_global(
                target.value.id
            ):
                self._global_mutation(target.value.id, target)

    def _names_global(self, name: str) -> bool:
        """True when ``name`` denotes a mutable module global in this body."""
        if name not in self.info.mutable_globals:
            return False
        return name not in self.local_names or name in self.global_decls

    @staticmethod
    def _is_self_attr(node: ast.expr) -> bool:
        return (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        )

    def visit_Expr(self, node: ast.Expr) -> None:
        # Mutator method calls: self.X.append(...), GLOBAL.setdefault(...).
        value = node.value
        if isinstance(value, ast.Call) and isinstance(value.func, ast.Attribute):
            if value.func.attr in MUTATOR_METHODS:
                receiver = value.func.value
                if self._is_self_attr(receiver):
                    self._access(receiver.attr, "mutate", node)  # type: ignore[union-attr]
                elif isinstance(receiver, ast.Name) and self._names_global(
                    receiver.id
                ):
                    self._global_mutation(receiver.id, node)
        self.generic_visit(node)

    def _access(self, attr: str, kind: str, node: ast.AST) -> None:
        if self.cls is None or self.module_level:
            return
        method = self.fn.qualname.rsplit(".", 1)[-1]
        self.cls.accesses.append(
            AttrAccess(
                attr=attr,
                method=method,
                kind=kind,
                node=node,
                locks=frozenset(self.held),
                in_init=method == "__init__",
            )
        )

    def _global_mutation(self, name: str, node: ast.AST) -> None:
        if self.module_level:
            return  # import-time initialization is single-threaded
        self.graph.global_mutations.append(
            GlobalMutation(
                name=f"{self.info.name}.{name}",
                function=self.fn.qualname,
                node=node,
                locks=frozenset(h for h in self.held if h in self.info.lock_globals),
            )
        )
