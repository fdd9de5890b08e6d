"""Graph construction: names, imports, call edges, threads, dispatch.

These tests drive :func:`repro.lint.program.build_program` directly over
in-memory sources, pinning the resolution semantics the program rules
stand on (the rules themselves are tested in the sibling modules).
"""

from __future__ import annotations

import ast

import pytest

from repro.lint.program import SourceModule, build_program, module_name


def graph_of(sources):
    return build_program(
        SourceModule(rel, ast.parse(text)) for rel, text in sorted(sources.items())
    )


class TestModuleNames:
    @pytest.mark.parametrize(
        "relpath, expected",
        [
            ("src/repro/obs/sink.py", "repro.obs.sink"),
            ("src/repro/parallel/__init__.py", "repro.parallel"),
            ("src/repro/__init__.py", "repro"),
            ("tests/lint/test_x.py", "tests.lint.test_x"),
            ("app.py", "app"),
        ],
    )
    def test_src_layout_and_packages(self, relpath, expected):
        assert module_name(relpath) == expected


class TestImportResolution:
    def test_init_reexport_resolves_to_defining_module(self):
        graph = graph_of(
            {
                "src/repro/api/__init__.py": "from repro.api.core import fit\n",
                "src/repro/api/core.py": "def fit():\n    return 1\n",
            }
        )
        assert graph.resolve_absolute("repro.api.fit") == "repro.api.core.fit"

    def test_reexport_chain_through_two_inits(self):
        graph = graph_of(
            {
                "src/repro/__init__.py": "from repro.api import fit\n",
                "src/repro/api/__init__.py": "from repro.api.core import fit\n",
                "src/repro/api/core.py": "def fit():\n    return 1\n",
            }
        )
        assert graph.resolve_absolute("repro.fit") == "repro.api.core.fit"

    def test_relative_import_one_dot(self):
        graph = graph_of(
            {
                "src/repro/pkg/__init__.py": "",
                "src/repro/pkg/mod.py": "from .impl import thing\n",
                "src/repro/pkg/impl.py": "def thing():\n    return 1\n",
            }
        )
        mod = graph.modules["repro.pkg.mod"]
        assert mod.aliases["thing"] == "repro.pkg.impl.thing"

    def test_relative_import_two_dots(self):
        graph = graph_of(
            {
                "src/repro/pkg/sub/mod.py": "from ..impl import thing\n",
                "src/repro/pkg/impl.py": "def thing():\n    return 1\n",
            }
        )
        mod = graph.modules["repro.pkg.sub.mod"]
        assert mod.aliases["thing"] == "repro.pkg.impl.thing"

    def test_importing_a_symbol_records_a_reference(self):
        graph = graph_of(
            {
                "src/repro/lib.py": "def used():\n    return 1\n",
                "tests/test_use.py": "from repro.lib import used\n",
            }
        )
        assert "tests.test_use" in graph.references["repro.lib.used"]


SERVICE = '''\
class Store:
    def save(self, item):
        return item


class Service:
    def __init__(self):
        self._store = Store()

    def handle(self, item):
        self.validate(item)
        return self._store.save(item)

    def validate(self, item):
        return item
'''


class TestCallEdges:
    def test_self_method_and_typed_attribute_receiver(self):
        graph = graph_of({"m.py": SERVICE})
        targets = graph.edges["m.Service.handle"]
        assert "m.Service.validate" in targets
        assert "m.Store.save" in targets

    def test_function_used_as_value_is_a_ref_edge(self):
        graph = graph_of(
            {"m.py": "def f():\n    return 1\n\n\ndef g():\n    return f\n"}
        )
        assert graph.edges["m.g"] == ["m.f"]

    def test_method_lookup_follows_project_bases(self):
        graph = graph_of(
            {
                "m.py": (
                    "class Base:\n"
                    "    def helper(self):\n"
                    "        return 1\n"
                    "\n"
                    "\n"
                    "class Child(Base):\n"
                    "    def run(self):\n"
                    "        return self.helper()\n"
                )
            }
        )
        found = graph.function_at("m.Child.helper")
        assert found is not None and found.qualname == "m.Base.helper"
        assert "m.Child.helper" in graph.edges["m.Child.run"]


THREADED = '''\
import threading

from repro.parallel.engine import run_tasks


def start():
    threading.Thread(target=_loop).start()


def _loop():
    run_tasks(_worker, [1])


def _worker(task):
    return task
'''


class TestThreadsAndDispatch:
    def test_thread_target_becomes_root(self):
        graph = graph_of({"m.py": THREADED})
        assert set(graph.thread_roots) == {"m._loop"}

    def test_process_edges_excluded_from_thread_closure(self):
        graph = graph_of({"m.py": THREADED})
        thread_closure = graph.reachable_from(graph.thread_roots)
        assert "m._worker" not in thread_closure
        # The dispatched function gets no edge, but is still referenced.
        assert "m._worker" not in graph.edges.get("m._loop", [])
        assert "m" in graph.references["m._worker"]

    def test_dispatch_argument_classification(self):
        graph = graph_of(
            {
                "app.py": (
                    "from repro.parallel.engine import EngineSession, run_tasks\n"
                    "\n"
                    "\n"
                    "def job(x):\n"
                    "    return x\n"
                    "\n"
                    "\n"
                    "def go(tasks, fn):\n"
                    "    run_tasks(job, tasks)\n"
                    "    run_tasks(lambda x: x, tasks)\n"
                    "    run_tasks(fn, tasks)\n"
                    "\n"
                    "    def inner(x):\n"
                    "        return x\n"
                    "\n"
                    "    run_tasks(inner, tasks)\n"
                    "\n"
                    "\n"
                    "class R:\n"
                    "    def __init__(self):\n"
                    "        self._s = EngineSession()\n"
                    "\n"
                    "    def work(self, tasks):\n"
                    "        return self._s.run(self._bump, tasks)\n"
                    "\n"
                    "    def _bump(self, x):\n"
                    "        return x\n"
                )
            }
        )
        # Each resolvable function argument is referenced (for ARCH001)
        # but gets no edge; the lambda and the forwarded parameter resolve
        # to nothing. ``inner`` keeps the edge its definition adds.
        assert set(graph.references) == {
            "app.job",
            "app.go.<locals>.inner",
            "app.R._bump",
        }
        assert "app.job" not in graph.edges["app.go"]
        assert graph.edges["app.go"].count("app.go.<locals>.inner") == 1
        assert "app.R._bump" not in graph.edges.get("app.R.work", [])
