"""CONC001: state shared with a thread is mutated under a lock."""

from __future__ import annotations

from repro.lint import LintConfig, lint_sources

CONC_CONFIG = LintConfig(select=("CONC001",))

GLOBAL_BAD = '''\
import threading

_CACHE = {}


def start():
    threading.Thread(target=_loop).start()


def _loop():
    _CACHE["n"] = _CACHE.get("n", 0) + 1
'''

GLOBAL_GOOD = '''\
import threading

_CACHE = {}
_LOCK = threading.Lock()


def start():
    threading.Thread(target=_loop).start()


def _loop():
    with _LOCK:
        _CACHE["n"] = _CACHE.get("n", 0) + 1
'''

CONVENTION_BAD = '''\
import threading


class Buffer:
    def __init__(self):
        self._items = []
        self._items_lock = threading.Lock()

    def push(self, item):
        self._items.append(item)
'''


class TestSharedAttributes:
    def test_unlocked_mutation_of_thread_shared_attr_fires(self, run_case):
        result = run_case("conc_shared", ("CONC001",))
        assert [v.path for v in result.violations] == ["bad.py"]
        violation = result.violations[0]
        assert violation.rule == "CONC001"
        assert violation.kind == "program"
        assert violation.line == 20  # the unlocked `self._stats[key] = 1`
        assert "without holding a lock" in violation.message
        assert "_loop" in violation.message  # names the thread-side method

    def test_locked_project_is_silent(self, run_case):
        # good.py in the same fixture exercises the exemptions: locked
        # mutations, plain rebinds, queue attrs, __init__ writes.
        result = run_case("conc_shared", ("CONC001",))
        assert not any(v.path == "good.py" for v in result.violations)

    def test_dedicated_lock_convention_enforced_without_threads(self):
        result = lint_sources({"buf.py": CONVENTION_BAD}, CONC_CONFIG)
        assert len(result.violations) == 1
        assert "dedicated lock '_items_lock'" in result.violations[0].message


class TestModuleGlobals:
    def test_unlocked_global_mutation_from_thread_fires(self):
        result = lint_sources({"svc.py": GLOBAL_BAD}, CONC_CONFIG)
        assert len(result.violations) == 1
        violation = result.violations[0]
        assert "module global 'svc._CACHE'" in violation.message
        assert violation.provenance == ("svc._loop",)

    def test_module_lock_silences_it(self):
        result = lint_sources({"svc.py": GLOBAL_GOOD}, CONC_CONFIG)
        assert result.clean

    def test_mutation_outside_thread_closure_is_fine(self):
        # Same mutation, but nothing ever starts a thread.
        source = GLOBAL_BAD.replace("threading.Thread(target=_loop).start()", "pass")
        result = lint_sources({"svc.py": source}, CONC_CONFIG)
        assert result.clean
