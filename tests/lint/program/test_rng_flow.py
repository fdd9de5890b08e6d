"""Global-RNG sink shapes seen by a whole-program lint run.

RNG001 owns the sinks. Outside the library, where callers own their
seeds, only the zero-argument ``default_rng()`` (seeded from OS
entropy) is one; a generator built from a caller's seed is not.
"""

from __future__ import annotations

from repro.lint import LintConfig, lint_sources

RNG_CONFIG = LintConfig(select=("RNG001",), program=True)

DEFAULT_RNG = '''\
import numpy as np


def fit(values, rng):
    make_unseeded()
    make_seeded(3)
    return values


def make_unseeded():
    return np.random.default_rng()


def make_seeded(seed):
    return np.random.default_rng(seed)
'''


class TestEntryAndSinkShapes:
    def test_only_zero_arg_default_rng_is_a_sink(self):
        result = lint_sources({"examples/gen.py": DEFAULT_RNG}, RNG_CONFIG)
        assert len(result.violations) == 1
        violation = result.violations[0]
        assert violation.rule == "RNG001"
        assert "default_rng" in violation.message
        assert violation.path == "examples/gen.py"
        assert violation.line == 11
