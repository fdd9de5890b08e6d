"""Per-rule contract: fires on the violating fixture, silent on the clean
and suppressed ones, and honours its path scoping."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.lint import LintConfig, lint_sources
from tests.lint.conftest import LIBRARY_PATH


def lint_one(source, relpath, config=None):
    return lint_sources({relpath: source}, config or LintConfig()).violations


def rules_fired(source, relpath="src/repro/fake/module.py", config=None):
    return [v.rule for v in lint_one(source, relpath, config)]


def lint_fixture(read, name, relpath=None, config=None):
    return rules_fired(read(name), relpath or LIBRARY_PATH.format(name=name), config)


class TestRNG001:
    def test_fires_on_violation(self, fixture_source):
        fired = lint_fixture(fixture_source, "rng_violation.py")
        # default_rng literal, np.random.seed, np.random.rand, random.random
        assert fired.count("RNG001") == 4

    def test_silent_on_clean(self, fixture_source):
        assert lint_fixture(fixture_source, "rng_clean.py") == []

    def test_silent_when_suppressed(self, fixture_source):
        assert lint_fixture(fixture_source, "rng_suppressed.py") == []

    def test_default_rng_allowed_outside_library(self, fixture_source):
        # Tests/examples ARE the seed-controlling callers: building a
        # generator is fine there, global-state randomness is not.
        fired = lint_fixture(
            fixture_source, "rng_violation.py", relpath="tests/fake/test_x.py"
        )
        assert fired.count("RNG001") == 3  # seed, rand, random.random
        # ...but a zero-argument default_rng() is seeded from OS entropy,
        # not by the caller, so it fires everywhere.
        source = (
            "import numpy as np\n"
            "a = np.random.default_rng(3)\n"
            "b = np.random.default_rng(seed=3)\n"
            "c = np.random.default_rng()\n"
        )
        violations = lint_one(source, "tests/fake/test_x.py")
        assert [(v.rule, v.line) for v in violations] == [("RNG001", 4)]
        assert "OS entropy" in violations[0].message

    def test_only_zero_arg_default_rng_is_a_sink(self):
        # Outside the library, a generator built from a caller's seed is
        # fine even when the seed arrives through a helper's parameter.
        source = (
            "import numpy as np\n\n\n"
            "def fit(values, rng):\n"
            "    make_unseeded()\n"
            "    make_seeded(3)\n"
            "    return values\n\n\n"
            "def make_unseeded():\n"
            "    return np.random.default_rng()\n\n\n"
            "def make_seeded(seed):\n"
            "    return np.random.default_rng(seed)\n"
        )
        config = LintConfig(select=("RNG001",))
        violations = lint_one(source, "examples/gen.py", config)
        assert [(v.rule, v.path, v.line) for v in violations] == [
            ("RNG001", "examples/gen.py", 11)
        ]
        assert "default_rng" in violations[0].message

    def test_seeding_module_is_exempt(self, fixture_source):
        fired = lint_fixture(
            fixture_source, "rng_violation.py", relpath="src/repro/util/seeding.py"
        )
        assert fired == []

    def test_random_attribute_without_import_is_ignored(self):
        # ``random`` here is a local object, not the stdlib module.
        source = "def f(rng):\n    return rng.random.random()\n"
        assert rules_fired(source) == []

    def test_from_numpy_random_import_fires(self):
        source = "from numpy.random import default_rng\n"
        assert rules_fired(source) == ["RNG001"]

    @pytest.mark.parametrize(
        "source",
        [
            "import numpy.random as npr\nnpr.normal()\n",
            "from numpy import random as npr\nnpr.normal()\n",
        ],
    )
    def test_aliased_numpy_random_import_fires(self, source):
        violations = lint_one(source, "src/repro/m.py")
        assert [(v.rule, v.line) for v in violations] == [("RNG001", 1)]
        assert "direct numpy.random import" in violations[0].message

    def test_aliased_stdlib_random_fires(self):
        source = "import random as r\n\n\ndef draw():\n    return r.random()\n"
        violations = lint_one(source, "src/repro/m.py")
        assert [(v.rule, v.line) for v in violations] == [("RNG001", 5)]
        assert "stdlib r.random(...)" in violations[0].message

    def test_aliased_stdlib_random_name_clean(self):
        # ``r`` names the module only where it is imported as such.
        source = "import secrets as r\n\n\ndef draw():\n    return r.token_hex()\n"
        assert rules_fired(source) == []

    @pytest.mark.parametrize(
        "bit_generator", ["MT19937", "PCG64", "PCG64DXSM", "Philox", "SFC64"]
    )
    def test_explicit_bit_generator_is_not_global_state(self, bit_generator):
        source = (
            "import numpy as np\n\n\n"
            "def make(seed):\n"
            f"    return np.random.Generator(np.random.{bit_generator}(seed))\n"
        )
        assert rules_fired(source) == []
        # Global-state draws beside it still fire.
        drawn = source + "\n\nnp.random.seed(0)\nnp.random.rand(3)\n"
        assert rules_fired(drawn) == ["RNG001", "RNG001"]


class TestEXC001:
    def test_fires_on_violation(self, fixture_source):
        fired = lint_fixture(fixture_source, "exc_violation.py")
        assert fired.count("EXC001") == 2  # except Exception + bare except

    def test_silent_on_clean(self, fixture_source):
        assert lint_fixture(fixture_source, "exc_clean.py") == []

    def test_silent_when_suppressed(self, fixture_source):
        assert lint_fixture(fixture_source, "exc_suppressed.py") == []

    def test_applies_outside_library_too(self, fixture_source):
        fired = lint_fixture(
            fixture_source, "exc_violation.py", relpath="examples/fake.py"
        )
        assert fired.count("EXC001") == 2

    def test_logging_method_counts_as_surfacing(self):
        source = (
            "def f(fn, logger):\n"
            "    try:\n"
            "        fn()\n"
            "    except Exception:\n"
            "        logger.warning('failed')\n"
        )
        assert rules_fired(source) == []

    def test_tuple_with_broad_member_fires(self):
        source = (
            "def f(fn):\n"
            "    try:\n"
            "        fn()\n"
            "    except (ValueError, Exception):\n"
            "        pass\n"
        )
        assert rules_fired(source) == ["EXC001"]


class TestLiveViolationRegressions:
    """Re-introducing either historical violation must fail the lint gate."""

    def test_estimation_hardcoded_rng_would_fire(self):
        source = (
            "import numpy as np\n"
            "def repetition_bias_factor(repetitions):\n"
            "    gen = np.random.default_rng(0xB1A5)\n"
            "    return gen\n"
        )
        fired = rules_fired(source, relpath="src/repro/noise/estimation.py")
        assert fired == ["RNG001"]

    def test_modeler_swallowed_encode_failure_would_fire(self):
        source = (
            "def classify_batch(self, kernels, n_params):\n"
            "    encoded = []\n"
            "    for kernel in kernels:\n"
            "        try:\n"
            "            encoded.append(self.encode_kernel(kernel, n_params))\n"
            "        except Exception:\n"
            "            encoded.append(None)\n"
            "    return encoded\n"
        )
        fired = rules_fired(source, relpath="src/repro/dnn/modeler.py")
        assert fired == ["EXC001"]


class TestParseErrors:
    def test_syntax_error_reported_not_raised(self):
        violations = lint_one("def broken(:\n", "src/repro/x.py")
        assert [v.rule for v in violations] == ["PARSE"]
        assert violations[0].line == 1


class TestSelection:
    def test_select_restricts(self, fixture_source):
        config = replace(LintConfig(), select=("EXC001",))
        fired = lint_fixture(fixture_source, "rng_violation.py", config=config)
        assert fired == []

    def test_ignore_drops(self, fixture_source):
        config = replace(LintConfig(), ignore=("RNG001",))
        fired = lint_fixture(fixture_source, "rng_violation.py", config=config)
        assert fired == []
