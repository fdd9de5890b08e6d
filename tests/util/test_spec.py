"""The spec grammar, checked once over the modeler, noise and prefilter
registries, and the registry type's own contract."""

from dataclasses import dataclass

import pytest

from repro.modeling.prefilter import PREFILTERS
from repro.modeling.registry import MODELERS
from repro.noise.registry import NOISE
from repro.util.spec import SpecRegistry

REGISTRIES = {"modeler": MODELERS, "noise": NOISE, "prefilter": PREFILTERS}


@dataclass(frozen=True)
class Refused:
    error: type
    #: Regex the message must match; ``{kind}`` is the registry's kind.
    match: str


KEYWORDS_ONLY = Refused(ValueError, "{kind} spec '[^']*' takes keyword arguments only")
MALFORMED = Refused(ValueError, "malformed {kind} spec")
NOT_A_STRING = Refused(TypeError, "{kind} spec must be a string")

#: (behaviour, registry, spec, parsed keywords or the refusal).
GRAMMAR = [
    ("bare_name", "modeler", "regression", {}),
    ("bare_name", "noise", "uniform", {}),
    ("bare_name", "prefilter", "mad", {}),
    ("literals", "modeler", "dnn(top_k=5, aggregation='mean')", {"top_k": 5, "aggregation": "mean"}),
    ("container_literals", "modeler", "adaptive(thresholds={1: 0.2, 2: 0.3})", {"thresholds": {1: 0.2, 2: 0.3}}),
    ("literals", "noise", "heteroscedastic(lo=0.1, hi=0.5, mode=index)", {"lo": 0.1, "hi": 0.5, "mode": "index"}),
    ("literals", "prefilter", "trimmed(proportion=0.2)", {"proportion": 0.2}),
    (
        "bare_words",
        "modeler",
        "adaptive(aggregation=median, use_domain_adaptation=false, thresholds=none)",
        {"aggregation": "median", "use_domain_adaptation": False, "thresholds": None},
    ),
    ("bare_words", "noise", "tainted(level=0.05, slowdown_only=false)", {"level": 0.05, "slowdown_only": False}),
    ("bare_words", "prefilter", "mad(k=NONE)", {"k": None}),
    ("nested_spec", "modeler", "regression(prefilter=mad(k=3))", {"prefilter": "mad(k=3)"}),
    ("nested_spec", "noise", "systematic(inner=gamma(shape=2.0), scale=0.1)", {"inner": "gamma(shape=2.0)", "scale": 0.1}),
    ("positional_refused", "modeler", "dnn(5)", KEYWORDS_ONLY),
    ("positional_refused", "noise", "uniform(0.2)", KEYWORDS_ONLY),
    ("positional_refused", "prefilter", "mad(3)", KEYWORDS_ONLY),
    ("malformed_refused", "modeler", "dnn(top_k=", MALFORMED),
    ("empty_refused", "modeler", "", MALFORMED),
    ("malformed_refused", "noise", "uniform(level=0.2", MALFORMED),
    ("malformed_refused", "prefilter", "mad(k=", MALFORMED),
    ("expression_refused", "modeler", "dnn(top_k=__import__('os'))", Refused(ValueError, "unsupported value .* in {kind} spec")),
    # A nested call is a value only for a keyword naming a sub-registry.
    ("nested_call_refused", "prefilter", "mad(k=median(k=1))", Refused(ValueError, "unsupported value .* in {kind} spec")),
    ("non_string_refused", "modeler", 42, NOT_A_STRING),
    ("non_string_refused", "noise", 0.2, NOT_A_STRING),
    ("non_string_refused", "prefilter", 3, NOT_A_STRING),
    (
        "unknown_keyword",
        "modeler",
        "regression(frobnicate=1)",
        Refused(ValueError, "unknown keyword\\(s\\) frobnicate for {kind} 'regression': accepted keywords are aggregation, engine, prefilter$"),
    ),
    (
        "unknown_keyword",
        "noise",
        "uniform(amplitude=0.2)",
        Refused(ValueError, "unknown keyword\\(s\\) amplitude for {kind} 'uniform': accepted keywords are level$"),
    ),
    (
        "unknown_keyword",
        "prefilter",
        "mad(sigma=3)",
        Refused(ValueError, "unknown keyword\\(s\\) sigma for {kind} 'mad': accepted keywords are k$"),
    ),
]


@pytest.mark.parametrize(
    "registry, spec, outcome",
    [case[1:] for case in GRAMMAR],
    ids=[f"{registry}-{behaviour}" for behaviour, registry, _, _ in GRAMMAR],
)
def test_grammar(registry, spec, outcome):
    registry = REGISTRIES[registry]
    if isinstance(outcome, Refused):
        with pytest.raises(outcome.error, match=outcome.match.format(kind=registry.kind)):
            registry.validate(spec)
        return
    name, parsed = registry.parse(spec)
    assert spec.startswith(name)
    assert parsed == outcome
    # bool/None singletons, not the equal ints or strings
    assert [type(v) for v in parsed.values()] == [type(v) for v in outcome.values()]
    entry, kwargs = registry.validate(spec)
    assert entry.name == name and kwargs == outcome


class TestSpecRegistry:
    def test_var_keyword_factory_takes_any_keyword(self):
        widgets = SpecRegistry("widget")
        widgets.register("box", lambda size=1, **options: (size, options))
        assert widgets.entry("box").signature() == "box(size=1, ...)"
        assert widgets.create("box(size=2, colour=red)") == (2, {"colour": "red"})

    def test_factory_must_return_the_built_type(self):
        widgets = SpecRegistry("widget", builds=int)
        widgets.register("text", lambda: "seven")
        with pytest.raises(TypeError, match="widget factory 'text' returned str, expected a int"):
            widgets.create("text")
        assert widgets.create(7) == 7  # built instances pass through
