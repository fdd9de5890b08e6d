"""String-spec modeler registry: ``create_modeler("dnn(top_k=5)")``.

One construction seam for every modeler. The CLI, the sweep driver, the
case-study driver, and the examples all build modelers from spec strings of
the form ``name`` or ``name(key=value, ...)``; the registry parses the
spec, validates the keywords against the factory's signature, and calls the
factory. New modelers plug in with :func:`register_modeler` -- as a plain
call or a decorator -- and immediately become valid ``--method`` values.

Values inside a spec are Python literals (``top_k=5``, ``thresholds={1:
0.2}``); bare words are strings (``aggregation=median``), with
``true``/``false``/``none`` mapping to the Python singletons. Keyword
overrides passed to :func:`create_modeler` directly (e.g. a shared
pretrained network object, which has no string form) win over the spec.
"""

from __future__ import annotations

import ast
import inspect
import re
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

#: name -> registered entry; populated lazily with the builtins on first use.
_REGISTRY: "dict[str, RegisteredModeler]" = {}
_BUILTINS_READY = False

_SPEC_RE = re.compile(r"^\s*([A-Za-z_][\w.-]*)\s*(?:\((.*)\))?\s*$", re.DOTALL)
_BARE_WORDS = {"true": True, "false": False, "none": None}


@dataclass(frozen=True)
class RegisteredModeler:
    """One registry entry: factory plus the metadata the CLI lists."""

    name: str
    factory: Callable[..., object]
    description: str = ""

    def signature(self) -> str:
        """The spec signature, e.g. ``dnn(top_k=3, aggregation='median')``."""
        parts = []
        for param in inspect.signature(self.factory).parameters.values():
            if param.kind in (param.VAR_POSITIONAL, param.VAR_KEYWORD):
                parts.append("...")
            elif param.default is inspect.Parameter.empty:
                parts.append(param.name)
            else:
                parts.append(f"{param.name}={param.default!r}")
        return f"{self.name}({', '.join(parts)})"


def register_modeler(
    name: str,
    factory: "Callable[..., object] | None" = None,
    *,
    description: str = "",
    replace: bool = False,
):
    """Register a modeler factory under ``name``.

    Usable directly (``register_modeler("gpr", make_gpr)``) or as a
    decorator (``@register_modeler("gpr")``). Re-registering an existing
    name requires ``replace=True``.
    """

    def _register(fn: Callable[..., object]) -> Callable[..., object]:
        if name in _REGISTRY and not replace:
            raise ValueError(f"modeler {name!r} is already registered")
        _REGISTRY[name] = RegisteredModeler(
            name=name, factory=fn, description=description or (fn.__doc__ or "").strip()
        )
        return fn

    if factory is not None:
        return _register(factory)
    return _register


def parse_spec(spec: str) -> "tuple[str, dict[str, object]]":
    """Split ``"name(key=value, ...)"`` into the name and keyword dict."""
    if not isinstance(spec, str):
        raise TypeError(f"modeler spec must be a string, got {type(spec).__name__}")
    match = _SPEC_RE.match(spec)
    if not match:
        raise ValueError(
            f"malformed modeler spec {spec!r}: expected 'name' or 'name(key=value, ...)'"
        )
    name, argstr = match.groups()
    kwargs: dict[str, object] = {}
    if argstr and argstr.strip():
        try:
            call = ast.parse(f"_spec({argstr})", mode="eval").body
        except SyntaxError as exc:
            raise ValueError(f"malformed modeler spec {spec!r}: {exc.msg}") from None
        if call.args or any(kw.arg is None for kw in call.keywords):
            raise ValueError(
                f"modeler spec {spec!r} takes keyword arguments only (key=value)"
            )
        for kw in call.keywords:
            kwargs[kw.arg] = _spec_value(kw.value, spec, keyword=kw.arg)
    return name, kwargs


#: Keywords whose value is itself a spec string for a sub-registry; only
#: these accept call syntax inside a modeler spec.
_NESTED_SPEC_KEYWORDS = frozenset({"prefilter"})


def _spec_value(node: ast.expr, spec: str, keyword: "str | None" = None) -> object:
    if isinstance(node, ast.Name):  # bare word: aggregation=median, engine=fast
        return _BARE_WORDS.get(node.id.lower(), node.id)
    if (
        keyword in _NESTED_SPEC_KEYWORDS
        and isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
    ):
        # Nested spec, e.g. prefilter=mad(k=3): handed down as a spec string
        # for the sub-registry (repro.modeling.prefilter) to resolve.
        return ast.unparse(node)
    try:
        return ast.literal_eval(node)
    except (ValueError, SyntaxError):
        raise ValueError(
            f"unsupported value {ast.unparse(node)!r} in modeler spec {spec!r}: "
            "use Python literals or bare words"
        ) from None


def available_modelers() -> "dict[str, RegisteredModeler]":
    """All registered modelers, by name, in sorted order."""
    _ensure_builtins()
    return {name: _REGISTRY[name] for name in sorted(_REGISTRY)}


def registered_modeler(name: str) -> RegisteredModeler:
    """The registry entry for ``name`` (raises on unknown names)."""
    _ensure_builtins()
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown modeler {name!r}: registered modelers are "
            f"{', '.join(sorted(_REGISTRY))}"
        ) from None


def validate_spec(spec: str, **overrides) -> "tuple[RegisteredModeler, dict[str, object]]":
    """Parse and resolve a spec *without* building the modeler.

    Performs the full validation :func:`create_modeler` applies -- spec
    grammar, registered name, keyword names against the factory signature
    -- and returns the registry entry plus the merged keyword dict. Raises
    :class:`ValueError` naming the valid alternatives.
    """
    _ensure_builtins()
    name, kwargs = parse_spec(spec)
    entry = _REGISTRY.get(name)
    if entry is None:
        raise ValueError(
            f"unknown modeler {name!r}: registered modelers are "
            f"{', '.join(sorted(_REGISTRY))}"
        )
    kwargs.update(overrides)
    parameters = inspect.signature(entry.factory).parameters
    if not any(p.kind is p.VAR_KEYWORD for p in parameters.values()):
        unknown = sorted(set(kwargs) - set(parameters))
        if unknown:
            raise ValueError(
                f"unknown keyword(s) {', '.join(unknown)} for modeler {name!r}: "
                f"accepted keywords are {', '.join(parameters) or '(none)'}"
            )
    if isinstance(kwargs.get("prefilter"), str):
        # Nested prefilter specs fail at lint/validate time, not mid-sweep.
        from repro.modeling.prefilter import validate_prefilter_spec

        validate_prefilter_spec(kwargs["prefilter"])
    return entry, kwargs


def create_modeler(spec: str, **overrides):
    """Build a modeler from a spec string, e.g. ``"adaptive(top_k=5)"``.

    ``overrides`` are merged over the spec's keywords -- the escape hatch
    for values without a string form (a shared pretrained network object, a
    pre-built sub-modeler). Unknown names and unknown keywords raise a
    :class:`ValueError` naming the valid alternatives.
    """
    entry, kwargs = validate_spec(spec, **overrides)
    return entry.factory(**kwargs)


def create_modelers(
    specs: "Sequence[str] | Mapping[str, object]",
) -> "dict[str, object]":
    """Resolve a batch of specs into a label -> modeler mapping.

    A sequence of spec strings labels each modeler by its spec; a mapping
    may mix spec-string values (resolved) with already-built modeler
    objects (passed through), which is what the drivers accept.

    Modelers built here from specs share work: an ``adaptive`` modeler
    whose regression half matches a sibling ``regression`` modeler
    (aggregation, engine and pre-filter) uses that sibling object, so a
    batch that memoizes jobs by pipeline identity runs the regression
    search once for both.
    """
    if isinstance(specs, Mapping):
        items = list(specs.items())
    else:
        items = [(spec.strip(), spec) for spec in specs]
    resolved: dict[str, object] = {}
    built: list[object] = []
    for label, value in items:
        if isinstance(value, str):
            value = create_modeler(value)
            built.append(value)
        resolved[label] = value
    if not resolved:
        raise ValueError("at least one modeler spec is required")
    _share_regressions(built)
    return resolved


def _share_regressions(built: "list[object]") -> None:
    from repro.adaptive.modeler import AdaptiveModeler
    from repro.regression.modeler import RegressionModeler

    def setting(modeler) -> tuple:
        pipeline = modeler.pipeline
        return (pipeline.aggregation, pipeline.engine, repr(pipeline.prefilter))

    siblings: dict[tuple, object] = {}
    for modeler in built:
        if type(modeler) is RegressionModeler:
            siblings.setdefault(setting(modeler), modeler)
    for modeler in built:
        if type(modeler) is AdaptiveModeler and type(modeler.regression) is RegressionModeler:
            modeler.regression = siblings.get(setting(modeler.regression), modeler.regression)


# ------------------------------------------------------------------ builtins
def _ensure_builtins() -> None:
    """Register the built-in modelers (lazily, to avoid import cycles)."""
    global _BUILTINS_READY
    if _BUILTINS_READY:
        return
    _BUILTINS_READY = True

    def regression(aggregation: str = "median", engine: str = "fast", prefilter=None):
        from repro.regression.modeler import RegressionModeler

        return RegressionModeler(
            aggregation=aggregation, engine=engine, prefilter=prefilter
        )

    def dnn(
        top_k: int = 3,
        use_domain_adaptation: bool = True,
        adaptation_epochs: "int | None" = None,
        adaptation_samples_per_class: "int | None" = None,
        aggregation: str = "median",
        engine: str = "fast",
        network=None,
        prefilter=None,
    ):
        from repro.dnn.modeler import DNNModeler

        kwargs = dict(
            network=network,
            top_k=top_k,
            use_domain_adaptation=use_domain_adaptation,
            aggregation=aggregation,
            engine=engine,
            prefilter=prefilter,
        )
        if adaptation_epochs is not None:
            kwargs["adaptation_epochs"] = adaptation_epochs
        if adaptation_samples_per_class is not None:
            kwargs["adaptation_samples_per_class"] = adaptation_samples_per_class
        return DNNModeler(**kwargs)

    def adaptive(
        top_k: int = 3,
        use_domain_adaptation: bool = True,
        adaptation_epochs: "int | None" = None,
        adaptation_samples_per_class: "int | None" = None,
        thresholds=None,
        aggregation: str = "median",
        engine: str = "fast",
        network=None,
        prefilter=None,
    ):
        from repro.adaptive.modeler import AdaptiveModeler

        return AdaptiveModeler(
            regression=regression(
                aggregation=aggregation, engine=engine, prefilter=prefilter
            ),
            dnn=dnn(
                top_k=top_k,
                use_domain_adaptation=use_domain_adaptation,
                adaptation_epochs=adaptation_epochs,
                adaptation_samples_per_class=adaptation_samples_per_class,
                aggregation=aggregation,
                engine=engine,
                network=network,
                prefilter=prefilter,
            ),
            thresholds=thresholds,
        )

    def gpr(aggregation: str = "median", n_restarts: int = 4, rng=None, prefilter=None):
        from repro.baselines.gpr import GPRModeler

        return GPRModeler(
            aggregation=aggregation, n_restarts=n_restarts, rng=rng, prefilter=prefilter
        )

    def fused(
        top_k: int = 3,
        thresholds=None,
        aggregation: str = "median",
        engine: str = "fast",
        network=None,
        prefilter=None,
    ):
        from repro.modeling.candidates import (
            AdaptiveGenerator,
            DNNTopKGenerator,
            FullSearchGenerator,
        )
        from repro.modeling.pipeline import PipelineModeler

        generator = AdaptiveGenerator(
            full=FullSearchGenerator(aggregation=aggregation),
            dnn=DNNTopKGenerator(
                dnn(
                    top_k=top_k,
                    use_domain_adaptation=False,
                    aggregation=aggregation,
                    engine=engine,
                    network=network,
                )
            ),
            thresholds=thresholds,
        )
        return PipelineModeler(
            generator,
            method_name="fused",
            aggregation=aggregation,
            engine=engine,
            prefilter=prefilter,
        )

    register_modeler(
        "regression",
        regression,
        description="Extra-P exhaustive PMNF search (paper Sec. II baseline)",
    )
    register_modeler(
        "dnn",
        dnn,
        description="DNN exponent classification with domain adaptation (Sec. IV-D/E)",
    )
    register_modeler(
        "adaptive",
        adaptive,
        description="noise-routed adaptive modeler, the paper's contribution (Fig. 1)",
    )
    register_modeler(
        "gpr",
        gpr,
        description="Gaussian-process baseline (related work; predictions only)",
    )
    register_modeler(
        "fused",
        fused,
        description="candidate-level noise switching in one fit/select pass",
    )
