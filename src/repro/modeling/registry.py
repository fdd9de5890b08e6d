"""String-spec modeler registry: ``create_modeler("dnn(top_k=5)")``.

One construction seam for every modeler. The CLI, the sweep driver, the
case-study driver, and the examples all build modelers from spec strings
in the grammar of :mod:`repro.util.spec`; ``prefilter`` takes a nested
pre-filter spec (``regression(prefilter=mad(k=3))``). New modelers plug in
with :func:`register_modeler` -- as a plain call or a decorator -- and
immediately become valid ``--method`` values. Keyword overrides passed to
:func:`create_modeler` directly (e.g. a shared pretrained network object,
which has no string form) win over the spec.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.modeling.prefilter import PREFILTERS
from repro.util.spec import SpecRegistry

MODELERS = SpecRegistry("modeler")
MODELERS.nested["prefilter"] = PREFILTERS

register_modeler = MODELERS.register
available_modelers = MODELERS.available
registered_modeler = MODELERS.entry
validate_spec = MODELERS.validate
create_modeler = MODELERS.create


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
# Each factory imports its modeler on call, which keeps this module free of
# import cycles with the modeler packages.
@register_modeler(
    "regression", description="Extra-P exhaustive PMNF search (paper Sec. II baseline)"
)
def _regression(aggregation: str = "median", engine: str = "fast", prefilter=None):
    from repro.regression.modeler import RegressionModeler

    return RegressionModeler(aggregation=aggregation, engine=engine, prefilter=prefilter)


@register_modeler(
    "dnn", description="DNN exponent classification with domain adaptation (Sec. IV-D/E)"
)
def _dnn(
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


@register_modeler(
    "adaptive",
    description="noise-routed adaptive modeler, the paper's contribution (Fig. 1)",
)
def _adaptive(
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
        regression=_regression(aggregation=aggregation, engine=engine, prefilter=prefilter),
        dnn=_dnn(
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


@register_modeler(
    "gpr", description="Gaussian-process baseline (related work; predictions only)"
)
def _gpr(aggregation: str = "median", n_restarts: int = 4, rng=None, prefilter=None):
    from repro.baselines.gpr import GPRModeler

    return GPRModeler(
        aggregation=aggregation, n_restarts=n_restarts, rng=rng, prefilter=prefilter
    )


@register_modeler("fused", description="candidate-level noise switching in one fit/select pass")
def _fused(
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
            _dnn(
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
