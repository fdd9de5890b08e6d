"""The unified modeling-pipeline core shared by every modeler.

- :mod:`repro.modeling.engine` -- the names of the ``fast``/``reference``
  fitting engines.
- :mod:`repro.modeling.pipeline` -- :class:`ModelingPipeline` (aggregate →
  generate → fit → select), :class:`ModelResult` with :class:`Provenance`,
  and the :class:`Modeler` base.
- :mod:`repro.modeling.candidates` -- the :class:`CandidateGenerator`
  implementations (full search, DNN top-k, adaptive switching).
- :mod:`repro.modeling.registry` -- the string-spec modeler registry
  (``create_modeler("dnn(top_k=5)")``).
"""

from repro.modeling.candidates import (
    AdaptiveGenerator,
    DNNTopKGenerator,
    FullSearchGenerator,
)
from repro.modeling.engine import FIT_ENGINES, resolve_fit_engine
from repro.modeling.pipeline import (
    Modeler,
    ModelingPipeline,
    ModelResult,
    PipelineModeler,
    Provenance,
)
from repro.modeling.prefilter import (
    MADOutlierRejection,
    MedianOfRepetitions,
    PrefilterReport,
    RobustAggregator,
    TrimmedMean,
    apply_prefilter,
    available_prefilters,
    create_prefilter,
    validate_prefilter_spec,
)
from repro.modeling.registry import (
    available_modelers,
    create_modeler,
    create_modelers,
    parse_spec,
    register_modeler,
    registered_modeler,
)

__all__ = [
    "AdaptiveGenerator",
    "DNNTopKGenerator",
    "FIT_ENGINES",
    "FullSearchGenerator",
    "MADOutlierRejection",
    "MedianOfRepetitions",
    "Modeler",
    "ModelResult",
    "ModelingPipeline",
    "PipelineModeler",
    "PrefilterReport",
    "Provenance",
    "RobustAggregator",
    "TrimmedMean",
    "apply_prefilter",
    "available_prefilters",
    "create_prefilter",
    "validate_prefilter_spec",
    "available_modelers",
    "create_modeler",
    "create_modelers",
    "parse_spec",
    "register_modeler",
    "registered_modeler",
    "resolve_fit_engine",
]
