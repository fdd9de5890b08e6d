"""Noise-resilient empirical performance modeling with deep neural networks.

Reproduction of Ritter et al., "Noise-Resilient Empirical Performance
Modeling with Deep Neural Networks" (IPDPS 2021).

The package implements the full adaptive-modeling pipeline of the paper:

- :mod:`repro.pmnf` -- the performance model normal form (PMNF) and the
  43-class exponent search space (Eqs. 1-2).
- :mod:`repro.experiment` -- the measurement data model (parameters,
  coordinates, repeated measurements) and on-disk formats.
- :mod:`repro.noise` -- noise injection and the range-of-relative-deviation
  noise estimator (Eqs. 3-4).
- :mod:`repro.regression` -- the Extra-P style regression modeler
  (hypothesis search, least-squares fit, cross-validation with SMAPE).
- :mod:`repro.nn` -- a from-scratch NumPy deep-learning framework (dense
  layers, tanh/softmax, AdaMax) standing in for PyTorch.
- :mod:`repro.preprocessing` -- the 11-slot network input encoding.
- :mod:`repro.dnn` -- the DNN performance modeler with pretraining and
  per-task domain adaptation.
- :mod:`repro.adaptive` -- the noise-routed adaptive modeler (Fig. 1).
- :mod:`repro.evaluation` -- the synthetic evaluation harness reproducing
  Fig. 3 (model accuracy and predictive power).
- :mod:`repro.casestudies` -- simulated Kripke / FASTEST / RELeARN
  applications reproducing Figs. 4-6.

All modelers share one construction seam, the registry of
:mod:`repro.modeling`: ``create_modeler("adaptive(top_k=5)")`` builds any
registered modeler from a spec string, and every modeler runs the shared
:class:`~repro.modeling.pipeline.ModelingPipeline` (aggregate -> generate
candidates -> fit -> select).

Quickstart::

    import numpy as np
    from repro import Experiment, create_modeler

    exp = Experiment.single_parameter(
        "p", [4, 8, 16, 32, 64], values=[[t] for t in (9.8, 20.1, 39.7, 80.2, 160.4)]
    )
    model = create_modeler("adaptive").model_kernel(exp.only_kernel(), rng=0)
    print(model.function)           # human-readable PMNF expression
    print(model.function.evaluate(np.array([128.0])))
"""

from repro.adaptive.modeler import AdaptiveModeler
from repro.dnn.modeler import DNNModeler
from repro.experiment.experiment import Experiment
from repro.experiment.measurement import Coordinate, Measurement
from repro.modeling.pipeline import ModelResult
from repro.modeling.registry import (
    available_modelers,
    create_modeler,
    create_modelers,
    register_modeler,
)
from repro.pmnf.function import PerformanceFunction
from repro.regression.single_parameter import SingleParameterModeler
from repro.regression.multi_parameter import MultiParameterModeler
from repro.regression.modeler import RegressionModeler
from repro.noise.estimation import estimate_noise_level

__version__ = "1.0.0"

__all__ = [
    "AdaptiveModeler",
    "Coordinate",
    "DNNModeler",
    "Experiment",
    "Measurement",
    "ModelResult",
    "MultiParameterModeler",
    "PerformanceFunction",
    "RegressionModeler",
    "SingleParameterModeler",
    "available_modelers",
    "create_modeler",
    "create_modelers",
    "estimate_noise_level",
    "register_modeler",
]
