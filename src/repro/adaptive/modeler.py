"""Noise-routed combination of the regression and DNN modelers."""

from __future__ import annotations

import time
from dataclasses import replace
from typing import Mapping

from repro.dnn.domain_adaptation import AdaptationTask
from repro.dnn.modeler import DNNModeler
from repro.experiment.experiment import Experiment, Kernel
from repro.noise.classification import NoiseClass, classify_noise
from repro.noise.estimation import estimate_noise_level
from repro.regression.modeler import ModelResult, RegressionModeler
from repro.util.seeding import as_generator


class AdaptiveModeler:
    """The paper's contribution: adaptive noise-routed modeling.

    The five components of Fig. 1 map to this class as follows: noise
    estimation (:func:`repro.noise.estimation.estimate_noise_level`),
    preprocessing (inside :class:`DNNModeler`), the DNN modeler, transfer
    learning (:mod:`repro.dnn.domain_adaptation`, driven by the DNN
    modeler), and the regression modeler. The final model is the CV/SMAPE
    winner of whichever modelers ran.

    Both sub-modelers run the shared modeling pipeline; the winner's
    provenance (generator, engine, per-stage seconds) is passed through.
    Routing deliberately stays at the *modeler* level -- running both
    pipelines and comparing CV winners, as in the paper -- rather than
    merging candidate sets into one selection (the plausibility-class
    preference makes a union select differently in edge cases; the
    candidate-level variant is available as the registry's ``fused``
    method). ``engine`` sets the fitting engine of both default
    sub-modelers (ignored for explicitly passed ones).
    """

    method_name = "adaptive"

    def __init__(
        self,
        regression: "RegressionModeler | None" = None,
        dnn: "DNNModeler | None" = None,
        thresholds: "Mapping[int, float] | None" = None,
        engine: str = "fast",
    ):
        self.regression = regression or RegressionModeler(engine=engine)
        self.dnn = dnn or DNNModeler(engine=engine)
        self.thresholds = thresholds

    def route(self, kernel: Kernel, n_params: int) -> tuple[float, NoiseClass]:
        """Estimate the kernel's noise level and classify it."""
        level = estimate_noise_level(kernel)
        return level, classify_noise(level, n_params, self.thresholds)

    def model_kernel(
        self,
        kernel: Kernel,
        n_params: "int | None" = None,
        rng=None,
        network=None,
    ) -> ModelResult:
        """Model one kernel adaptively.

        ``network`` optionally injects an already-adapted network (used by
        :meth:`model_experiment` so the whole task shares one retraining).
        """
        if n_params is None:
            if len(kernel) == 0:
                raise ValueError(f"kernel {kernel.name!r} has no measurements")
            n_params = kernel.coordinates[0].dimensions
        gen = as_generator(rng)
        started = time.perf_counter()
        _, noise_class = self.route(kernel, n_params)
        dnn_result = self.dnn.model_kernel(kernel, n_params, gen, network=network)
        if noise_class is NoiseClass.NOISY:
            winner = dnn_result
        else:
            reg_result = self.regression.model_kernel(kernel, n_params)
            # "We identify the model that fits the data best" -- smaller
            # cross-validation SMAPE wins.
            winner = min((dnn_result, reg_result), key=lambda r: r.cv_smape)
        return replace(
            winner,
            method=f"{self.method_name}[{winner.method}]",
            seconds=time.perf_counter() - started,
        )

    def model_experiment(self, experiment: Experiment, rng=None) -> dict[str, ModelResult]:
        """Model every kernel; the DNN adapts once for the whole experiment."""
        gen = as_generator(rng)
        network = None
        if self.dnn.use_domain_adaptation:
            task = AdaptationTask.from_experiment(experiment)
            # No rng: the adaptation stream is derived from the task key, so
            # results stay bit-identical whether or not the cache is warm.
            network = self.dnn.network_for_task(task)
        if hasattr(self.dnn, "classify_batch"):
            # One stacked forward pass primes the DNN's candidate cache for
            # every kernel, so the per-kernel calls below skip the network.
            self.dnn.classify_batch(experiment.kernels, experiment.n_params, network)
        return {
            kern.name: self.model_kernel(kern, experiment.n_params, gen, network=network)
            for kern in experiment.kernels
        }
