"""Noise-routed combination of the regression and DNN modelers."""

from __future__ import annotations

import time
from dataclasses import replace
from typing import Mapping, Sequence

from repro.dnn.domain_adaptation import AdaptationTask
from repro.dnn.modeler import DNNModeler
from repro.experiment.experiment import Experiment, Kernel
from repro.modeling.batch import Outcome, attempt, failed, unwrap
from repro.modeling.pipeline import results_by_kernel
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
        return unwrap(self.model_kernels([kernel], n_params, [rng], network=network)[0])

    def model_kernels(
        self,
        kernels: "Sequence[Kernel]",
        n_params: "int | None" = None,
        rngs: "Sequence | None" = None,
        network=None,
        memo: "dict | None" = None,
    ) -> "list[Outcome[ModelResult]]":
        """Model a batch adaptively, one outcome per kernel.

        Every kernel is routed, the DNN models the whole batch, and the
        regression modeler the calm kernels, each as one batch. With a
        shared ``memo`` a regression modeler that already modeled these
        kernels in the batch serves its results (see
        :func:`repro.modeling.registry.create_modelers`). A result's
        ``seconds`` is its routing time plus the seconds of every job it
        used, the regression search included.
        """
        kernels = list(kernels)
        rngs = [None] * len(kernels) if rngs is None else list(rngs)
        outcomes: list = []
        for kernel, rng in zip(kernels, rngs):
            started = time.perf_counter()
            routed = attempt(self._route_kernel, kernel, n_params, rng)
            outcomes.append(routed if failed(routed) else (*routed, time.perf_counter() - started))
        routed = [i for i, outcome in enumerate(outcomes) if not failed(outcome)]
        dnn_results = dict(
            zip(
                routed,
                self.dnn.model_kernels(
                    [kernels[i] for i in routed],
                    n_params,
                    [outcomes[i][1] for i in routed],
                    network=network,
                    memo=memo,
                ),
            )
        )
        calm = [
            i
            for i in routed
            if outcomes[i][0] is not NoiseClass.NOISY and not failed(dnn_results[i])
        ]
        reg_results = dict(
            zip(
                calm,
                self.regression.model_kernels([kernels[i] for i in calm], n_params, memo=memo),
            )
        )
        for i in routed:
            used = [dnn_results[i]]
            if i in reg_results:
                used.append(reg_results[i])
            broken = [result for result in used if failed(result)]
            if broken:
                outcomes[i] = broken[0]
                continue
            # "We identify the model that fits the data best" -- smaller
            # cross-validation SMAPE wins.
            winner = min(used, key=lambda r: r.cv_smape)
            outcomes[i] = replace(
                winner,
                method=f"{self.method_name}[{winner.method}]",
                seconds=outcomes[i][2] + sum(result.seconds for result in used),
            )
        return outcomes

    def _route_kernel(self, kernel: Kernel, n_params: "int | None", rng):
        """``(noise class, generator)`` of one kernel."""
        if n_params is None:
            if len(kernel) == 0:
                raise ValueError(f"kernel {kernel.name!r} has no measurements")
            n_params = kernel.table.points.shape[1]
        gen = as_generator(rng)
        _, noise_class = self.route(kernel, n_params)
        return noise_class, gen

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
        return results_by_kernel(
            experiment,
            self.model_kernels(
                experiment.kernels,
                experiment.n_params,
                [gen] * len(experiment.kernels),
                network=network,
            ),
        )
