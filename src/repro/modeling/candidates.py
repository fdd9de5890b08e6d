"""Candidate generators: the stage that distinguishes the modelers.

Every modeler runs the same :class:`~repro.modeling.pipeline.ModelingPipeline`;
what varies is how candidate hypotheses are generated:

- :class:`FullSearchGenerator` -- Extra-P's exhaustive search: all 43
  exponent pairs for one parameter, all additive/multiplicative combinations
  of the per-parameter line models for several (Sec. II / Calotoiu 2016).
- :class:`DNNTopKGenerator` -- the paper's DNN path (Sec. IV-D): the
  classifier's top-k exponent pairs per parameter (plus the constant safety
  net), combinations thereof for multi-parameter kernels.
- :class:`AdaptiveGenerator` -- candidate-level noise switching: the DNN's
  pruned candidate set alone when the kernel is noisy, the union with the
  full search when it is calm. (The paper's adaptive *modeler* instead runs
  both complete pipelines and keeps the CV winner -- see
  :class:`repro.adaptive.modeler.AdaptiveModeler`; this generator is the
  cheaper single-fit variant, registered as ``fused``.)
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Mapping, Protocol, runtime_checkable

import numpy as np

from repro.experiment.experiment import Kernel
from repro.experiment.lines import parameter_lines
from repro.noise.classification import NoiseClass, classify_noise
from repro.noise.estimation import estimate_noise_level
from repro.pmnf.terms import CompoundTerm, ExponentPair
from repro.regression.hypothesis import Hypothesis
from repro.regression.multi_parameter import MultiParameterModeler, combination_hypotheses
from repro.regression.single_parameter import single_parameter_hypotheses


@dataclass(frozen=True)
class CandidateSet:
    """The generation stage's output: hypotheses plus provenance inputs."""

    hypotheses: tuple[Hypothesis, ...]
    generator: str = ""
    cache_hits: int = 0


@runtime_checkable
class CandidateGenerator(Protocol):
    """Produces the candidate hypotheses for one kernel."""

    name: str

    def generate(
        self,
        kernel: Kernel,
        n_params: int,
        points: np.ndarray,
        values: np.ndarray,
        *,
        rng=None,
        network=None,
    ) -> CandidateSet: ...


class FullSearchGenerator:
    """Extra-P's exhaustive candidate generation.

    For one parameter: one hypothesis per exponent pair of the search space.
    For several: the per-parameter measurement lines are modeled first
    (through the wrapped :class:`MultiParameterModeler`'s single-parameter
    modeler, which enforces the five-points-per-parameter minimum) and the
    lead terms combined over all set partitions.
    """

    name = "full-search"

    def __init__(self, multi: "MultiParameterModeler | None" = None, aggregation: str = "median"):
        self.multi = multi or MultiParameterModeler(aggregation=aggregation)

    def generate(
        self,
        kernel: Kernel,
        n_params: int,
        points: np.ndarray,
        values: np.ndarray,
        *,
        rng=None,
        network=None,
    ) -> CandidateSet:
        if n_params == 1:
            if points.shape[0] < 5:
                raise ValueError(
                    "Extra-P requires at least five measurement points per "
                    f"parameter, got {points.shape[0]}"
                )
            hypotheses = self.multi.single.hypotheses
        else:
            lines = parameter_lines(kernel, n_params)
            single_models = self.multi.model_lines(lines)
            hypotheses = combination_hypotheses(self.multi.lead_terms(single_models))
        return CandidateSet(tuple(hypotheses), generator=self.name)


class DNNTopKGenerator:
    """The DNN modeler's candidate generation (Sec. IV-D).

    Wraps a :class:`repro.dnn.modeler.DNNModeler` for its classification
    plumbing (encoding/candidate caches, batched forward passes). The
    network to classify with must be resolved by the caller (domain
    adaptation needs the task RNG) and passed via ``network``; without one,
    the modeler's generic network is used. ``cache_hits`` in the returned
    set counts candidate-cache hits, i.e. classifications already paid for
    by a batched pass.
    """

    name = "dnn-top-k"

    def __init__(self, dnn):
        self.dnn = dnn

    def generate(
        self,
        kernel: Kernel,
        n_params: int,
        points: np.ndarray,
        values: np.ndarray,
        *,
        rng=None,
        network=None,
    ) -> CandidateSet:
        if network is None:
            network = self.dnn.generic_network
        cache = self.dnn._candidate_cache
        hits_before = getattr(cache, "hits", 0)
        candidates = self.dnn.classify_lines(kernel, n_params, network)
        cache_hits = getattr(cache, "hits", 0) - hits_before
        if n_params == 1:
            # Constant pair appended as a safety net: the classifier may
            # miss it, but a constant kernel must still be modelable.
            pairs = candidates[0] + [ExponentPair(0, 0)]
            hypotheses = single_parameter_hypotheses(pairs)
        else:
            hypotheses = []
            seen = set()
            for combo in product(*candidates):
                terms = [
                    None if pair.is_constant else CompoundTerm.from_pair(pair)
                    for pair in combo
                ]
                for hyp in combination_hypotheses(terms):
                    key = hyp.structure_key()
                    if key not in seen:
                        seen.add(key)
                        hypotheses.append(hyp)
        return CandidateSet(tuple(hypotheses), generator=self.name, cache_hits=cache_hits)


class AdaptiveGenerator:
    """Candidate-level noise switching over two generators.

    Routes like the adaptive modeler (noise estimate against the per-``m``
    thresholds) but switches the *candidate set* instead of running two
    pipelines: a noisy kernel gets only the DNN's top-k candidates (the
    regression search chases noise there), a calm one the union of both
    sets, deduplicated by structure, decided in a single fit/select pass.
    """

    name = "adaptive-switch"

    def __init__(
        self,
        full: "FullSearchGenerator",
        dnn: "DNNTopKGenerator",
        thresholds: "Mapping[int, float] | None" = None,
    ):
        self.full = full
        self.dnn = dnn
        self.thresholds = thresholds

    def generate(
        self,
        kernel: Kernel,
        n_params: int,
        points: np.ndarray,
        values: np.ndarray,
        *,
        rng=None,
        network=None,
    ) -> CandidateSet:
        level = estimate_noise_level(kernel)
        noise_class = classify_noise(level, n_params, self.thresholds)
        dnn_set = self.dnn.generate(
            kernel, n_params, points, values, rng=rng, network=network
        )
        if noise_class is NoiseClass.NOISY:
            return CandidateSet(
                dnn_set.hypotheses,
                generator=f"{self.name}[dnn]",
                cache_hits=dnn_set.cache_hits,
            )
        full_set = self.full.generate(kernel, n_params, points, values, rng=rng)
        hypotheses = list(full_set.hypotheses)
        seen = {hyp.structure_key() for hyp in hypotheses}
        for hyp in dnn_set.hypotheses:
            key = hyp.structure_key()
            if key not in seen:
                seen.add(key)
                hypotheses.append(hyp)
        return CandidateSet(
            tuple(hypotheses),
            generator=f"{self.name}[union]",
            cache_hits=dnn_set.cache_hits,
        )
