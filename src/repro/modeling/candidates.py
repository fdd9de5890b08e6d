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
from typing import Mapping, Protocol, Sequence, runtime_checkable

import numpy as np

from repro.experiment.experiment import Kernel
from repro.experiment.lines import parameter_lines
from repro.modeling.batch import GenerateJob, Outcome, attempt, failed, unwrap
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
    """Produces the candidate hypotheses for a batch of kernels.

    ``generate_many`` returns one outcome per job: its
    :class:`CandidateSet`, or the exception that kernel raised.
    """

    name: str

    def generate_many(self, jobs: "Sequence[GenerateJob]") -> "list[Outcome[CandidateSet]]": ...


def _generate_one(
    self,
    kernel: Kernel,
    n_params: int,
    points: np.ndarray,
    values: np.ndarray,
    *,
    rng=None,
    network=None,
) -> CandidateSet:
    """One kernel's candidates: the one-job ``generate_many``, raising its
    failure. Nothing in the library calls it; each generator names it as
    its own ``generate`` because the e2e benchmark's layer table wraps
    ``FullSearchGenerator.generate`` and ``DNNTopKGenerator.generate``."""
    job = GenerateJob(kernel, n_params, points, values, rng, network)
    return unwrap(self.generate_many([job])[0])


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

    generate = _generate_one

    def generate_many(self, jobs: "Sequence[GenerateJob]") -> "list[Outcome[CandidateSet]]":
        """Candidates for a batch, with the measurement lines of all its
        multi-parameter kernels selected in one stacked line search."""
        outcomes: list = []
        line_sets: "dict[int, list[tuple[np.ndarray, np.ndarray]]]" = {}
        for index, job in enumerate(jobs):
            if job.n_params == 1:
                outcomes.append(attempt(self._single_parameter, job.points))
            else:
                outcomes.append(attempt(self._line_arrays, job))
                if not failed(outcomes[-1]):
                    line_sets[index] = outcomes[-1]
        fast = self.multi.single.fast
        if line_sets and fast is not None:
            fast = fast.prescored(list(line_sets.values()))
        for index, lines in line_sets.items():
            outcomes[index] = attempt(self._combinations, fast, lines)
        return outcomes

    def _single_parameter(self, points: np.ndarray) -> CandidateSet:
        if points.shape[0] < 5:
            raise ValueError(
                "Extra-P requires at least five measurement points per "
                f"parameter, got {points.shape[0]}"
            )
        return CandidateSet(self.multi.single.hypotheses, generator=self.name)

    def _line_arrays(self, job: GenerateJob) -> "list[tuple[np.ndarray, np.ndarray]]":
        # Built once: the stacked line search finds each line by identity.
        return [
            (line.xs, line.values(self.multi.aggregation))
            for line in parameter_lines(job.kernel, job.n_params)
        ]

    def _combinations(self, search, lines) -> CandidateSet:
        models = [self.multi.single.model(xs, values, search) for xs, values in lines]
        hypotheses = combination_hypotheses(self.multi.lead_terms(models))
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

    generate = _generate_one

    def generate_many(self, jobs: "Sequence[GenerateJob]") -> "list[Outcome[CandidateSet]]":
        """Candidates per job; classification is batched upstream
        (:func:`repro.dnn.modeler.prime_candidate_cache`)."""
        return [attempt(self._top_k, job) for job in jobs]

    def _top_k(self, job: GenerateJob) -> CandidateSet:
        network = job.network if job.network is not None else self.dnn.generic_network
        cache = self.dnn._candidate_cache
        hits_before = getattr(cache, "hits", 0)
        candidates = self.dnn.classify_lines(job.kernel, job.n_params, network)
        cache_hits = getattr(cache, "hits", 0) - hits_before
        if job.n_params == 1:
            # Constant pair appended as a safety net: the classifier may
            # miss it, but a constant kernel must still be modelable.
            pairs = candidates[0] + [ExponentPair(0, 0)]
            hypotheses = single_parameter_hypotheses(pairs)
        else:
            hypotheses = combination_hypotheses(
                [
                    [None if pair.is_constant else CompoundTerm.from_pair(pair) for pair in row]
                    for row in candidates
                ]
            )
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

    def generate_many(self, jobs: "Sequence[GenerateJob]") -> "list[Outcome[CandidateSet]]":
        """Route every job, then run each sub-generator once on its share."""
        outcomes: list = [attempt(self._noise_class, job) for job in jobs]
        routed = [i for i, outcome in enumerate(outcomes) if not failed(outcome)]
        dnn_sets = dict(zip(routed, self.dnn.generate_many([jobs[i] for i in routed])))
        calm = [
            i
            for i in routed
            if outcomes[i] is not NoiseClass.NOISY and not failed(dnn_sets[i])
        ]
        full_sets = dict(
            zip(calm, self.full.generate_many([jobs[i]._replace(network=None) for i in calm]))
        )
        for i in routed:
            dnn_set = dnn_sets[i]
            if failed(dnn_set):
                outcomes[i] = dnn_set
            elif i not in full_sets:
                outcomes[i] = CandidateSet(
                    dnn_set.hypotheses,
                    generator=f"{self.name}[dnn]",
                    cache_hits=dnn_set.cache_hits,
                )
            elif failed(full_sets[i]):
                outcomes[i] = full_sets[i]
            else:
                outcomes[i] = self._union(full_sets[i], dnn_set)
        return outcomes

    def _noise_class(self, job: GenerateJob) -> NoiseClass:
        level = estimate_noise_level(job.kernel)
        return classify_noise(level, job.n_params, self.thresholds)

    def _union(self, full_set: CandidateSet, dnn_set: CandidateSet) -> CandidateSet:
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
