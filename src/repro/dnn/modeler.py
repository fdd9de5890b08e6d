"""The DNN performance modeler."""

from __future__ import annotations

import time
import warnings
from dataclasses import replace
from typing import Iterable, Sequence

import numpy as np

from repro.dnn.config import PretrainConfig
from repro.dnn.domain_adaptation import (
    DEFAULT_ADAPTATION_BATCH_SIZE,
    DEFAULT_ADAPTATION_LEARNING_RATE,
    DEFAULT_EPOCHS,
    DEFAULT_NOISE_RESOLUTION,
    DEFAULT_SAMPLES_PER_CLASS,
    AdaptationKey,
    AdaptationTask,
    adapt_network_for_key,
)
from repro.dnn.pretrained import load_or_pretrain
from repro.experiment.experiment import Experiment, Kernel
from repro.experiment.lines import parameter_lines
from repro.modeling.candidates import DNNTopKGenerator
from repro.modeling.batch import Outcome, attempt, failed
from repro.modeling.pipeline import Modeler, ModelingPipeline, ModelResult, kernel_arity
from repro.obs import get_telemetry
from repro.nn.metrics import top_k_classes
from repro.nn.network import Sequential
from repro.pmnf.searchspace import pair_for_class
from repro.pmnf.terms import ExponentPair
from repro.preprocessing.encoding import encode_parameter_line, encode_stacked
from repro.util.cache import LRUCache
from repro.util.seeding import as_generator

#: Default bound of the adapted-network memo; adaptation dominates runtime,
#: but adapted networks are large, so long sweeps over many distinct tasks
#: must not keep every one of them alive.
DEFAULT_ADAPTATION_CACHE_SIZE = 16
#: Default bound of the per-kernel encoding/candidate caches. Entries are
#: tiny (an (m, 11) float array / a top-k list), sized to cover a few
#: classification batches.
DEFAULT_LINE_CACHE_SIZE = 512


class DNNModeler(Modeler):
    """Creates performance models by exponent classification (Sec. IV-D).

    Per parameter, the measurement line is encoded into the 11-slot input
    vector and the network predicts a distribution over the 43 exponent
    pairs. The ``top_k`` most probable pairs (default 3, as in the paper)
    become hypotheses; multi-parameter hypotheses additionally enumerate all
    additive/multiplicative combinations. Coefficients are then fitted by
    least squares and the winner selected by LOO CV + SMAPE.

    By default every modeling task first domain-adapts the pretrained
    generic network (Sec. IV-E); pass ``use_domain_adaptation=False`` to
    classify with the generic network directly (used by the synthetic
    sweeps, where the pretraining distribution already matches the tasks).

    Hypothesis fitting and selection run through the shared
    :class:`~repro.modeling.pipeline.ModelingPipeline` with a
    :class:`~repro.modeling.candidates.DNNTopKGenerator`; ``engine`` selects
    the fitting engine (``'fast'``/``'reference'``).
    """

    method_name = "dnn"

    def __init__(
        self,
        network: "Sequential | None" = None,
        pretrain_config: "PretrainConfig | None" = None,
        top_k: int = 3,
        use_domain_adaptation: bool = True,
        adaptation_epochs: int = DEFAULT_EPOCHS,
        adaptation_samples_per_class: int = DEFAULT_SAMPLES_PER_CLASS,
        cache_dir=None,
        aggregation: str = "median",
        adaptation_cache_size: int = DEFAULT_ADAPTATION_CACHE_SIZE,
        line_cache_size: int = DEFAULT_LINE_CACHE_SIZE,
        engine: str = "fast",
        adaptation_resolution: float = DEFAULT_NOISE_RESOLUTION,
        adaptation_store=None,
        prefilter=None,
    ):
        if top_k < 1:
            raise ValueError("top_k must be positive")
        self.aggregation = aggregation
        self._network = network
        self._pretrain_config = pretrain_config
        self._cache_dir = cache_dir
        self.top_k = top_k
        self.use_domain_adaptation = use_domain_adaptation
        self.adaptation_epochs = adaptation_epochs
        self.adaptation_samples_per_class = adaptation_samples_per_class
        #: Noise-band bucket width for adaptation clustering (<= 0: exact).
        self.adaptation_resolution = adaptation_resolution
        #: Optional :class:`~repro.dnn.adaptation_cache.AdaptationStore`;
        #: when set, adapted weights are loaded from / saved to disk so a
        #: warm-up pre-pass (or a sibling worker) pays the retraining once.
        self.adaptation_store = adaptation_store
        #: Adapted networks, bounded LRU keyed by the quantized
        #: :class:`AdaptationKey` so near-identical tasks share one entry.
        self._adapted: "LRUCache | dict[AdaptationKey, Sequential]" = LRUCache(
            adaptation_cache_size
        )
        #: Encoded 11-slot input vectors per kernel; key ``(id(kernel),
        #: n_params, aggregation)``, value ``(kernel, vectors)``. Keeping the
        #: kernel object in the entry pins its ``id`` for the entry's
        #: lifetime, which makes the id-based key collision-free.
        self._encoding_cache = LRUCache(line_cache_size)
        #: Top-k candidate pairs per (network, kernel); filled by
        #: :meth:`classify_batch` so per-kernel modeling after a batched
        #: forward pass skips the network entirely.
        self._candidate_cache = LRUCache(line_cache_size)
        self.pipeline = ModelingPipeline(
            DNNTopKGenerator(self), aggregation=aggregation, engine=engine,
            prefilter=prefilter,
        )

    # ---------------------------------------------------------------- plumbing
    @property
    def generic_network(self) -> Sequential:
        """The pretrained generic network (lazily loaded / pretrained)."""
        if self._network is None:
            self._network = load_or_pretrain(self._pretrain_config, self._cache_dir)
        return self._network

    def adaptation_key(self, task: AdaptationTask) -> AdaptationKey:
        """The task's cluster key at this modeler's noise resolution."""
        return task.key(self.adaptation_resolution)

    def _store_compatible(self) -> bool:
        """Whether the attached store holds weights this modeler would train."""
        store = self.adaptation_store
        # Exact config equality: both sides are constructor-stored settings,
        # not computed values, and any difference means the store addresses
        # differently-trained weights.
        return (
            store is not None
            and store.epochs == self.adaptation_epochs
            and store.samples_per_class == self.adaptation_samples_per_class
            and store.learning_rate == DEFAULT_ADAPTATION_LEARNING_RATE
            and store.batch_size == DEFAULT_ADAPTATION_BATCH_SIZE
        )

    def network_for_task(self, task: "AdaptationTask | None", rng=None) -> Sequential:
        """Domain-adapted network for ``task`` (memoized), or the generic one.

        Determinism contract: the retraining RNG is derived from the task's
        cluster key, never from ``rng`` -- the argument is accepted for
        backward compatibility and deliberately ignored. A cache or store
        hit therefore consumes exactly as much caller randomness as a miss
        (none), so downstream draws are bit-identical regardless of cache
        warmth.
        """
        if task is None or not self.use_domain_adaptation:
            return self.generic_network
        telemetry = get_telemetry()
        key = self.adaptation_key(task)
        cached = self._adapted.get(key)
        if cached is not None:
            telemetry.metrics.counter("dnn.adaptation.hits").inc()
            return cached
        telemetry.metrics.counter("dnn.adaptation.misses").inc()
        adapted = None
        store_usable = self._store_compatible()
        if store_usable:
            adapted = self.adaptation_store.load(self.generic_network, key)
        if adapted is None:
            adapted = adapt_network_for_key(
                self.generic_network,
                key,
                epochs=self.adaptation_epochs,
                samples_per_class=self.adaptation_samples_per_class,
            )
            if store_usable:
                self.adaptation_store.save(self.generic_network, key, adapted)
        self._adapted[key] = adapted
        return adapted

    def reset_caches(self) -> None:
        """Drop all memoized state (adapted networks, encodings, candidates).

        Case-study drivers call this between runs so repeated runs stay
        comparable: every run pays the same adaptation cost.
        """
        for cache in (self._adapted, self._encoding_cache, self._candidate_cache):
            cache.clear()

    def cache_stats(self) -> dict[str, dict[str, int]]:
        """Hit/miss counters of all caches, for the sweep timing report."""

        def stats(cache) -> dict[str, int]:
            if hasattr(cache, "stats"):
                return cache.stats()
            # Plain dict swapped in by a caller: no counters of its own, so
            # zero-fill them -- consumers (absorb_cache_stats, reports) see
            # the same shape as LRUCache.stats() either way.
            return {"hits": 0, "misses": 0, "evictions": 0, "size": len(cache)}

        return {
            "adaptation": stats(self._adapted),
            "encoding": stats(self._encoding_cache),
            "candidates": stats(self._candidate_cache),
        }

    # ------------------------------------------------------------ classification
    def encode_kernel(self, kernel: Kernel, n_params: int) -> np.ndarray:
        """The kernel's stacked 11-slot input vectors, one row per parameter.

        Memoized per measurement table, so an add to the kernel (which
        builds a new table) is encoded afresh.
        """
        table = kernel.table
        key = (id(table), n_params, self.aggregation)
        entry = self._encoding_cache.get(key)
        if entry is not None and entry[0] is table:
            return entry[1]
        return self._encode_alone(kernel, n_params)

    def _encode_alone(self, kernel: Kernel, n_params: int) -> np.ndarray:
        """Encode one kernel line by line, and cache it."""
        table = kernel.table
        lines = parameter_lines(kernel, n_params)
        vectors = np.stack(
            [encode_parameter_line(line, aggregation=self.aggregation) for line in lines]
        )
        self._encoding_cache[(id(table), n_params, self.aggregation)] = (table, vectors)
        return vectors

    def _line_arrays(self, kernel: Kernel, n_params: int) -> "list[tuple[np.ndarray, np.ndarray]]":
        """Each parameter line's ``(xs, values)`` under :attr:`aggregation`."""
        return [(line.xs, line.values(self.aggregation)) for line in parameter_lines(kernel, n_params)]

    def _encode_batch(self, kernels: "Sequence[Kernel]", n_params: int) -> list:
        """:meth:`encode_kernel` of every kernel, ``None`` for one that cannot
        be encoded (its :class:`ValueError`).

        The lines of the kernels the encoding cache misses are encoded in one
        :func:`encode_stacked` pass per line length, and the cache is filled
        from it. A kernel whose lines or their values cannot be found, or
        with a line that pass does not encode, is encoded alone, line by
        line, as :meth:`encode_kernel` does, and raises there. A sole missed
        kernel has nothing to stack with and is encoded alone too: for a
        single line the stacked pass costs more than ``encode_line``.
        """
        out: list = [None] * len(kernels)
        uncached: "list[int]" = []
        for index, kernel in enumerate(kernels):
            table = kernel.table
            entry = self._encoding_cache.get((id(table), n_params, self.aggregation))
            if entry is not None and entry[0] is table:
                out[index] = entry[1]
            else:
                uncached.append(index)
        alone: "list[int]" = []
        missed: "list[tuple[int, list]]" = []
        if len(uncached) == 1:
            alone = uncached
        else:
            for index in uncached:
                lines = attempt(self._line_arrays, kernels[index], n_params)
                if failed(lines):
                    alone.append(index)
                else:
                    missed.append((index, lines))
        #: Per line length, each line's ``(xs, values)``; a missed kernel's
        #: lines are ``(length, row)`` places in them.
        stacks: "dict[int, list[tuple[np.ndarray, np.ndarray]]]" = {}
        places = []
        for _, lines in missed:
            places.append([])
            for xs, values in lines:
                stack = stacks.setdefault(xs.size, [])
                places[-1].append((xs.size, len(stack)))
                stack.append((xs, values))
        encoded = {
            length: encode_stacked(
                np.stack([xs for xs, _ in stack]), np.stack([values for _, values in stack])
            )
            for length, stack in stacks.items()
        }
        for (index, _), rows in zip(missed, places):
            if all(encoded[length][1][row] for length, row in rows):
                vectors = np.stack([encoded[length][0][row] for length, row in rows])
                table = kernels[index].table
                self._encoding_cache[(id(table), n_params, self.aggregation)] = (table, vectors)
                out[index] = vectors
            else:
                alone.append(index)
        for index in sorted(alone):
            try:
                out[index] = self._encode_alone(kernels[index], n_params)
            except ValueError:
                out[index] = None  # classify_batch's warning names it
        return out

    def _candidates_from_probs(self, probs: np.ndarray) -> list[list[ExponentPair]]:
        classes = top_k_classes(probs, self.top_k)
        return [[pair_for_class(int(c)) for c in row] for row in classes]

    def classify_lines(self, kernel: Kernel, n_params: int, network: Sequential) -> list[list[ExponentPair]]:
        """Top-k exponent pairs per parameter line, most probable first."""
        table = kernel.table
        key = (id(network), id(table), n_params)
        entry = self._candidate_cache.get(key)
        if entry is not None and entry[0] is network and entry[1] is table:
            return entry[2]
        probs = network.predict_proba(self.encode_kernel(kernel, n_params))
        candidates = self._candidates_from_probs(probs)
        self._candidate_cache[key] = (network, table, candidates)
        return candidates

    def classify_batch(
        self,
        kernels: "Sequence[Kernel]",
        n_params: int,
        network: "Sequential | None" = None,
    ) -> "list[list[list[ExponentPair]] | None]":
        """Classify many kernels through one stacked ``predict_proba`` call.

        Sweeps amortize the network's forward pass over the whole batch
        instead of paying per-task dispatch. The resulting candidates are
        cached, so subsequent :meth:`model_kernel` calls on the same kernel
        objects (with the same network) skip classification entirely.

        A kernel that cannot be encoded (degenerate measurement lines raise
        :class:`ValueError`) yields ``None`` in the returned list; the batch
        emits one :class:`RuntimeWarning` naming how many kernels were
        skipped and which, and the error surfaces with full context when
        that kernel is modeled individually. Unexpected exception types
        propagate -- they indicate a bug, not a bad kernel.
        """
        network = network or self.generic_network
        # Materialize up front: a generator argument would otherwise be
        # exhausted by this first pass and silently yield no results below.
        kernels = list(kernels)
        encoded = self._encode_batch(kernels, n_params)
        failures = [kernel.name for kernel, vectors in zip(kernels, encoded) if vectors is None]
        if failures:
            shown = ", ".join(repr(name) for name in failures[:5])
            if len(failures) > 5:
                shown += ", ..."
            warnings.warn(
                f"classify_batch: {len(failures)} of {len(encoded)} kernel(s) "
                f"could not be encoded and were skipped ({shown}); model them "
                "individually for the full error",
                RuntimeWarning,
                stacklevel=2,
            )
        rows = [vectors for vectors in encoded if vectors is not None]
        if not rows:
            return [None] * len(kernels)
        probs = network.predict_proba(np.concatenate(rows, axis=0))
        out: list["list[list[ExponentPair]] | None"] = []
        offset = 0
        for kernel, vectors in zip(kernels, encoded):
            if vectors is None:
                out.append(None)
                continue
            candidates = self._candidates_from_probs(probs[offset : offset + len(vectors)])
            offset += len(vectors)
            table = kernel.table
            self._candidate_cache[(id(network), id(table), n_params)] = (network, table, candidates)
            out.append(candidates)
        return out

    # ---------------------------------------------------------------- modeling
    def model_kernels(
        self,
        kernels: "Sequence[Kernel]",
        n_params: "int | None" = None,
        rngs: "Sequence | None" = None,
        network: "Sequential | None" = None,
        memo: "dict | None" = None,
    ) -> "list[Outcome[ModelResult]]":
        """Model a batch of kernels, one outcome per kernel.

        When ``network`` is given (e.g. adapted once for a whole experiment)
        every kernel classifies with it; otherwise each kernel first gets
        its own network, adapted from its measurements (or the generic one),
        and its result's provenance adds that ``adapt`` time and a
        ``total``. The batch then runs through
        :meth:`ModelingPipeline.model_kernels`.
        """
        kernels = list(kernels)
        rngs = [None] * len(kernels) if rngs is None else list(rngs)
        outcomes: list = []
        adapt_seconds: "dict[int, float]" = {}
        for index, (kernel, rng) in enumerate(zip(kernels, rngs)):
            started = time.perf_counter()
            outcomes.append(attempt(self._network_for_kernel, kernel, n_params, rng, network))
            if network is None:
                adapt_seconds[index] = time.perf_counter() - started
        ready = [i for i, outcome in enumerate(outcomes) if not failed(outcome)]
        results = self.pipeline.model_kernels(
            [kernels[i] for i in ready],
            n_params,
            rngs=[outcomes[i][1] for i in ready],
            networks=[outcomes[i][0] for i in ready],
            method=self.method_name,
            memo=memo,
        )
        for i, result in zip(ready, results):
            outcomes[i] = result
            if adapt_seconds.get(i) and not failed(result) and result.provenance is not None:
                # The named ``total`` must cover every stage listed next to
                # it, adaptation included -- stage shares computed against it
                # would otherwise exceed 100% whenever adaptation ran.
                seconds = result.seconds + adapt_seconds[i]
                provenance = replace(
                    result.provenance,
                    stage_seconds={
                        "adapt": adapt_seconds[i],
                        **result.provenance.stage_seconds,
                        "total": seconds,
                    },
                )
                outcomes[i] = replace(result, seconds=seconds, provenance=provenance)
        telemetry = get_telemetry()
        if telemetry.enabled:
            telemetry.metrics.absorb_cache_stats(self.cache_stats(), prefix="dnn.cache")
        return outcomes

    def _network_for_kernel(self, kernel: Kernel, n_params, rng, network):
        """``(network, generator)`` for one kernel: ``network`` if given,
        else this kernel's adapted (or the generic) network."""
        n_params = kernel_arity(kernel, n_params)
        gen = as_generator(rng)
        if network is None:
            task = (
                AdaptationTask.from_kernel(kernel, n_params)
                if self.use_domain_adaptation
                else None
            )
            network = self.network_for_task(task)
        return network, gen

    def experiment_network(self, experiment: Experiment) -> Sequential:
        """Adapt the network once for the whole experiment and classify its
        kernels in one stacked pass.

        This mirrors the paper's per-modeling-task retraining: the noise
        range is pooled over all kernels and a single adapted network serves
        them all, so the (dominant) retraining cost is paid once.
        """
        task = AdaptationTask.from_experiment(experiment) if self.use_domain_adaptation else None
        network = self.network_for_task(task)
        self.classify_batch(experiment.kernels, experiment.n_params, network)
        return network


def prime_candidate_cache(
    jobs: "Iterable[tuple[object, Sequence[Kernel], int]]",
) -> None:
    """Classify ``(modeler, kernels, n_params)`` jobs -- a sweep batch, a
    service request group -- in one :meth:`DNNModeler.classify_batch` call
    per distinct DNN and parameter count, each kernel once.

    Only DNNs classifying with their generic network are primed (adapting
    ones use a per-task network inside ``model_experiment``). Priming only
    fills the candidate cache the per-kernel path would fill anyway, so
    results are bit-identical with or without it.
    """
    groups: "dict[tuple[int, int], tuple[DNNModeler, dict[int, Kernel]]]" = {}
    for modeler, kernels, n_params in jobs:
        dnn = getattr(modeler, "dnn", modeler)
        if hasattr(dnn, "classify_batch") and not getattr(
            dnn, "use_domain_adaptation", True
        ):
            queued = groups.setdefault((id(dnn), n_params), (dnn, {}))[1]
            for kernel in kernels:
                queued.setdefault(id(kernel), kernel)
    for (_, n_params), (dnn, queued) in groups.items():
        dnn.classify_batch(list(queued.values()), n_params)
