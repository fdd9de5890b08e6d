"""Domain adaptation: per-task retraining of the pretrained network.

Before modeling, a fresh synthetic training set is generated that matches the
task at hand -- the same parameter-value sets, the same repetition count, and
noise levels drawn from the range estimated in the measurements (Sec. IV-E;
for Kripke: ``[3.66, 53.67] %``). The pretrained network is then retrained
for one epoch (default) on 2000 samples per class. Retraining dominates the
adaptive modeler's runtime, which is exactly the overhead Fig. 6 reports.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from repro.experiment.experiment import Experiment, Kernel
from repro.experiment.lines import all_parameter_lines
from repro.noise.estimation import noise_levels_per_point
from repro.noise.injection import UniformLevelRangeNoise
from repro.nn.network import Sequential
from repro.obs import get_telemetry
from repro.preprocessing.encoding import MAX_POINTS
from repro.synthesis.training import TrainingSetConfig, generate_training_set
from repro.util.seeding import as_generator, generator_from_digest

#: Paper defaults: "Usually, we use one retraining epoch and a sample size
#: of 2000 per class."
DEFAULT_EPOCHS = 1
DEFAULT_SAMPLES_PER_CLASS = 2000
#: Retraining defaults: a quarter of the pretraining learning rate (refine,
#: don't overwrite) and the batch size the adaptation walkthrough uses.
DEFAULT_ADAPTATION_LEARNING_RATE = 0.0005
DEFAULT_ADAPTATION_BATCH_SIZE = 256
#: Default width of the noise-band buckets used by :meth:`AdaptationTask.key`.
#: Noise ranges are estimated from measurements, so two repetitions of the
#: same experiment rarely produce bit-equal floats; bucketing to 5% makes
#: near-identical tasks share one adaptation. Resolutions <= 0 disable
#: bucketing (exact-band keys).
DEFAULT_NOISE_RESOLUTION = 0.05


def _round9(value: float) -> float:
    """Canonicalize a float to 9 significant digits (kills repr noise)."""
    return float(f"{float(value):.9g}")


@dataclass(frozen=True)
class AdaptationKey:
    """Content-based identity of one adaptation cluster.

    Tasks whose point layouts agree (to 9 significant digits) and whose
    estimated noise ranges fall into the same bucket map to the same key and
    therefore share one retrained network. The key is *canonical*: the
    cluster's training distribution is reconstructed from the key itself
    (:meth:`task`), never from whichever member happened to be seen first,
    so cluster membership order cannot change the adapted weights.
    """

    n_params: int
    point_layout: tuple[tuple[float, ...], ...]
    noise_band: tuple[float, float]
    repetitions: int
    resolution: float

    @property
    def fingerprint(self) -> str:
        """Stable 64-bit hex digest of the key's content.

        Doubles as the seed source of the cluster's retraining RNG
        (:func:`adaptation_generator`) and as the weight-store file name
        component, so everything derived from a key is content-addressed.
        """
        return hashlib.sha256(repr(self).encode()).hexdigest()[:16]

    def task(self) -> AdaptationTask:
        """The canonical adaptation task this cluster retrains on."""
        return AdaptationTask(
            parameter_value_sets=self.point_layout,
            noise_range=self.noise_band,
            repetitions=self.repetitions,
        )


def adaptation_generator(key: AdaptationKey) -> np.random.Generator:
    """The retraining RNG stream of one adaptation cluster.

    Seeded purely from the key's content digest: the stream is the same no
    matter which worker adapts, how warm any cache is, or how many draws the
    caller's generator has consumed. This is the cache-warmth determinism
    contract -- adaptation never reads, and never advances, a caller RNG.
    """
    return generator_from_digest(key.fingerprint)


@dataclass(frozen=True)
class AdaptationTask:
    """Everything the retraining-set generator needs to know about a task."""

    parameter_value_sets: tuple[tuple[float, ...], ...]
    noise_range: tuple[float, float]
    repetitions: int

    @classmethod
    def from_kernel(cls, kernel: Kernel, n_params: int) -> "AdaptationTask":
        """Derive the task description from one kernel's measurements."""
        value_sets = []
        for parameter in range(n_params):
            lines = all_parameter_lines(kernel, n_params, parameter, min_points=2)
            if not lines:
                raise ValueError(f"kernel {kernel.name!r} has no line for parameter {parameter}")
            xs = tuple(float(v) for v in lines[0].xs[:MAX_POINTS])
            value_sets.append(xs)
        levels = noise_levels_per_point(kernel)
        table = kernel.table
        reps = int(round(sum(values.size for _, values in table.groups) / len(table)))
        return cls(
            parameter_value_sets=tuple(value_sets),
            noise_range=(float(np.min(levels)), float(np.max(levels))),
            repetitions=max(reps, 1),
        )

    @classmethod
    def from_experiment(cls, experiment: Experiment) -> "AdaptationTask":
        """Pool the task description over all kernels of an experiment.

        The parameter-value sets come from the kernel with the most points;
        the noise range is pooled over all kernels, as in the paper's Kripke
        walkthrough (one retraining per modeling task, not per kernel).
        """
        kernels = experiment.kernels
        if not kernels:
            raise ValueError("experiment has no kernels")
        largest = max(kernels, key=len)
        base = cls.from_kernel(largest, experiment.n_params)
        levels = np.concatenate([noise_levels_per_point(k) for k in kernels])
        return cls(
            parameter_value_sets=base.parameter_value_sets,
            noise_range=(float(np.min(levels)), float(np.max(levels))),
            repetitions=base.repetitions,
        )

    def key(self, resolution: float = DEFAULT_NOISE_RESOLUTION) -> AdaptationKey:
        """Quantize this task into its cluster's :class:`AdaptationKey`.

        The noise range is widened to the enclosing ``resolution``-aligned
        band and the point layout rounded to 9 significant digits, so tasks
        that differ only in estimation jitter cluster together. A
        ``resolution <= 0`` keeps the exact band (each distinct float range
        is its own cluster).
        """
        layout = tuple(
            tuple(_round9(v) for v in values) for values in self.parameter_value_sets
        )
        lo, hi = self.noise_range
        if resolution > 0:
            # Round the quotients before floor/ceil: 0.15 / 0.05 is
            # 2.9999999999999996 in binary, and flooring that raw value
            # would put an exactly-aligned bound into the wrong bucket.
            lo = _round9(math.floor(round(lo / resolution, 9)) * resolution)
            hi = _round9(math.ceil(round(hi / resolution, 9)) * resolution)
        else:
            lo, hi = _round9(lo), _round9(hi)
        return AdaptationKey(
            n_params=len(layout),
            point_layout=layout,
            noise_band=(lo, hi),
            repetitions=self.repetitions,
            resolution=_round9(max(float(resolution), 0.0)),
        )

    def training_config(self, samples_per_class: int = DEFAULT_SAMPLES_PER_CLASS) -> TrainingSetConfig:
        lo, hi = self.noise_range
        # Guard against degenerate all-equal measurements (lo == hi == 0).
        hi = max(hi, 1e-3)
        return TrainingSetConfig(
            samples_per_class=samples_per_class,
            noise=UniformLevelRangeNoise(min(lo, hi), hi),
            repetitions=self.repetitions,
            fixed_repetitions=False,
            parameter_value_sets=[np.asarray(v, dtype=float) for v in self.parameter_value_sets],
        )


def adapt_network(
    network: Sequential,
    task: AdaptationTask,
    rng=None,
    epochs: int = DEFAULT_EPOCHS,
    samples_per_class: int = DEFAULT_SAMPLES_PER_CLASS,
    learning_rate: float = DEFAULT_ADAPTATION_LEARNING_RATE,
    batch_size: int = DEFAULT_ADAPTATION_BATCH_SIZE,
    checkpoint_path=None,
    checkpoint_every: int = 1,
) -> Sequential:
    """Return a copy of ``network`` retrained for ``task``.

    The input network is left untouched (the generic network is reused for
    the next task). The retraining learning rate defaults to a quarter of
    the pretraining rate -- domain adaptation should refine, not overwrite,
    the pretrained representation.

    ``checkpoint_path`` makes the retraining epochs crash-safe the same way
    as pretraining: the copy checkpoints there every ``checkpoint_every``
    epochs and self-resumes from the same file on the next call.
    """
    gen = as_generator(rng)
    telemetry = get_telemetry()
    with telemetry.tracer.span(
        "dnn.adapt_network", epochs=epochs, samples_per_class=samples_per_class
    ):
        with telemetry.tracer.span("adapt.training_set"):
            x, y = generate_training_set(task.training_config(samples_per_class), gen)
        adapted = network.copy()
        adapted.fit(
            x,
            y,
            epochs=epochs,
            batch_size=batch_size,
            learning_rate=learning_rate,
            rng=gen,
            checkpoint_every=checkpoint_every if checkpoint_path is not None else None,
            checkpoint_path=checkpoint_path,
            resume_from=checkpoint_path,
        )
    return adapted


def adapt_network_for_key(
    network: Sequential,
    key: AdaptationKey,
    epochs: int = DEFAULT_EPOCHS,
    samples_per_class: int = DEFAULT_SAMPLES_PER_CLASS,
    learning_rate: float = DEFAULT_ADAPTATION_LEARNING_RATE,
    batch_size: int = DEFAULT_ADAPTATION_BATCH_SIZE,
) -> Sequential:
    """Adapt ``network`` for one cluster, RNG derived from the key.

    This is the reference (unfused) form of the determinism contract: the
    canonical task comes from the key and the retraining stream from the
    key's fingerprint, so any process adapting this cluster -- serial,
    worker, or warm-up pre-pass -- produces bit-identical weights.
    """
    return adapt_network(
        network,
        key.task(),
        rng=adaptation_generator(key),
        epochs=epochs,
        samples_per_class=samples_per_class,
        learning_rate=learning_rate,
        batch_size=batch_size,
    )


def adapt_networks_fused(
    network: Sequential,
    keys: "Iterable[AdaptationKey]",
    epochs: int = DEFAULT_EPOCHS,
    samples_per_class: int = DEFAULT_SAMPLES_PER_CLASS,
    learning_rate: float = DEFAULT_ADAPTATION_LEARNING_RATE,
    batch_size: int = DEFAULT_ADAPTATION_BATCH_SIZE,
) -> "dict[AdaptationKey, Sequential]":
    """Adapt one copy of ``network`` per cluster key, in one stacked fit.

    The clusters' synthetic training sets (all ``43 * samples_per_class``
    rows) are stacked and trained through :func:`repro.nn.fused.fit_fused`,
    amortizing the framework's matmul dispatch; each cluster keeps its
    key-derived RNG stream, so the resulting weights are bit-identical to
    adapting every cluster separately via :func:`adapt_network_for_key`,
    which also serves a single cluster directly.
    """
    from repro.nn.fused import fit_fused

    unique: list[AdaptationKey] = []
    for key in keys:
        if key not in unique:
            unique.append(key)
    if not unique:
        return {}
    if len(unique) == 1:
        return {
            key: adapt_network_for_key(
                network,
                key,
                epochs=epochs,
                samples_per_class=samples_per_class,
                learning_rate=learning_rate,
                batch_size=batch_size,
            )
            for key in unique
        }
    telemetry = get_telemetry()
    with telemetry.tracer.span(
        "dnn.adapt_fused",
        clusters=len(unique),
        epochs=epochs,
        samples_per_class=samples_per_class,
    ):
        generators, datasets = [], []
        with telemetry.tracer.span("adapt.training_set"):
            for key in unique:
                gen = adaptation_generator(key)
                datasets.append(
                    generate_training_set(key.task().training_config(samples_per_class), gen)
                )
                generators.append(gen)
        adapted = [network.copy() for _ in unique]
        fit_fused(
            adapted,
            [x for x, _ in datasets],
            [y for _, y in datasets],
            epochs=epochs,
            batch_size=batch_size,
            learning_rate=learning_rate,
            rngs=generators,
        )
    return dict(zip(unique, adapted))
