"""Labelled training-set generation for the DNN classifier.

Pretraining (paper Sec. IV-D) draws everything at random: the exponent class,
the coefficients, the sequence family, the number of points, the noise level,
and the number of repetitions ("up to five"). Domain adaptation
(Sec. IV-E) instead fixes the sequence(s), repetition count, and noise range
to those observed in the modeling task at hand -- expressed here by setting
``parameter_value_sets``, ``repetitions``, and ``noise`` on the config.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.noise.injection import NoiseModel, UniformLevelRangeNoise
from repro.pmnf.searchspace import NUM_CLASSES, pair_for_class
from repro.pmnf.terms import CompoundTerm
from repro.preprocessing.encoding import MAX_POINTS, MIN_POINTS, encode_line, encode_lines
from repro.synthesis.functions import COEFFICIENT_RANGE, random_coefficient
from repro.synthesis.sequences import SequenceKind, random_sequence
from repro.util.pcg64_replay import PCG64Replay, uniform
from repro.util.seeding import as_generator


@dataclass
class TrainingSetConfig:
    """Configuration of one synthetic training-set generation run."""

    samples_per_class: int = 200
    #: Noise model applied to every repetition. The pretraining default draws
    #: a fresh level from [0, 100%] per sample, as in the paper.
    noise: NoiseModel = field(default_factory=lambda: UniformLevelRangeNoise(0.0, 1.0))
    #: Maximum repetitions per point; each sample draws 1..repetitions
    #: ("up to five") unless ``fixed_repetitions`` is set.
    repetitions: int = 5
    fixed_repetitions: bool = False
    min_points: int = MIN_POINTS
    max_points: int = MAX_POINTS
    #: Restrict the random sequence families (None = all).
    sequence_kinds: "tuple[SequenceKind, ...] | None" = None
    #: Domain adaptation: generate on exactly these parameter-value sets
    #: (each sample uses one of them) instead of random sequences.
    parameter_value_sets: "Sequence[np.ndarray] | None" = None
    coefficient_range: tuple[float, float] = COEFFICIENT_RANGE

    def __post_init__(self) -> None:
        if self.samples_per_class < 1:
            raise ValueError("samples_per_class must be positive")
        if not (2 <= self.min_points <= self.max_points <= MAX_POINTS):
            raise ValueError(
                f"point counts must satisfy 2 <= min <= max <= {MAX_POINTS}, "
                f"got [{self.min_points}, {self.max_points}]"
            )
        if self.repetitions < 1:
            raise ValueError("repetitions must be positive")
        lo, hi = self.coefficient_range
        if not (0 < lo <= hi):
            raise ValueError(f"invalid coefficient range {self.coefficient_range!r}")
        if self.parameter_value_sets is not None:
            if len(self.parameter_value_sets) == 0:
                raise ValueError("parameter_value_sets must not be empty")
            for index, values in enumerate(self.parameter_value_sets):
                _check_value_set(index, values)


def _check_value_set(index: int, values: "Sequence[float] | np.ndarray") -> None:
    """Reject a parameter-value set the encoder could not encode."""
    xs = np.asarray(values, dtype=float)
    if xs.ndim != 1:
        cause = "is not one-dimensional"
    elif xs.size < MIN_POINTS:
        cause = f"has {xs.size} values, fewer than {MIN_POINTS}"
    elif xs.size > MAX_POINTS:
        cause = f"has {xs.size} values, more than {MAX_POINTS}"
    elif not np.all(np.isfinite(xs) & (xs > 0)):
        cause = "has values that are not finite and positive"
    elif np.unique(xs).size != xs.size:
        cause = "has duplicate values"
    else:
        return
    raise ValueError(f"parameter_value_sets[{index}] {cause}")


def _sample_sequence(config: TrainingSetConfig, gen: np.random.Generator) -> np.ndarray:
    if config.parameter_value_sets is not None:
        sets = config.parameter_value_sets
        return np.asarray(sets[int(gen.integers(len(sets)))], dtype=float)
    length = int(gen.integers(config.min_points, config.max_points + 1))
    kind = None
    if config.sequence_kinds is not None:
        kind = config.sequence_kinds[int(gen.integers(len(config.sequence_kinds)))]
    return random_sequence(length, kind, gen)


def _draw_sample(
    label: int,
    config: TrainingSetConfig,
    gen: np.random.Generator,
    terms: "dict[bytes, np.ndarray]",
) -> tuple[np.ndarray, np.ndarray]:
    """Make one sample's Generator calls; return its points and noisy repetitions.

    The call sequence -- point layout, ``c0``, ``c1`` (non-constant classes
    only), the repetition count, then ``config.noise.apply`` on the repeated
    truth -- is a compatibility contract: adapted networks and the pretrained
    cache are reproducible only while it stays the same. Domain-adaptation
    configs do not call this in :func:`generate_training_set`; their
    :func:`_replay_class` recomputes this sequence's draws from raw words,
    and this function stays the reference it must equal. ``terms`` caches
    ``label``'s term column per point layout; evaluation is pure, so a cached
    column is bit-identical to a fresh one.
    """
    xs = _sample_sequence(config, gen)
    pair = pair_for_class(label)
    c0 = random_coefficient(gen, config.coefficient_range)
    if pair.is_constant:
        truth = np.full(xs.size, c0)
    else:
        c1 = random_coefficient(gen, config.coefficient_range)
        layout = xs.tobytes()
        term = terms.get(layout)
        if term is None:
            term = terms[layout] = CompoundTerm.from_pair(pair).evaluate(xs)
        truth = c0 + c1 * term
    rep = (
        config.repetitions
        if config.fixed_repetitions
        else int(gen.integers(1, config.repetitions + 1))
    )
    noisy = config.noise.apply(np.repeat(truth[:, None], rep, axis=1), gen)
    return xs, noisy


def synthesize_sample(
    label: int,
    config: TrainingSetConfig,
    rng: "np.random.Generator | int | None" = None,
) -> np.ndarray:
    """Generate one encoded input vector whose ground-truth class is ``label``.

    The per-sample reference of :func:`generate_training_set`: a loop of
    these calls makes the same Generator calls, in the same order, and the
    same rows, whether the batched generator draws them or replays them.
    """
    gen = as_generator(rng)
    xs, noisy = _draw_sample(label, config, gen, {})
    return encode_line(xs, np.median(noisy, axis=1))


def _synthesize_class(
    label: int, config: TrainingSetConfig, gen: np.random.Generator, out: np.ndarray
) -> None:
    """Fill ``out``, one row per sample, with ``label``'s samples.

    A draw pass makes every sample's Generator calls in order; a batched
    pass then takes one median per group of samples sharing a point layout
    and repetition count, and encodes each layout's rows in one call.
    """
    terms: dict[bytes, np.ndarray] = {}
    layouts: dict[bytes, tuple[np.ndarray, dict[int, tuple[list[int], list[np.ndarray]]]]] = {}
    for row in range(out.shape[0]):
        xs, noisy = _draw_sample(label, config, gen, terms)
        _, by_rep = layouts.setdefault(xs.tobytes(), (xs, {}))
        rows, repetitions = by_rep.setdefault(noisy.shape[1], ([], []))
        rows.append(row)
        repetitions.append(noisy)
    for xs, by_rep in layouts.values():
        rows = [row for group_rows, _ in by_rep.values() for row in group_rows]
        medians = [np.median(np.stack(group), axis=-1) for _, group in by_rep.values()]
        out[rows] = encode_lines(xs, np.concatenate(medians))


def _replays(config: TrainingSetConfig, gen: np.random.Generator) -> bool:
    """Whether ``config``'s classes are built by :func:`_replay_class`.

    That is every domain-adaptation config (fixed value sets, a noise level
    drawn per sample from a range) on numpy's default PCG64 generator.
    """
    return (
        config.parameter_value_sets is not None
        and type(config.noise) is UniformLevelRangeNoise
        and type(gen.bit_generator) is np.random.PCG64
    )


def _replay_class(
    label: int, config: TrainingSetConfig, gen: np.random.Generator, out: np.ndarray
) -> None:
    """:func:`_synthesize_class` for a :func:`_replays` config, from raw words.

    A walk mirrors each sample's :func:`_draw_sample` calls on one block of
    raw PCG64 words and records where each sample's words lie: the layout
    and repetition draws are made there, since the repetition count decides
    how many noise words follow. The coefficients, noise levels and noise
    values are then computed from the recorded words in one pass per group
    of samples sharing (layout, repetitions); every value is bitwise the
    Generator call's, and ``gen`` ends in the state the calls leave.
    """
    sets = [np.asarray(values, dtype=float) for values in config.parameter_value_sets]
    count, reps = out.shape[0], config.repetitions
    draws = PCG64Replay(gen, count * (5 + max(xs.size for xs in sets) * reps))
    pair = pair_for_class(label)
    integers, take, sizes = draws.integers, draws.take, [xs.size for xs in sets]
    coefficient_words = 1 if pair.is_constant else 2
    layouts, repetitions, coefficients_at, noise_at = [], [], [], []
    for _ in range(count):
        layout = integers(0, len(sets))
        coefficients_at.append(take(coefficient_words))
        rep = reps if config.fixed_repetitions else integers(1, reps + 1)
        noise_at.append(take(1 + sizes[layout] * rep))  # the level, then the values
        layouts.append(layout)
        repetitions.append(rep)
    draws.commit()

    words, lo, hi = draws.words, *config.coefficient_range
    coefficients_at, noise_at = np.array(coefficients_at), np.array(noise_at)
    layouts, repetitions = np.array(layouts), np.array(repetitions)
    c0 = uniform(lo, hi, words[coefficients_at])[:, None]
    c1 = None if pair.is_constant else uniform(lo, hi, words[coefficients_at + 1])[:, None]
    half = (uniform(config.noise.lo, config.noise.hi, words[noise_at]) / 2.0)[:, None, None]
    for layout, xs in enumerate(sets):
        in_layout = layouts == layout
        if not in_layout.any():
            continue
        term = None if c1 is None else CompoundTerm.from_pair(pair).evaluate(xs)
        groups, medians = [], []
        for rep in np.unique(repetitions[in_layout]):
            group = np.flatnonzero(in_layout & (repetitions == rep))
            at = noise_at[group, None] + 1 + np.arange(xs.size * rep)
            noise = uniform(-half[group], half[group], words[at].reshape(group.size, xs.size, rep))
            if c1 is None:
                truth = np.repeat(c0[group], xs.size, axis=1)
            else:
                truth = c0[group] + c1[group] * term
            groups.append(group)
            medians.append(np.median(truth[:, :, None] * (1.0 + noise), axis=-1))
        out[np.concatenate(groups)] = encode_lines(xs, np.concatenate(medians))


def generate_training_set(
    config: TrainingSetConfig,
    rng: "np.random.Generator | int | None" = None,
    shuffle: bool = True,
) -> tuple[np.ndarray, np.ndarray]:
    """Generate ``(X, y)`` with ``samples_per_class`` examples of each class.

    ``X`` has shape ``(43 * samples_per_class, 11)`` and ``y`` holds integer
    class labels. Classes are balanced by construction, matching the paper's
    "fixed amount of synthetic training samples per class". The rows, the
    labels and the generator's final state equal those of a loop of
    :func:`synthesize_sample` calls followed by ``gen.permutation``: the
    per-sample call sequence is the contract, which domain-adaptation
    configs replay from raw words (:func:`_replay_class`) and every other
    config makes call by call (:func:`_synthesize_class`). Work proceeds
    one class at a time, so only one class's repetitions are held.
    """
    gen = as_generator(rng)
    per_class = config.samples_per_class
    n = NUM_CLASSES * per_class
    X = np.empty((n, MAX_POINTS), dtype=float)
    synthesize_class = _replay_class if _replays(config, gen) else _synthesize_class
    for label in range(NUM_CLASSES):
        synthesize_class(label, config, gen, X[label * per_class : (label + 1) * per_class])
    y = np.repeat(np.arange(NUM_CLASSES, dtype=np.int64), per_class)
    if shuffle:
        order = gen.permutation(n)
        X, y = X[order], y[order]
    return X, y
