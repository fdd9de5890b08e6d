"""The range-of-relative-deviation noise estimator (paper Eqs. 3-4).

For every measurement point the repetitions' relative deviations from their
sample mean are computed (Eq. 3); the deviations of *all* points are pooled
into one set ``D_V`` and the estimated noise level is
``rrd = max(D_V) - min(D_V)`` (Eq. 4). Pooling is the trick: a single
point's deviations rarely span the full noise range, but across many points
the off-center shifts cancel, so the pooled range approaches the true level
(overshooting somewhat for large point counts -- see
:func:`repetition_bias_factor`). The paper reports a mean estimation error
of 4.93 % for this heuristic;
``benchmarks/test_bench_noise_estimator.py`` reproduces that experiment.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

import numpy as np

from repro.experiment.experiment import Experiment, Kernel
from repro.experiment.measurement import Measurement, stacked_by_repetitions
from repro.util.seeding import as_generator


def _measurement_list(
    source: "Experiment | Kernel | Iterable[Measurement]",
) -> list[Measurement]:
    if isinstance(source, Experiment):
        out: list[Measurement] = []
        for kern in source.kernels:
            out.extend(kern.measurements)
        return out
    if isinstance(source, Kernel):
        return list(source.measurements)
    return list(source)


def pooled_relative_deviations(
    source: "Experiment | Kernel | Iterable[Measurement]",
) -> np.ndarray:
    """The set ``D_V``: relative deviations of all repetitions of all points.

    Bitwise the concatenated :meth:`Measurement.relative_deviations`,
    grouped by repetition count (one mean per count instead of one per
    measurement); within a count, measurements keep their order.
    """
    measurements = _measurement_list(source)
    if not measurements:
        raise ValueError("no measurements to estimate noise from")
    pooled = []
    for _, stacked in stacked_by_repetitions(measurements):
        means = stacked.mean(axis=1, keepdims=True)
        # An exactly zero mean yields zero deviations, as in
        # Measurement.relative_deviations: those rows are not divided.
        deviations = np.divide(
            stacked - means, means, out=np.zeros_like(stacked), where=means.astype(bool)
        )
        pooled.append(deviations.ravel())
    return np.concatenate(pooled)


def estimate_noise_level(
    source: "Experiment | Kernel | Iterable[Measurement]",
    *,
    robust: bool = False,
    taint_factor: float = 3.0,
) -> float:
    """Estimate the noise level via ``rrd(D_V) = max(D_V) - min(D_V)``.

    Returns a fraction (``0.10`` = 10 % noise). Points with a single
    repetition contribute a zero deviation, so an experiment without any
    repeated measurements estimates to zero noise -- a degenerate case that
    says nothing about the true noise level, so it is flagged with a
    :class:`RuntimeWarning` rather than silently reported as noise-free.

    ``robust=True`` switches to a median/MAD estimate: ``4 * MAD(D_V)``,
    which is exact for uniform noise (the MAD of ``U(-n/2, +n/2)`` is
    ``n/4``) but, unlike the range, is insensitive to a minority of tainted
    repetitions. In robust mode both estimates are computed, and if the
    classic pooled range exceeds the robust estimate by more than
    ``taint_factor`` a :class:`RuntimeWarning` flags likely contamination
    -- a cheap taint detector: gross outliers stretch the range but barely
    move the MAD. Pass ``taint_factor=None`` to disable the check.
    """
    measurements = _measurement_list(source)
    if measurements and all(m.repetitions == 1 for m in measurements):
        warnings.warn(
            "all measurements have a single repetition; the noise level "
            "cannot be estimated and 0.0 is returned -- repeat measurements "
            "to enable noise estimation",
            RuntimeWarning,
            stacklevel=2,
        )
        return 0.0
    deviations = pooled_relative_deviations(measurements)
    classic = float(np.max(deviations) - np.min(deviations))
    if not robust:
        return classic
    median = float(np.median(deviations))
    mad = float(np.median(np.abs(deviations - median)))
    robust_estimate = 4.0 * mad
    if taint_factor is not None and classic > taint_factor * max(robust_estimate, 1e-12):
        warnings.warn(
            f"classic pooled noise estimate ({classic * 100:.2f}%) exceeds "
            f"the robust median/MAD estimate ({robust_estimate * 100:.2f}%) "
            f"by more than {taint_factor}x -- the measurements likely "
            "contain tainted repetitions; consider a robust pre-filter "
            "(repro.modeling.prefilter)",
            RuntimeWarning,
            stacklevel=2,
        )
    return robust_estimate


def noise_levels_per_point(
    source: "Experiment | Kernel | Iterable[Measurement]",
) -> np.ndarray:
    """Per-measurement-point rrd values (the distributions of Fig. 5)."""
    measurements = _measurement_list(source)
    if not measurements:
        raise ValueError("no measurements to estimate noise from")
    levels = []
    for meas in measurements:
        dev = meas.relative_deviations()
        levels.append(float(np.max(dev) - np.min(dev)))
    return np.asarray(levels)


@dataclass(frozen=True)
class NoiseSummary:
    """Summary statistics of per-point noise levels, as annotated in Fig. 5."""

    mean: float
    median: float
    minimum: float
    maximum: float
    pooled: float  # the experiment-level rrd estimate
    n_points: int

    def format(self) -> str:
        return (
            f"n̄={self.mean * 100:.2f}%  ñ={self.median * 100:.2f}%  "
            f"n_min={self.minimum * 100:.2f}%  n_max={self.maximum * 100:.2f}%  "
            f"(pooled rrd {self.pooled * 100:.2f}%, {self.n_points} points)"
        )


def summarize_noise(
    source: "Experiment | Kernel | Iterable[Measurement]",
) -> NoiseSummary:
    """Summarize the noise distribution of an experiment (Fig. 5 panels)."""
    levels = noise_levels_per_point(source)
    return NoiseSummary(
        mean=float(np.mean(levels)),
        median=float(np.median(levels)),
        minimum=float(np.min(levels)),
        maximum=float(np.max(levels)),
        pooled=estimate_noise_level(source),
        n_points=int(levels.size),
    )


#: Default seed of the bias-factor Monte-Carlo simulation. Kept as an
#: explicit constant so callers that thread their own generator can still
#: reproduce the historical cached values by passing ``rng=DEFAULT_BIAS_SEED``.
DEFAULT_BIAS_SEED = 0xB1A5


def repetition_bias_factor(
    repetitions: int,
    n_points: int = 1,
    trials: int = 3000,
    rng: "np.random.Generator | int | None" = DEFAULT_BIAS_SEED,
) -> float:
    """Expected ``rrd / n`` ratio for uniform noise -- the estimator's bias.

    With few points the deviations cannot span the full noise range, so rrd
    *under*-estimates (a single point with 5 repetitions covers ~2/3 of the
    range in expectation). With many points the per-point mean-centering
    lets individual deviations exceed ``n/2`` (``u_i - ū`` has support
    ``(-n, n)``), so the pooled range *over*-shoots the level by up to
    ~25 %. No convenient closed form covers both regimes, so the factor is
    estimated by Monte-Carlo simulation.

    ``rng`` follows the library-wide convention (:mod:`repro.util.seeding`):
    a generator, an integer seed, or ``None``. Integer seeds (including the
    default) are memoized per ``(repetitions, n_points, trials, seed)``;
    generator/``None`` arguments bypass the memo, since their draws are
    caller-controlled state.
    """
    if repetitions < 1 or n_points < 1:
        raise ValueError("repetitions and n_points must be positive")
    if repetitions == 1:
        return 0.0
    if isinstance(rng, (int, np.integer)):
        return _bias_factor_seeded(repetitions, n_points, trials, int(rng))
    return _simulate_bias_factor(repetitions, n_points, trials, as_generator(rng))


@lru_cache(maxsize=256)
def _bias_factor_seeded(repetitions: int, n_points: int, trials: int, seed: int) -> float:
    return _simulate_bias_factor(repetitions, n_points, trials, as_generator(seed))


def _simulate_bias_factor(
    repetitions: int, n_points: int, trials: int, gen: np.random.Generator
) -> float:
    u = gen.uniform(-0.5, 0.5, size=(trials, n_points, repetitions))
    centered = (u - u.mean(axis=2, keepdims=True)).reshape(trials, -1)
    rrd = centered.max(axis=1) - centered.min(axis=1)
    return float(rrd.mean())


def estimate_noise_level_corrected(
    source: "Experiment | Kernel | Iterable[Measurement]",
    rng: "np.random.Generator | int | None" = DEFAULT_BIAS_SEED,
) -> float:
    """Bias-corrected variant of :func:`estimate_noise_level`.

    Divides the raw rrd by :func:`repetition_bias_factor` (whose simulation
    stream ``rng`` controls); an extension beyond the paper (which uses the
    raw heuristic), exposed for the estimator ablation benchmark.
    """
    measurements = _measurement_list(source)
    raw = estimate_noise_level(measurements)
    reps = int(round(float(np.mean([m.repetitions for m in measurements]))))
    factor = repetition_bias_factor(max(reps, 2), len(measurements), rng=rng)
    return raw / factor if factor > 0 else raw
