"""Noise modeling: injection for synthesis, estimation for real data.

The paper assumes (by the principle of indifference) that measurement noise
is uniformly distributed: a noise level of ``n`` means each measured value is
the true value times ``1 + U(-n/2, +n/2)``, so ``n = 10%`` corresponds to a
deviation of up to ±5 % (Sec. IV-D). :mod:`repro.noise.injection` implements
that model (plus alternatives used for robustness tests), and
:mod:`repro.noise.estimation` implements the range-of-relative-deviation
heuristic (Eqs. 3-4) that recovers ``n`` from repeated measurements.
"""

from repro.noise.injection import (
    NoiseModel,
    NoNoise,
    UniformNoise,
    GaussianNoise,
    UniformLevelRangeNoise,
    GammaLevelNoise,
    LognormalSpikeNoise,
    SystematicErrorNoise,
    TaintedRepetitionNoise,
    HeteroscedasticNoise,
    DriftNoise,
)
from repro.noise.registry import (
    available_noise_models,
    create_noise,
    noise_axis,
    noise_for_level,
    validate_noise_spec,
)
from repro.noise.estimation import (
    DEFAULT_BIAS_SEED,
    estimate_noise_level,
    estimate_noise_level_corrected,
    noise_levels_per_point,
    NoiseSummary,
    summarize_noise,
    repetition_bias_factor,
)
from repro.noise.classification import NoiseClass, classify_noise, DEFAULT_THRESHOLDS

__all__ = [
    "NoiseModel",
    "NoNoise",
    "UniformNoise",
    "GaussianNoise",
    "UniformLevelRangeNoise",
    "GammaLevelNoise",
    "LognormalSpikeNoise",
    "SystematicErrorNoise",
    "TaintedRepetitionNoise",
    "HeteroscedasticNoise",
    "DriftNoise",
    "available_noise_models",
    "create_noise",
    "noise_axis",
    "noise_for_level",
    "validate_noise_spec",
    "DEFAULT_BIAS_SEED",
    "estimate_noise_level",
    "estimate_noise_level_corrected",
    "noise_levels_per_point",
    "NoiseSummary",
    "summarize_noise",
    "repetition_bias_factor",
    "NoiseClass",
    "classify_noise",
    "DEFAULT_THRESHOLDS",
]
