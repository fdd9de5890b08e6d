"""Noise models used to perturb synthetic measurements.

All levels are expressed as fractions (``0.10`` = 10 %), matching the
paper's convention that level ``n`` perturbs multiplicatively by
``U(-n/2, +n/2)``.
"""

from __future__ import annotations

import abc

import numpy as np

from repro.util.seeding import as_generator
from repro.util.validation import require_in_range


class NoiseModel(abc.ABC):
    """Strategy object perturbing an array of true values.

    One :meth:`apply` call perturbs the repetitions of one measurement
    point; :meth:`apply_rows` perturbs many points, one per row, and must
    draw exactly what one :meth:`apply` call per row would draw.
    """

    @abc.abstractmethod
    def apply(self, values: np.ndarray, rng: "np.random.Generator | int | None" = None) -> np.ndarray:
        """Return a noisy copy of ``values`` (the input is not modified)."""

    def apply_rows(self, values: np.ndarray, rng: "np.random.Generator | int | None" = None) -> np.ndarray:
        """Noisy copy of a ``(k, r)`` array: row ``i`` holds the repetitions of point ``i``.

        The default calls :meth:`apply` once per row, in row order, on one
        generator -- the per-point ``Generator`` call order synthesis has
        always had. A model may replace it with one batched draw only where
        that draw is bitwise equal and leaves the generator in the same
        state, which ``tests/noise/test_batched_draw.py`` checks for every
        registered spec.
        """
        gen = as_generator(rng)
        values = np.asarray(values, dtype=float)
        return np.array([self.apply(row, gen) for row in values]).reshape(values.shape)

    @abc.abstractmethod
    def nominal_level(self) -> float:
        """Representative noise level, used for reporting and calibration."""


class NoNoise(NoiseModel):
    """Identity noise model (calm measurements)."""

    def apply(self, values: np.ndarray, rng=None) -> np.ndarray:
        return np.array(values, dtype=float, copy=True)

    apply_rows = apply

    def nominal_level(self) -> float:
        return 0.0

    def __repr__(self) -> str:
        return "NoNoise()"


class UniformNoise(NoiseModel):
    """The paper's noise model: multiplicative ``U(-level/2, +level/2)``."""

    def __init__(self, level: float):
        self.level = require_in_range("noise level", level, 0.0, 10.0)

    def apply(self, values: np.ndarray, rng=None) -> np.ndarray:
        gen = as_generator(rng)
        values = np.asarray(values, dtype=float)
        half = self.level / 2.0
        return values * (1.0 + gen.uniform(-half, half, size=values.shape))

    # One draw of ``values.shape`` is the per-row draws back to back.
    apply_rows = apply

    def nominal_level(self) -> float:
        return self.level

    def __repr__(self) -> str:
        # All noise reprs use keyword form: each doubles as a valid noise
        # spec (see :mod:`repro.noise.registry`) besides eval-able Python.
        return f"UniformNoise(level={self.level!r})"


class GaussianNoise(NoiseModel):
    """Multiplicative Gaussian noise with ``sigma = level / 4``.

    ``±2 sigma`` then spans the same range as :class:`UniformNoise` of equal
    level; used by robustness tests of the estimator, which the paper's
    uniformity assumption should approximately survive.
    """

    def __init__(self, level: float):
        self.level = require_in_range("noise level", level, 0.0, 10.0)

    def apply(self, values: np.ndarray, rng=None) -> np.ndarray:
        gen = as_generator(rng)
        values = np.asarray(values, dtype=float)
        return values * (1.0 + gen.normal(0.0, self.level / 4.0, size=values.shape))

    # One draw of ``values.shape`` is the per-row draws back to back.
    apply_rows = apply

    def nominal_level(self) -> float:
        return self.level

    def __repr__(self) -> str:
        return f"GaussianNoise(level={self.level!r})"


class UniformLevelRangeNoise(NoiseModel):
    """Uniform noise whose level is itself drawn per call from ``[lo, hi]``.

    This is the augmentation used for domain adaptation: the retraining set
    draws a fresh noise level from the range observed in the measurements
    (e.g. ``[3.66, 53.67] %`` for Kripke) for every synthetic sample.
    """

    def __init__(self, lo: float, hi: float):
        self.lo = require_in_range("lo", lo, 0.0, 10.0)
        self.hi = require_in_range("hi", hi, 0.0, 10.0)
        if hi < lo:
            raise ValueError(f"empty level range [{lo}, {hi}]")

    def apply(self, values: np.ndarray, rng=None) -> np.ndarray:
        gen = as_generator(rng)
        level = gen.uniform(self.lo, self.hi)
        return UniformNoise(level).apply(values, gen)

    def nominal_level(self) -> float:
        return (self.lo + self.hi) / 2.0

    def __repr__(self) -> str:
        return f"UniformLevelRangeNoise(lo={self.lo!r}, hi={self.hi!r})"


class GammaLevelNoise(NoiseModel):
    """Uniform noise whose per-point level follows a clipped Gamma law.

    Matches the right-skewed noise profile the paper measures on Kripke
    (Fig. 5: most points mildly noisy, "high noise levels occur only
    rarely"): for every measurement point a level is drawn from
    ``Gamma(shape, scale)`` and clipped into ``[lo, hi]``.
    """

    def __init__(self, shape: float, scale: float, lo: float = 0.0, hi: float = 2.0):
        if shape <= 0 or scale <= 0:
            raise ValueError("gamma shape and scale must be positive")
        self.shape = float(shape)
        self.scale = float(scale)
        self.lo = require_in_range("lo", lo, 0.0, 10.0)
        self.hi = require_in_range("hi", hi, 0.0, 10.0)
        if hi < lo:
            raise ValueError(f"empty level range [{lo}, {hi}]")

    def apply(self, values: np.ndarray, rng=None) -> np.ndarray:
        gen = as_generator(rng)
        level = float(np.clip(gen.gamma(self.shape, self.scale), self.lo, self.hi))
        return UniformNoise(level).apply(values, gen)

    def nominal_level(self) -> float:
        return float(np.clip(self.shape * self.scale, self.lo, self.hi))

    def __repr__(self) -> str:
        return (
            f"GammaLevelNoise(shape={self.shape!r}, scale={self.scale!r}, "
            f"lo={self.lo!r}, hi={self.hi!r})"
        )


class LognormalSpikeNoise(NoiseModel):
    """Uniform base noise plus rare multiplicative slowdown spikes.

    Models congestion-type interference (FASTEST-like measurements, where
    per-point noise reaches 160 %): with probability ``spike_probability`` a
    repetition is slowed down by a lognormal factor. Only slowdowns are
    generated -- interference never makes a run faster.

    """

    def __init__(self, level: float, spike_probability: float = 0.1, spike_scale: float = 0.5):
        self.base = UniformNoise(level)
        self.spike_probability = require_in_range("spike_probability", spike_probability, 0.0, 1.0)
        self.spike_scale = require_in_range("spike_scale", spike_scale, 0.0, 5.0)

    def apply(self, values: np.ndarray, rng=None) -> np.ndarray:
        gen = as_generator(rng)
        values = self.base.apply(values, gen)
        spikes = gen.random(values.shape) < self.spike_probability
        factors = np.exp(np.abs(gen.normal(0.0, self.spike_scale, size=values.shape)))
        return np.where(spikes, values * factors, values)

    def nominal_level(self) -> float:
        return self.base.level

    def __repr__(self) -> str:
        # Keyword form so the repr is a valid noise spec (see
        # :mod:`repro.noise.registry`) as well as eval-able Python.
        return (
            f"LognormalSpikeNoise(level={self.base.level!r}, "
            f"spike_probability={self.spike_probability!r}, "
            f"spike_scale={self.spike_scale!r})"
        )


class SystematicErrorNoise(NoiseModel):
    """Wrap a noise model with a per-point *systematic* lognormal factor.

    The factor is drawn once per call (i.e. per measurement point) and
    multiplies all repetitions equally, modelling interference that
    persists across the repeated runs of one configuration -- same job
    placement, same noisy neighbours, same filesystem contention. Because
    every repetition shifts together, taking the median does *not* cancel
    this component: the medians themselves are systematically off, which is
    what makes heavy congestion (the FASTEST campaign) destroy
    regression-based extrapolation in the paper. Note that the within-point
    relative deviations (Eq. 3) are unaffected, so the rrd noise estimate
    does not see this component either -- a fundamental blind spot of any
    repetition-based estimator.

    ``slowdown_only`` restricts the factor to >= 1 (congestion only ever
    slows runs down); otherwise the factor is symmetric in log space.
    """

    def __init__(self, inner: NoiseModel, scale: float, slowdown_only: bool = False):
        self.inner = inner
        self.scale = require_in_range("scale", scale, 0.0, 5.0)
        self.slowdown_only = bool(slowdown_only)

    def apply(self, values: np.ndarray, rng=None) -> np.ndarray:
        gen = as_generator(rng)
        out = self.inner.apply(values, gen)
        draw = gen.normal(0.0, self.scale)
        factor = np.exp(abs(draw) if self.slowdown_only else draw)
        return out * factor

    def nominal_level(self) -> float:
        return self.inner.nominal_level()

    def __repr__(self) -> str:
        # Keyword form so the repr is a valid noise spec (see
        # :mod:`repro.noise.registry`) as well as eval-able Python.
        return (
            f"SystematicErrorNoise(inner={self.inner!r}, scale={self.scale!r}, "
            f"slowdown_only={self.slowdown_only!r})"
        )


class TaintedRepetitionNoise(NoiseModel):
    """Copik-style contamination: repetitions are independently *tainted*.

    Every repetition first receives the uniform base noise, then with
    probability ``p`` it is replaced by an outlier draw: the true value
    multiplied by ``exp(|N(outlier_location, outlier_scale)|)`` (a gross
    slowdown, e.g. a co-running job or an OS hiccup). With
    ``slowdown_only=False`` the sign of the normal draw is kept, so taint
    can also make runs look impossibly fast (clock skew, dropped timers).

    This is the contamination model of Copik et al., "Extracting Clean
    Performance Models from Tainted Programs": a fraction of repetitions
    carries no information about the true runtime, and any non-robust
    aggregate (the mean in particular) is pulled arbitrarily far away.
    """

    def __init__(
        self,
        level: float,
        p: float = 0.1,
        outlier_location: float = 1.0,
        outlier_scale: float = 1.0,
        slowdown_only: bool = True,
    ):
        self.base = UniformNoise(level)
        self.p = require_in_range("p", p, 0.0, 1.0)
        self.outlier_location = require_in_range("outlier_location", outlier_location, 0.0, 10.0)
        self.outlier_scale = require_in_range("outlier_scale", outlier_scale, 0.0, 10.0)
        self.slowdown_only = bool(slowdown_only)

    def apply_with_mask(
        self, values: np.ndarray, rng=None
    ) -> "tuple[np.ndarray, np.ndarray]":
        """Like :meth:`apply` but also return the boolean taint mask.

        Consumes the RNG in exactly the same order as :meth:`apply`, so
        ``apply_with_mask(v, seed)[0]`` is bit-identical to
        ``apply(v, seed)``. Tests use the mask to check that the MAD
        pre-filter drops precisely the tainted repetitions.
        """
        gen = as_generator(rng)
        true = np.asarray(values, dtype=float)
        noisy = self.base.apply(true, gen)
        tainted = gen.random(true.shape) < self.p
        draws = gen.normal(self.outlier_location, self.outlier_scale, size=true.shape)
        if self.slowdown_only:
            draws = np.abs(draws)
        outliers = true * np.exp(draws)
        return np.where(tainted, outliers, noisy), tainted

    def apply(self, values: np.ndarray, rng=None) -> np.ndarray:
        return self.apply_with_mask(values, rng)[0]

    def nominal_level(self) -> float:
        return self.base.level

    def __repr__(self) -> str:
        return (
            f"TaintedRepetitionNoise(level={self.base.level!r}, p={self.p!r}, "
            f"outlier_location={self.outlier_location!r}, "
            f"outlier_scale={self.outlier_scale!r}, "
            f"slowdown_only={self.slowdown_only!r})"
        )


class HeteroscedasticNoise(NoiseModel):
    """Uniform noise whose level varies deterministically per element.

    ``mode="value"`` scales the level with the true runtime: level ``lo``
    for tiny runs saturating towards ``hi`` as the value grows past
    ``pivot`` (``level = lo + (hi - lo) * v / (v + pivot)``) -- long runs
    accumulate more interference. ``mode="index"`` ramps the level
    linearly over the element index instead, modelling a measurement
    session that degrades over time.

    The per-element level is a deterministic function of the inputs, so
    unlike :class:`GammaLevelNoise` no extra RNG draws are spent on it.
    """

    def __init__(self, lo: float, hi: float, mode: str = "value", pivot: float = 100.0):
        self.lo = require_in_range("lo", lo, 0.0, 10.0)
        self.hi = require_in_range("hi", hi, 0.0, 10.0)
        if hi < lo:
            raise ValueError(f"empty level range [{lo}, {hi}]")
        if mode not in ("value", "index"):
            raise ValueError(f"unknown heteroscedastic mode {mode!r}")
        self.mode = mode
        if pivot <= 0:
            raise ValueError("pivot must be positive")
        self.pivot = float(pivot)

    def _levels(self, values: np.ndarray) -> np.ndarray:
        if self.mode == "value":
            v = np.abs(values)
            return self.lo + (self.hi - self.lo) * v / (v + self.pivot)
        n = values.size
        ramp = np.linspace(0.0, 1.0, n) if n > 1 else np.zeros(n)
        return (self.lo + (self.hi - self.lo) * ramp).reshape(values.shape)

    def apply(self, values: np.ndarray, rng=None) -> np.ndarray:
        gen = as_generator(rng)
        values = np.asarray(values, dtype=float)
        half = self._levels(values) / 2.0
        return values * (1.0 + gen.uniform(-1.0, 1.0, size=values.shape) * half)

    def nominal_level(self) -> float:
        return (self.lo + self.hi) / 2.0

    def __repr__(self) -> str:
        return (
            f"HeteroscedasticNoise(lo={self.lo!r}, hi={self.hi!r}, "
            f"mode={self.mode!r}, pivot={self.pivot!r})"
        )


class DriftNoise(NoiseModel):
    """Uniform base noise plus a slow multiplicative drift across repetitions.

    One slope is drawn per call from ``U(-drift, +drift)``; element ``j``
    of ``n`` is then multiplied by ``1 + slope * (j / (n - 1) - 0.5)``, a
    linear ramp centred on the call. Since one ``apply`` call covers the
    repetitions of a single measurement point (see
    ``synthesis.measurements``), this models interference that builds up
    or fades while one configuration is being repeated -- e.g. a
    co-running job spinning up. The repetitions stop being exchangeable,
    which violates the i.i.d. assumption behind pooled noise estimates.
    """

    def __init__(self, level: float, drift: float = 0.2):
        self.base = UniformNoise(level)
        self.drift = require_in_range("drift", drift, 0.0, 2.0)

    def apply(self, values: np.ndarray, rng=None) -> np.ndarray:
        gen = as_generator(rng)
        values = self.base.apply(values, gen)
        slope = gen.uniform(-self.drift, self.drift)
        n = values.size
        if n <= 1:
            return values
        ramp = (np.arange(n) / (n - 1) - 0.5).reshape(values.shape)
        return values * (1.0 + slope * ramp)

    def nominal_level(self) -> float:
        return self.base.level

    def __repr__(self) -> str:
        return f"DriftNoise(level={self.base.level!r}, drift={self.drift!r})"
