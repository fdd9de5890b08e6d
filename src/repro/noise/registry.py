"""String-spec noise registry: ``create_noise("tainted(level=0.05, p=0.1)")``.

One construction seam for every :class:`~repro.noise.injection.NoiseModel`,
shared by the CLI (``--noise``) and the degradation sweep. Specs follow the
grammar of :mod:`repro.util.spec`; ``inner`` takes a nested noise spec, so
``systematic(inner=gamma(shape=2.0, scale=0.13), scale=0.1)`` builds a
composed model.

Every model is registered both under a short sweep name (``uniform``,
``tainted``, ``drift``, ...) and under its class name, and all noise reprs
use keyword form -- so ``repr(model)`` is always a valid spec and
``create_noise(repr(model))`` round-trips.

Entries carry an ``axis`` attribute naming the keyword that a degradation
sweep binds its per-cell value to (``level`` for uniform noise, ``p`` for
contamination, ``drift`` for drift, ...); :func:`noise_for_level` is the
binding helper the sweep driver uses.
"""

from __future__ import annotations

from repro.noise.injection import (
    DriftNoise,
    GammaLevelNoise,
    GaussianNoise,
    HeteroscedasticNoise,
    LognormalSpikeNoise,
    NoiseModel,
    NoNoise,
    SystematicErrorNoise,
    TaintedRepetitionNoise,
    UniformLevelRangeNoise,
    UniformNoise,
)
from repro.util.spec import SpecEntry, SpecRegistry

NOISE = SpecRegistry("noise model", builds=NoiseModel)
NOISE.nested["inner"] = NOISE

register_noise = NOISE.register
available_noise_models = NOISE.available
validate_noise_spec = NOISE.validate
#: Build a noise model from a spec string, e.g. ``"tainted(p=0.1)"``; built
#: :class:`NoiseModel` instances pass through unchanged.
create_noise = NOISE.create


def noise_axis(spec: str) -> str:
    """The sweep-axis keyword of ``spec``'s registered model (or raise)."""
    return _sweep_axis(NOISE.validate(spec)[0])


def _sweep_axis(entry: SpecEntry) -> str:
    if entry.axis is None:
        raise ValueError(
            f"noise model {entry.name!r} has no sweep axis; give one of "
            f"{', '.join(n for n, e in NOISE.available().items() if e.axis)}"
        )
    return entry.axis


def noise_for_level(spec: str, value: float) -> NoiseModel:
    """Bind a sweep-cell value to ``spec``'s axis keyword and build it.

    ``noise_for_level("uniform", 0.2)`` is ``UniformNoise(level=0.2)`` --
    the historical sweep behaviour -- while
    ``noise_for_level("tainted(level=0.05)", 0.2)`` is a contamination
    sweep cell with ``p=0.2``. The axis keyword always wins over a value
    in the spec string. The spec is validated once; the axis needs no
    check of its own, since registration refuses an axis that is not a
    keyword of the factory.
    """
    entry, kwargs = NOISE.validate(spec)
    kwargs[_sweep_axis(entry)] = float(value)
    return NOISE.build(entry, kwargs)


# ------------------------------------------------------------------ builtins
register_noise("clean", NoNoise, description="identity: calm, noise-free measurements")
register_noise(
    "uniform", UniformNoise, axis="level", description="the paper's multiplicative U(-n/2, +n/2)"
)
register_noise(
    "gaussian", GaussianNoise, axis="level", description="multiplicative Gaussian, sigma = level/4"
)
register_noise(
    "uniform_range",
    UniformLevelRangeNoise,
    axis="hi",
    description="uniform noise with a per-call level drawn from [lo, hi]",
)
register_noise(
    "gamma",
    GammaLevelNoise,
    axis="scale",
    description="uniform noise with a clipped-Gamma per-point level (Kripke profile)",
)
register_noise(
    "spike",
    LognormalSpikeNoise,
    axis="spike_probability",
    description="uniform base plus rare lognormal slowdown spikes (FASTEST profile)",
)
register_noise(
    "systematic",
    SystematicErrorNoise,
    axis="scale",
    description="wrap another model with a per-point systematic lognormal factor",
)
register_noise(
    "tainted",
    TaintedRepetitionNoise,
    axis="p",
    description="Copik-style contamination: each repetition tainted with probability p",
)
register_noise(
    "heteroscedastic",
    HeteroscedasticNoise,
    axis="hi",
    description="per-element level as a function of the true value or element index",
)
register_noise(
    "drift",
    DriftNoise,
    axis="drift",
    description="uniform base plus a slow multiplicative drift across repetitions",
)
