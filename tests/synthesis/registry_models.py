"""One built model per registered noise spec, for tests that sweep the registry.

A spec registered later is covered without editing its tests: each
factory's required keywords are filled generically -- a nested noise model
for a ``NoiseModel`` argument, ``0.05, 0.1, ...`` in signature order for
the others, so ``lo``/``hi`` pairs span a range -- and its optional
keywords keep their defaults.
"""

from __future__ import annotations

import inspect

from repro.noise.injection import NoiseModel, UniformNoise
from repro.noise.registry import available_noise_models


def build_registered(factory) -> NoiseModel:
    """``factory`` called with every required keyword filled in."""
    kwargs = {}
    level = 0.0
    for param in inspect.signature(factory).parameters.values():
        if param.default is not inspect.Parameter.empty:
            continue
        if param.annotation in (NoiseModel, "NoiseModel"):
            kwargs[param.name] = UniformNoise(0.1)
        else:
            level += 0.05
            kwargs[param.name] = level
    return factory(**kwargs)


def registered_noise_models() -> "dict[str, NoiseModel]":
    """Every registered spec name (aliases included) with a built model."""
    return {
        name: build_registered(entry.factory)
        for name, entry in available_noise_models().items()
    }
