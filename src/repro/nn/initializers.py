"""Weight initializers."""

from __future__ import annotations

import numpy as np

from repro.util.seeding import as_generator


def glorot_uniform(
    fan_in: int, fan_out: int, rng=None, dtype=np.float32
) -> np.ndarray:
    """Glorot/Xavier uniform: ``U(-a, a)`` with ``a = sqrt(6 / (in + out))``.

    The standard choice for tanh networks like the paper's: it keeps
    activation variance roughly constant across layers at initialization.
    """
    gen = as_generator(rng)
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return gen.uniform(-limit, limit, size=(fan_in, fan_out)).astype(dtype)


def zeros(*shape: int, dtype=np.float32) -> np.ndarray:
    """All-zero initializer (biases)."""
    return np.zeros(shape, dtype=dtype)
