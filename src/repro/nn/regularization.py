"""Regularization layers."""

from __future__ import annotations

import numpy as np

from repro.nn.layers import Layer
from repro.util.seeding import as_generator


class Dropout(Layer):
    """Inverted dropout: active in training mode, identity at inference.

    Keeps activations unbiased by scaling the surviving units by
    ``1 / (1 - rate)`` during training, so inference needs no rescaling.
    """

    def __init__(self, rate: float, rng=None):
        super().__init__()
        if not 0.0 <= rate < 1.0:
            raise ValueError("dropout rate must lie in [0, 1)")
        self.rate = float(rate)
        self._rng = as_generator(rng if rng is not None else 0)
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        # Exact 0.0 guard: rate is set verbatim from the constructor argument,
        # never computed, so equality is the precise "dropout disabled"
        # sentinel.
        if not training or self.rate == 0.0:
            return x
        keep = 1.0 - self.rate
        self._mask = (self._rng.random(x.shape) < keep) / keep
        return x * self._mask

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise RuntimeError("backward called before a training-mode forward")
        out = grad * self._mask
        self._mask = None
        return out

    def spec(self) -> dict:
        return {"type": "Dropout", "rate": self.rate}

    def __repr__(self) -> str:
        return f"Dropout({self.rate})"
