"""The hidden-layer activation."""

from __future__ import annotations

import numpy as np

from repro.nn.layers import Layer


class Tanh(Layer):
    """Hyperbolic tangent -- the paper's hidden-layer activation."""

    def __init__(self) -> None:
        super().__init__()
        self._out: np.ndarray | None = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        out = np.tanh(x)
        if training:
            self._out = out
        return out

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._out is None:
            raise RuntimeError("backward called before a training-mode forward")
        out = grad * (1.0 - self._out * self._out)
        self._out = None
        return out

    def __repr__(self) -> str:
        return "Tanh()"
