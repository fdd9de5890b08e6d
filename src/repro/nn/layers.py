"""Layers: the base protocol and the dense (fully connected) layer."""

from __future__ import annotations

import numpy as np

from repro.nn.initializers import glorot_uniform, zeros


class Layer:
    """Base class for all layers.

    A layer owns its parameters (``params``) and, after a backward pass, the
    matching gradients (``grads``) keyed by the same names. Stateless layers
    (activations) leave both dictionaries empty.
    """

    def __init__(self) -> None:
        self.params: dict[str, np.ndarray] = {}
        self.grads: dict[str, np.ndarray] = {}

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        """Compute the layer output; caches whatever backward() needs."""
        raise NotImplementedError

    def backward(self, grad: np.ndarray) -> np.ndarray:
        """Given dL/d(output), fill ``grads`` and return dL/d(input)."""
        raise NotImplementedError

    def output_size(self, input_size: int) -> int:
        """Output width given input width (identity for activations)."""
        return input_size

    def spec(self) -> dict:
        """JSON-compatible architecture description (for checkpoints)."""
        return {"type": type(self).__name__}


class Dense(Layer):
    """Fully connected layer: ``y = x @ W + b``, ``W`` Glorot-uniform."""

    def __init__(self, in_features: int, out_features: int, rng=None, dtype=np.float32):
        super().__init__()
        if in_features < 1 or out_features < 1:
            raise ValueError("layer dimensions must be positive")
        self.in_features = in_features
        self.out_features = out_features
        self.dtype = np.dtype(dtype)
        self.params["W"] = glorot_uniform(in_features, out_features, rng, dtype)
        self.params["b"] = zeros(out_features, dtype=dtype)
        self._x: np.ndarray | None = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        x = np.ascontiguousarray(x, dtype=self.dtype)
        if x.ndim != 2 or x.shape[1] != self.in_features:
            raise ValueError(
                f"Dense({self.in_features}->{self.out_features}) got input of shape {x.shape}"
            )
        if training:
            self._x = x
        return x @ self.params["W"] + self.params["b"]

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._x is None:
            raise RuntimeError("backward called before a training-mode forward")
        grad = np.ascontiguousarray(grad, dtype=self.dtype)
        self.grads["W"] = self._x.T @ grad
        self.grads["b"] = grad.sum(axis=0)
        out = grad @ self.params["W"].T
        self._x = None
        return out

    def output_size(self, input_size: int) -> int:
        if input_size != self.in_features:
            raise ValueError(
                f"layer expects {self.in_features} inputs but receives {input_size}"
            )
        return self.out_features

    def spec(self) -> dict:
        # The initializer entry is constant, but it stays: the spec is hashed
        # into weights digests and stored in every ``.npz`` checkpoint.
        return {
            "type": "Dense",
            "in_features": self.in_features,
            "out_features": self.out_features,
            "initializer": "glorot_uniform",
            "dtype": self.dtype.name,
        }

    def __repr__(self) -> str:
        return f"Dense({self.in_features}, {self.out_features})"
