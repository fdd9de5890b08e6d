"""Fused training: one stacked pass trains K same-architecture networks.

Domain adaptation retrains one copy of the generic network per task cluster
(Sec. IV-E), and on small batch sizes the per-call overhead of K separate
``Sequential.fit`` loops dominates. This module stacks the K weight sets
into ``(K, in, out)`` tensors and drives all clusters through batched
``np.matmul`` so NumPy amortizes its dispatch over the whole stack.

The fused path is bit-identical to K independent ``fit`` calls, which the
adaptation cache's determinism contract depends on. That holds because

- every tensor op used here (batched matmul including transposed-stride
  operands, tanh, reductions over the contiguous trailing axes) produces the
  same bits as its per-slice 2-d counterpart,
- each cluster keeps its own RNG stream for the epoch permutations, and
- the optimizer (:class:`AdaMax`, elementwise on the stacks) and the loss
  (:func:`softmax_cross_entropy`, reduced over the trailing axes) are the
  ones ``fit`` runs, and scalar bookkeeping (epoch loss) is computed per
  cluster exactly as the unfused loop does.

All datasets must have the same sample count and the networks identical
architectures -- both guaranteed by the adaptation layer, which generates
``43 * samples_per_class`` rows per cluster from copies of one network.
The networks are built from :class:`Dense` and :class:`Tanh` layers, the
only layers this package has.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.nn.activations import Tanh
from repro.nn.layers import Dense, Layer
from repro.nn.losses import softmax_cross_entropy
from repro.nn.network import Sequential, TrainingHistory
from repro.nn.optimizers import AdaMax
from repro.obs import get_telemetry
from repro.util.seeding import as_generator


class _FusedStack:
    """Stacked weights plus the per-batch forward/backward passes."""

    def __init__(self, networks: Sequence[Sequential]):
        spec0 = [layer.spec() for layer in networks[0].layers]
        for net in networks[1:]:
            if [layer.spec() for layer in net.layers] != spec0:
                raise ValueError("fused training requires identical architectures")
        for layer in networks[0].layers:
            if not isinstance(layer, (Dense, Tanh)):
                raise TypeError(f"fused training cannot run a {type(layer).__name__} layer")
        self.networks = list(networks)
        self.layers: list[Layer] = networks[0].layers
        #: (layer index, name) -> (K, ...) stacks of the live parameters.
        self.params: dict[tuple, np.ndarray] = {}
        for idx, layer in enumerate(self.layers):
            for name in layer.params:
                self.params[(idx, name)] = np.stack(
                    [net.layers[idx].params[name] for net in self.networks]
                )
        self.grads: dict[tuple, np.ndarray] = {}
        self._cache: dict[int, np.ndarray] = {}

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Training-mode forward of a ``(K, B, features)`` batch."""
        out = x
        for idx, layer in enumerate(self.layers):
            if isinstance(layer, Dense):
                out = np.ascontiguousarray(out, dtype=layer.dtype)
                self._cache[idx] = out
                out = np.matmul(out, self.params[(idx, "W")]) + self.params[(idx, "b")][
                    :, None, :
                ]
            else:  # Tanh
                out = np.tanh(out)
                self._cache[idx] = out
        return out

    def backward(self, grad: np.ndarray) -> None:
        for idx in range(len(self.layers) - 1, -1, -1):
            layer = self.layers[idx]
            cached = self._cache.pop(idx)
            if isinstance(layer, Dense):
                grad = np.ascontiguousarray(grad, dtype=layer.dtype)
                self.grads[(idx, "W")] = np.matmul(cached.transpose(0, 2, 1), grad)
                self.grads[(idx, "b")] = grad.sum(axis=1)
                grad = np.matmul(grad, self.params[(idx, "W")].transpose(0, 2, 1))
            else:  # Tanh
                grad = grad * (1.0 - cached * cached)

    def triples(self) -> list[tuple[tuple, np.ndarray, np.ndarray]]:
        return [(key, param, self.grads[key]) for key, param in self.params.items()]

    def write_back(self) -> None:
        """Copy the trained stacks back into the member networks."""
        for (idx, name), stack in self.params.items():
            for k, net in enumerate(self.networks):
                net.layers[idx].params[name] = stack[k].copy()


def fit_fused(
    networks: Sequence[Sequential],
    xs: Sequence[np.ndarray],
    ys: Sequence[np.ndarray],
    epochs: int = 1,
    batch_size: int = 128,
    learning_rate: float = 0.002,
    rngs: "Sequence | None" = None,
) -> list[TrainingHistory]:
    """Train K networks on K datasets through one stacked loop.

    ``networks[k]`` is trained in place on ``(xs[k], ys[k])`` with AdaMax and
    softmax cross-entropy, shuffled by ``rngs[k]`` -- producing weights
    bit-identical to ``networks[k].fit(xs[k], ys[k], ...)`` with the same
    stream. All datasets must share one sample count.
    """
    if not networks:
        raise ValueError("fused training needs at least one network")
    if len(xs) != len(networks) or len(ys) != len(networks):
        raise ValueError("one dataset (x, y) is required per network")
    if epochs < 1 or batch_size < 1:
        raise ValueError("epochs and batch_size must be positive")
    x_stack = np.stack([np.asarray(x, dtype=np.float32) for x in xs])
    y_stack = np.stack([np.asarray(y) for y in ys])
    n_networks, n, _ = x_stack.shape
    if y_stack.shape != (n_networks, n):
        raise ValueError("y must hold one label row per network")
    gens = [as_generator(rng) for rng in (rngs if rngs is not None else [None] * n_networks)]
    if len(gens) != n_networks:
        raise ValueError("one rng is required per network")

    stack = _FusedStack(networks)
    optimizer = AdaMax(learning_rate)
    histories = [TrainingHistory() for _ in range(n_networks)]
    rows = np.arange(n_networks)[:, None]
    telemetry = get_telemetry()
    with telemetry.tracer.span(
        "nn.fit_fused", clusters=n_networks, epochs=epochs, samples=n, batch_size=batch_size
    ):
        for _ in range(epochs):
            orders = np.stack([gen.permutation(n) for gen in gens])
            epoch_loss = [0.0] * n_networks
            epoch_correct = [0.0] * n_networks
            for start in range(0, n, batch_size):
                idx = orders[:, start : start + batch_size]
                xb = x_stack[rows, idx]
                yb = y_stack[rows, idx]
                out = stack.forward(xb)
                losses, grad = softmax_cross_entropy(out, yb)
                if not np.all(np.isfinite(losses)):
                    bad = int(np.flatnonzero(~np.isfinite(losses))[0])
                    raise RuntimeError(
                        f"training diverged (non-finite loss) in fused cluster {bad}; "
                        "lower the learning rate or check the input normalization"
                    )
                stack.backward(grad)
                optimizer.step(stack.triples())
                for k in range(n_networks):
                    epoch_loss[k] += float(losses[k]) * idx.shape[1]
                    epoch_correct[k] += np.sum(np.argmax(out[k], axis=1) == yb[k])
            for k, history in enumerate(histories):
                history.loss.append(epoch_loss[k] / n)
                history.accuracy.append(float(epoch_correct[k]) / n)
    stack.write_back()
    return histories
