"""AdaMax, the optimizer the paper trains with.

AdaMax (Kingma & Ba 2015, Sec. 7) is Adam with the second moment replaced
by an exponentially weighted infinity norm, which makes the per-weight step
size insensitive to rare large gradients -- convenient when the synthetic
training data spans six decades of coefficients.

Optimizer state is keyed by ``(layer index, parameter name)``, so one
optimizer instance can only drive one network (or one fused stack) at a
time.
"""

from __future__ import annotations

import numpy as np


class AdaMax:
    """AdaMax -- the paper's training optimizer.

    The moment updates are elementwise, so the same instance drives a single
    network's parameters and the fused trainer's ``(K, ...)`` parameter
    stacks: applied to a stack, it produces per slice the bits K independent
    optimizers would. One iteration counter serves the whole stack because
    the fused clusters step in lockstep (same sample count, same batch size).
    """

    def __init__(
        self,
        learning_rate: float = 0.002,
        beta1: float = 0.9,
        beta2: float = 0.999,
        epsilon: float = 1e-8,
    ):
        if learning_rate <= 0:
            raise ValueError("learning rate must be positive")
        if not (0 <= beta1 < 1 and 0 <= beta2 < 1):
            raise ValueError("betas must lie in [0, 1)")
        self.learning_rate = float(learning_rate)
        self.beta1, self.beta2, self.epsilon = float(beta1), float(beta2), float(epsilon)
        self.iterations = 0
        self._m: dict[tuple, np.ndarray] = {}
        self._u: dict[tuple, np.ndarray] = {}

    def step(self, params_and_grads: list[tuple[tuple, np.ndarray, np.ndarray]]) -> None:
        """Apply one update.

        ``params_and_grads`` holds ``(key, parameter, gradient)`` triples;
        parameters are updated in place.
        """
        self.iterations += 1
        step = self.learning_rate / (1 - self.beta1**self.iterations)
        for key, param, grad in params_and_grads:
            m = self._m.setdefault(key, np.zeros_like(param))
            u = self._u.setdefault(key, np.zeros_like(param))
            m *= self.beta1
            m += (1 - self.beta1) * grad
            np.maximum(self.beta2 * u, np.abs(grad), out=u)
            param -= step * m / (u + self.epsilon)

    def reset(self) -> None:
        """Clear all accumulated state (moments, step counter)."""
        self.iterations = 0
        self._m.clear()
        self._u.clear()

    # ------------------------------------------------------------ checkpoint
    def state_dict(self) -> dict:
        """Snapshot of all mutable optimizer state, for training checkpoints.

        Arrays are copied, so a snapshot is unaffected by later steps.
        """
        return {
            "type": "AdaMax",
            "learning_rate": self.learning_rate,
            "iterations": self.iterations,
            "slots": {
                name: {key: value.copy() for key, value in slot.items()}
                for name, slot in (("m", self._m), ("u", self._u))
            },
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot (checkpoint resume)."""
        found = state.get("type")
        if found != "AdaMax":
            raise ValueError(
                f"checkpoint holds {found!r} optimizer state, which cannot be "
                "loaded into AdaMax"
            )
        self.learning_rate = float(state["learning_rate"])
        self.iterations = int(state["iterations"])
        slots = state["slots"]
        self._m = {key: np.array(value) for key, value in slots["m"].items()}
        self._u = {key: np.array(value) for key, value in slots["u"].items()}
