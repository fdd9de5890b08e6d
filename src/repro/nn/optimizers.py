"""First-order optimizers: SGD (momentum), Adam, and AdaMax.

AdaMax (Kingma & Ba 2015, Sec. 7) is the optimizer the paper trains with:
Adam's second moment replaced by an exponentially weighted infinity norm,
which makes the per-weight step size insensitive to rare large gradients --
convenient when the synthetic training data spans six decades of
coefficients.

Optimizer state is keyed by ``(layer index, parameter name)``, so one
optimizer instance can only drive one network at a time.
"""

from __future__ import annotations

import numpy as np


class Optimizer:
    """Base class: ``step`` consumes per-parameter gradients."""

    def __init__(self, learning_rate: float):
        if learning_rate <= 0:
            raise ValueError("learning rate must be positive")
        self.learning_rate = float(learning_rate)
        self.iterations = 0

    def step(self, params_and_grads: list[tuple[tuple, np.ndarray, np.ndarray]]) -> None:
        """Apply one update.

        ``params_and_grads`` holds ``(key, parameter, gradient)`` triples;
        parameters are updated in place.
        """
        self.iterations += 1
        for key, param, grad in params_and_grads:
            self._update(key, param, grad)

    def _update(self, key: tuple, param: np.ndarray, grad: np.ndarray) -> None:
        raise NotImplementedError

    def reset(self) -> None:
        """Clear all accumulated state (moments, step counter)."""
        self.iterations = 0

    # ------------------------------------------------------------ checkpoint
    def _slot_state(self) -> "dict[str, dict]":
        """Subclass hook: accumulated per-parameter arrays to checkpoint."""
        return {}

    def _load_slots(self, slots: "dict[str, dict]") -> None:
        """Subclass hook: inverse of :meth:`_slot_state`."""

    def state_dict(self) -> dict:
        """Snapshot of all mutable optimizer state, for training checkpoints.

        Arrays are copied, so a snapshot is unaffected by later steps.
        """
        return {
            "type": type(self).__name__,
            "learning_rate": self.learning_rate,
            "iterations": self.iterations,
            "slots": {
                name: {key: value.copy() for key, value in slot.items()}
                for name, slot in self._slot_state().items()
            },
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot (checkpoint resume)."""
        found = state.get("type")
        if found != type(self).__name__:
            raise ValueError(
                f"checkpoint holds {found!r} optimizer state, which cannot be "
                f"loaded into a {type(self).__name__}"
            )
        self.learning_rate = float(state["learning_rate"])
        self.iterations = int(state["iterations"])
        self._load_slots(
            {
                name: {key: np.array(value) for key, value in slot.items()}
                for name, slot in state.get("slots", {}).items()
            }
        )


class SGD(Optimizer):
    """Stochastic gradient descent with optional classical momentum."""

    def __init__(self, learning_rate: float = 0.01, momentum: float = 0.0):
        super().__init__(learning_rate)
        if not 0.0 <= momentum < 1.0:
            raise ValueError("momentum must lie in [0, 1)")
        self.momentum = float(momentum)
        self._velocity: dict[tuple, np.ndarray] = {}

    def _update(self, key, param, grad) -> None:
        # Exact 0.0 guard: momentum is stored verbatim from the constructor,
        # and the zero case must take the velocity-free fast path
        # bit-identically, not approximately.
        if self.momentum == 0.0:
            param -= self.learning_rate * grad
            return
        v = self._velocity.get(key)
        if v is None:
            v = np.zeros_like(param)
            self._velocity[key] = v
        v *= self.momentum
        v -= self.learning_rate * grad
        param += v

    def reset(self) -> None:
        super().reset()
        self._velocity.clear()

    def _slot_state(self) -> "dict[str, dict]":
        return {"velocity": self._velocity}

    def _load_slots(self, slots) -> None:
        self._velocity = slots.get("velocity", {})


class Adam(Optimizer):
    """Adam with bias correction."""

    def __init__(
        self,
        learning_rate: float = 0.001,
        beta1: float = 0.9,
        beta2: float = 0.999,
        epsilon: float = 1e-8,
    ):
        super().__init__(learning_rate)
        if not (0 <= beta1 < 1 and 0 <= beta2 < 1):
            raise ValueError("betas must lie in [0, 1)")
        self.beta1, self.beta2, self.epsilon = float(beta1), float(beta2), float(epsilon)
        self._m: dict[tuple, np.ndarray] = {}
        self._v: dict[tuple, np.ndarray] = {}

    def _update(self, key, param, grad) -> None:
        m = self._m.setdefault(key, np.zeros_like(param))
        v = self._v.setdefault(key, np.zeros_like(param))
        m *= self.beta1
        m += (1 - self.beta1) * grad
        v *= self.beta2
        v += (1 - self.beta2) * grad * grad
        m_hat = m / (1 - self.beta1**self.iterations)
        v_hat = v / (1 - self.beta2**self.iterations)
        param -= self.learning_rate * m_hat / (np.sqrt(v_hat) + self.epsilon)

    def reset(self) -> None:
        super().reset()
        self._m.clear()
        self._v.clear()

    def _slot_state(self) -> "dict[str, dict]":
        return {"m": self._m, "v": self._v}

    def _load_slots(self, slots) -> None:
        self._m = slots.get("m", {})
        self._v = slots.get("v", {})


class AdaMax(Optimizer):
    """AdaMax -- the paper's training optimizer."""

    def __init__(
        self,
        learning_rate: float = 0.002,
        beta1: float = 0.9,
        beta2: float = 0.999,
        epsilon: float = 1e-8,
    ):
        super().__init__(learning_rate)
        if not (0 <= beta1 < 1 and 0 <= beta2 < 1):
            raise ValueError("betas must lie in [0, 1)")
        self.beta1, self.beta2, self.epsilon = float(beta1), float(beta2), float(epsilon)
        self._m: dict[tuple, np.ndarray] = {}
        self._u: dict[tuple, np.ndarray] = {}

    def _update(self, key, param, grad) -> None:
        m = self._m.setdefault(key, np.zeros_like(param))
        u = self._u.setdefault(key, np.zeros_like(param))
        m *= self.beta1
        m += (1 - self.beta1) * grad
        np.maximum(self.beta2 * u, np.abs(grad), out=u)
        step = self.learning_rate / (1 - self.beta1**self.iterations)
        param -= step * m / (u + self.epsilon)

    def reset(self) -> None:
        super().reset()
        self._m.clear()
        self._u.clear()

    def _slot_state(self) -> "dict[str, dict]":
        return {"m": self._m, "u": self._u}

    def _load_slots(self, slots) -> None:
        self._m = slots.get("m", {})
        self._u = slots.get("u", {})
