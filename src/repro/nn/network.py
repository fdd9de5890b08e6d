"""The sequential network container: training loop, inference, checkpoints."""

from __future__ import annotations

import hashlib
import io
import json
import pickle
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.nn.activations import Tanh
from repro.nn.layers import Dense, Layer
from repro.nn.losses import softmax, softmax_cross_entropy
from repro.nn.optimizers import AdaMax
from repro.obs import get_telemetry
from repro.util.artifacts import atomic_write_bytes
from repro.util.seeding import as_generator

_TRAINING_CHECKPOINT_VERSION = 1


def save_training_checkpoint(path: "str | Path", payload: dict) -> None:
    """Atomically persist a mid-training checkpoint (pickle)."""
    payload = {"version": _TRAINING_CHECKPOINT_VERSION, **payload}
    atomic_write_bytes(path, pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL))


def load_training_checkpoint(path: "str | Path") -> "dict | None":
    """Load a mid-training checkpoint; ``None`` when none exists.

    A missing file means "start fresh", so callers can unconditionally pass
    their checkpoint path as ``resume_from`` and get self-resuming training.
    """
    path = Path(path)
    if not path.exists():
        return None
    payload = pickle.loads(path.read_bytes())
    version = payload.get("version")
    if version != _TRAINING_CHECKPOINT_VERSION:
        raise ValueError(
            f"{path}: unsupported training-checkpoint version: found {version!r}, "
            f"supported {_TRAINING_CHECKPOINT_VERSION}"
        )
    return payload


@dataclass
class TrainingHistory:
    """Per-epoch training statistics returned by :meth:`Sequential.fit`."""

    loss: list[float] = field(default_factory=list)
    accuracy: list[float] = field(default_factory=list)

    @property
    def epochs(self) -> int:
        return len(self.loss)


class Sequential:
    """A feed-forward stack of layers."""

    def __init__(self, layers: list[Layer]):
        if not layers:
            raise ValueError("a network needs at least one layer")
        self.layers = list(layers)

    # ---------------------------------------------------------------- passes
    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        out = x
        for layer in self.layers:
            out = layer.forward(out, training=training)
        return out

    def backward(self, grad: np.ndarray) -> np.ndarray:
        for layer in reversed(self.layers):
            grad = layer.backward(grad)
        return grad

    def parameters(self) -> list[tuple[tuple, np.ndarray, np.ndarray]]:
        """``(key, param, grad)`` triples for the optimizer."""
        triples = []
        for idx, layer in enumerate(self.layers):
            for name, param in layer.params.items():
                grad = layer.grads.get(name)
                if grad is None:
                    raise RuntimeError("gradients missing; run backward() first")
                triples.append(((idx, name), param, grad))
        return triples

    def n_parameters(self) -> int:
        return sum(p.size for layer in self.layers for p in layer.params.values())

    # -------------------------------------------------------------- training
    def fit(
        self,
        x: np.ndarray,
        y: np.ndarray,
        epochs: int = 1,
        batch_size: int = 128,
        learning_rate: float = 0.002,
        rng=None,
        checkpoint_every: "int | None" = None,
        checkpoint_path: "str | Path | None" = None,
        resume_from: "str | Path | None" = None,
    ) -> TrainingHistory:
        """Mini-batch training as in the paper: softmax cross-entropy, AdaMax.

        Each epoch visits the samples in an order drawn from ``rng``.
        Returns the per-epoch training loss and accuracy.

        ``checkpoint_every=N`` atomically persists a training checkpoint to
        ``checkpoint_path`` after every N epochs: weights, optimizer
        moments, the RNG bit-generator state, and the per-epoch history.
        ``resume_from`` restores such a checkpoint (a missing file silently
        starts fresh) and continues at the recorded epoch; because the RNG
        state is restored, an interrupted-and-resumed training run produces
        bit-identical weights to an uninterrupted one.
        """
        if epochs < 1 or batch_size < 1:
            raise ValueError("epochs and batch_size must be positive")
        if checkpoint_every is not None:
            if checkpoint_every < 1:
                raise ValueError("checkpoint_every must be positive")
            if checkpoint_path is None:
                raise ValueError("checkpoint_every requires checkpoint_path")
        x = np.asarray(x, dtype=np.float32)
        y = np.asarray(y)
        if x.ndim != 2 or x.shape[0] != y.shape[0]:
            raise ValueError("x must be (n, features) with one label per row")
        optimizer = AdaMax(learning_rate)
        gen = as_generator(rng)
        history = TrainingHistory()
        n = x.shape[0]
        start_epoch = 0
        if resume_from is not None:
            checkpoint = load_training_checkpoint(resume_from)
            if checkpoint is not None:
                if checkpoint["n_samples"] != n or checkpoint["batch_size"] != batch_size:
                    raise ValueError(
                        f"checkpoint {resume_from} was written for "
                        f"{checkpoint['n_samples']} samples / batch size "
                        f"{checkpoint['batch_size']}, but this fit has {n} / "
                        f"{batch_size}: resuming would not be reproducible"
                    )
                self.set_weights(checkpoint["weights"])
                optimizer.load_state_dict(checkpoint["optimizer"])
                gen.bit_generator.state = checkpoint["rng_state"]
                history.loss = list(checkpoint["history"]["loss"])
                history.accuracy = list(checkpoint["history"]["accuracy"])
                start_epoch = int(checkpoint["epoch"])
        telemetry = get_telemetry()
        with telemetry.tracer.span(
            "nn.fit", epochs=epochs, samples=n, batch_size=batch_size
        ) as fit_span:
            for epoch in range(start_epoch, epochs):
                order = gen.permutation(n)
                epoch_loss = 0.0
                epoch_correct = 0.0
                for start in range(0, n, batch_size):
                    idx = order[start : start + batch_size]
                    xb, yb = x[idx], y[idx]
                    out = self.forward(xb, training=True)
                    batch_loss, grad = softmax_cross_entropy(out, yb)
                    if not np.isfinite(batch_loss):
                        raise RuntimeError(
                            "training diverged (non-finite loss); lower the learning "
                            "rate or check the input normalization"
                        )
                    epoch_loss += float(batch_loss) * len(idx)
                    epoch_correct += np.sum(np.argmax(out, axis=1) == yb)
                    self.backward(grad)
                    optimizer.step(self.parameters())
                history.loss.append(epoch_loss / n)
                history.accuracy.append(float(epoch_correct) / n)
                if checkpoint_every is not None and (epoch + 1) % checkpoint_every == 0:
                    save_training_checkpoint(
                        checkpoint_path,
                        {
                            "epoch": epoch + 1,
                            "n_samples": n,
                            "batch_size": batch_size,
                            "weights": self.get_weights(),
                            "optimizer": optimizer.state_dict(),
                            "rng_state": gen.bit_generator.state,
                            "history": {
                                "loss": list(history.loss),
                                "accuracy": list(history.accuracy),
                            },
                        },
                    )
            fit_span.set(epochs_trained=history.epochs)
        if telemetry.enabled:
            telemetry.metrics.absorb_training_history(history)
        return history

    # ------------------------------------------------------------- inference
    def predict_logits(self, x: np.ndarray, batch_size: int = 4096) -> np.ndarray:
        x = np.asarray(x, dtype=np.float32)
        if x.ndim == 1:
            x = x[None, :]
        outputs = [
            self.forward(x[start : start + batch_size])
            for start in range(0, x.shape[0], batch_size)
        ]
        return np.concatenate(outputs, axis=0)

    def predict_proba(self, x: np.ndarray, batch_size: int = 4096) -> np.ndarray:
        """Class probabilities (softmax over the output layer)."""
        return softmax(self.predict_logits(x, batch_size))

    # ------------------------------------------------------------ checkpoint
    def get_weights(self) -> list[np.ndarray]:
        return [p.copy() for layer in self.layers for p in layer.params.values()]

    def set_weights(self, weights: list[np.ndarray]) -> None:
        flat = [(layer, name) for layer in self.layers for name in layer.params]
        if len(weights) != len(flat):
            raise ValueError(f"expected {len(flat)} weight arrays, got {len(weights)}")
        for (layer, name), w in zip(flat, weights):
            if layer.params[name].shape != w.shape:
                raise ValueError(
                    f"shape mismatch for {name}: {layer.params[name].shape} vs {w.shape}"
                )
            layer.params[name] = np.asarray(w, dtype=layer.params[name].dtype).copy()

    def weights_digest(self) -> str:
        """Stable content hash of architecture + current weights.

        Two networks with bit-identical weights and the same layer stack
        share a digest, so content-addressed stores (the adaptation weight
        store) can tell which generic network an adapted checkpoint came
        from without loading it.
        """
        digest = hashlib.sha256()
        digest.update(json.dumps([layer.spec() for layer in self.layers]).encode())
        for w in self.get_weights():
            digest.update(np.ascontiguousarray(w).tobytes())
        return digest.hexdigest()[:16]

    def copy(self) -> "Sequential":
        """Structural deep copy (same architecture, copied weights)."""
        buffer = io.BytesIO()
        self.save(buffer)
        buffer.seek(0)
        return Sequential.load(buffer)

    @staticmethod
    def _checkpoint_path(path: "str | Path | io.BytesIO") -> "Path | io.BytesIO":
        """Normalize a checkpoint path to carry the ``.npz`` suffix.

        ``np.savez`` silently appends ``.npz`` to suffix-less file names, so
        without normalization ``save("model")`` writes ``model.npz`` while
        ``load("model")`` looks for ``model`` and fails. Both directions
        normalize identically, making the round-trip path-stable.
        """
        if isinstance(path, (str, Path)):
            path = Path(path)
            if path.suffix != ".npz":
                path = path.with_name(path.name + ".npz")
        return path

    def save(self, path: "str | Path | io.BytesIO") -> None:
        """Save architecture + weights into one ``.npz`` file.

        A string/path target without an ``.npz`` suffix is stored as
        ``<path>.npz``; :meth:`load` applies the same normalization, so the
        exact argument given here always loads back.

        File targets are written atomically (temp file + rename), so a crash
        mid-save never leaves a truncated checkpoint where a previous good
        one stood.
        """
        spec = json.dumps([layer.spec() for layer in self.layers])
        arrays = {
            f"w{i}": w for i, w in enumerate(self.get_weights())
        }
        target = self._checkpoint_path(path)
        if isinstance(target, Path):
            buffer = io.BytesIO()
            # Serializes into an in-memory buffer only; the on-disk write below
            # goes through the atomic artifact layer (atomic_write_bytes).
            np.savez(
                buffer,
                spec=np.frombuffer(spec.encode(), dtype=np.uint8),
                **arrays,
            )
            atomic_write_bytes(target, buffer.getvalue())
        else:
            # The target here is a caller-supplied BytesIO (the isinstance above
            # routes every filesystem path through atomic_write_bytes); nothing
            # touches disk.
            np.savez(
                target,
                spec=np.frombuffer(spec.encode(), dtype=np.uint8),
                **arrays,
            )

    @classmethod
    def load(cls, path: "str | Path | io.BytesIO") -> "Sequential":
        """Rebuild a network from :meth:`save` output."""
        normalized = cls._checkpoint_path(path)
        if isinstance(normalized, Path) and not normalized.exists() and Path(path).exists():
            normalized = Path(path)  # pre-normalization checkpoint from elsewhere
        with np.load(normalized) as data:
            spec = json.loads(bytes(data["spec"]).decode())
            weights = [data[f"w{i}"] for i in range(len(data.files) - 1)]
        layers: list[Layer] = []
        for entry in spec:
            kind = entry["type"]
            if kind == "Dense":
                layers.append(
                    Dense(
                        entry["in_features"],
                        entry["out_features"],
                        dtype=entry.get("dtype", "float32"),
                    )
                )
            elif kind == "Tanh":
                layers.append(Tanh())
            else:
                raise ValueError(f"unknown layer type {kind!r} in checkpoint")
        net = cls(layers)
        net.set_weights(weights)
        return net

    def __repr__(self) -> str:
        inner = ", ".join(repr(layer) for layer in self.layers)
        return f"Sequential([{inner}])"
