"""The classification loss: softmax cross-entropy over integer class labels.

Softmax and cross-entropy are computed together so the backward pass can
use the numerically exact ``probs - onehot`` gradient instead of
differentiating through an explicit softmax layer, and so one softmax per
batch serves both the loss value and the gradient.
"""

from __future__ import annotations

import numpy as np


def softmax(logits: np.ndarray) -> np.ndarray:
    """Softmax over the last (class) axis, shifted for numerical stability."""
    z = logits - np.max(logits, axis=-1, keepdims=True)
    e = np.exp(z)
    return e / np.sum(e, axis=-1, keepdims=True)


def softmax_cross_entropy(
    logits: np.ndarray, labels: np.ndarray
) -> "tuple[np.ndarray, np.ndarray]":
    """Mean cross-entropy of ``softmax(logits)`` and its gradient.

    ``logits`` is ``(..., batch, classes)`` and ``labels`` the matching
    ``(..., batch)`` integer classes, so one call serves a single network's
    batch and the fused trainer's ``(K, batch, classes)`` stack alike.
    Returns the per-batch mean loss (shape ``(...)``) and dL/d(logits).
    """
    if logits.ndim < 2 or labels.shape != logits.shape[:-1]:
        raise ValueError(
            f"labels of shape {labels.shape} do not match logits of shape "
            f"{logits.shape} (expected one integer class per logits row)"
        )
    probs = softmax(logits)
    at = labels[..., None]
    picked = np.take_along_axis(probs, at, axis=-1)
    loss = -np.mean(np.log(np.clip(picked[..., 0], 1e-12, None)), axis=-1)
    np.put_along_axis(probs, at, picked - 1.0, axis=-1)
    return loss, probs / labels.shape[-1]
