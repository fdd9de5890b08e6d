"""A from-scratch NumPy deep-learning framework.

This package replaces the (unavailable) PyTorch dependency of the paper with
exactly the pieces its network needs -- dense layers, tanh hidden layers, a
softmax cross-entropy output, the AdaMax optimizer, mini-batch training --
implemented on vectorized NumPy so the forward/backward passes are
BLAS-bound matrix products rather than Python loops (per the HPC-Python
guidance: vectorize the hot path, profile the rest).

The public surface mirrors a conventional layer-graph API::

    net = Sequential([Dense(11, 64), Tanh(), Dense(64, 43)])
    net.fit(X, y, epochs=5, learning_rate=0.002)
    probs = net.predict_proba(X)
"""

from repro.nn.initializers import glorot_uniform, zeros
from repro.nn.layers import Layer, Dense
from repro.nn.activations import Tanh
from repro.nn.losses import softmax_cross_entropy
from repro.nn.optimizers import AdaMax
from repro.nn.network import Sequential, TrainingHistory
from repro.nn.metrics import accuracy, top_k_accuracy

__all__ = [
    "glorot_uniform",
    "zeros",
    "Layer",
    "Dense",
    "Tanh",
    "softmax_cross_entropy",
    "AdaMax",
    "Sequential",
    "TrainingHistory",
    "accuracy",
    "top_k_accuracy",
]
