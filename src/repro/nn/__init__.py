"""A from-scratch NumPy deep-learning framework.

This package replaces the (unavailable) PyTorch dependency of the paper with
exactly the pieces its network needs -- dense layers, tanh/softmax, the
AdaMax optimizer, mini-batch training -- implemented on vectorized NumPy so
the forward/backward passes are BLAS-bound matrix products rather than
Python loops (per the HPC-Python guidance: vectorize the hot path, profile
the rest).

The public surface mirrors a conventional layer-graph API::

    net = Sequential([Dense(11, 64), Tanh(), Dense(64, 43)])
    net.fit(X, y, loss=SoftmaxCrossEntropy(), optimizer=AdaMax(), epochs=5)
    probs = net.predict_proba(X)
"""

from repro.nn.initializers import glorot_uniform, glorot_normal, he_uniform, zeros
from repro.nn.layers import Layer, Dense
from repro.nn.activations import Tanh, ReLU, Sigmoid, LeakyReLU
from repro.nn.losses import Loss, SoftmaxCrossEntropy, MeanSquaredError
from repro.nn.optimizers import Optimizer, SGD, Adam, AdaMax
from repro.nn.network import Sequential, TrainingHistory
from repro.nn.metrics import accuracy, top_k_accuracy
from repro.nn.regularization import Dropout
from repro.nn.schedules import ConstantSchedule, StepDecay, CosineDecay

__all__ = [
    "Dropout",
    "ConstantSchedule",
    "StepDecay",
    "CosineDecay",
    "glorot_uniform",
    "glorot_normal",
    "he_uniform",
    "zeros",
    "Layer",
    "Dense",
    "Tanh",
    "ReLU",
    "Sigmoid",
    "LeakyReLU",
    "Loss",
    "SoftmaxCrossEntropy",
    "MeanSquaredError",
    "Optimizer",
    "SGD",
    "Adam",
    "AdaMax",
    "Sequential",
    "TrainingHistory",
    "accuracy",
    "top_k_accuracy",
]
