"""Micro-benchmarks of the NumPy NN substrate.

Not a paper figure -- these pin the throughput of the framework that stands
in for PyTorch, so regressions in the hot path (matmul-bound forward /
backward) are caught. Reported as samples/second via pytest-benchmark's
ops column.
"""

import numpy as np
import pytest

from repro.dnn.config import NetworkConfig
from repro.dnn.factory import build_network
from repro.nn.losses import softmax_cross_entropy
from repro.nn.optimizers import AdaMax

BATCH = 256


@pytest.fixture(scope="module")
def fast_net():
    return build_network(NetworkConfig.fast(), rng=0)


@pytest.fixture(scope="module")
def batch():
    rng = np.random.default_rng(0)
    x = rng.random((BATCH, 11)).astype(np.float32)
    y = rng.integers(0, 43, BATCH)
    return x, y


def test_forward_inference(fast_net, batch, benchmark):
    x, _ = batch
    benchmark(lambda: fast_net.predict_proba(x))


def test_training_step(fast_net, batch, benchmark):
    x, y = batch
    optimizer = AdaMax()

    def step():
        out = fast_net.forward(x, training=True)
        fast_net.backward(softmax_cross_entropy(out, y)[1])
        optimizer.step(fast_net.parameters())

    benchmark(step)


def test_paper_network_forward(batch, benchmark):
    """The full Sec. IV-D architecture (~3.6 M weights) -- inference only."""
    net = build_network(NetworkConfig.paper(), rng=0)
    x, _ = batch
    benchmark(lambda: net.predict_proba(x))
