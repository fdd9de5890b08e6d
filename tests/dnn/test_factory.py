import numpy as np

from repro.dnn.config import NetworkConfig
from repro.dnn.factory import build_network
from repro.nn.activations import Tanh
from repro.nn.layers import Dense


class TestBuildNetwork:
    def test_layer_structure(self):
        cfg = NetworkConfig(hidden_sizes=(20, 10), name="t")
        net = build_network(cfg, rng=0)
        kinds = [type(layer) for layer in net.layers]
        assert kinds == [Dense, Tanh, Dense, Tanh, Dense]

    def test_dimensions_chain(self):
        cfg = NetworkConfig(hidden_sizes=(20, 10), name="t")
        net = build_network(cfg, rng=0)
        dense = [l for l in net.layers if isinstance(l, Dense)]
        assert (dense[0].in_features, dense[0].out_features) == (11, 20)
        assert (dense[1].in_features, dense[1].out_features) == (20, 10)
        assert (dense[2].in_features, dense[2].out_features) == (10, 43)

    def test_output_is_probability_after_softmax(self):
        cfg = NetworkConfig(hidden_sizes=(8,), name="t")
        net = build_network(cfg, rng=0)
        probs = net.predict_proba(np.zeros((2, 11), dtype=np.float32))
        assert probs.shape == (2, 43)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, rtol=1e-5)

    def test_deterministic_init(self):
        cfg = NetworkConfig(hidden_sizes=(8,), name="t")
        a, b = build_network(cfg, rng=4), build_network(cfg, rng=4)
        np.testing.assert_array_equal(a.layers[0].params["W"], b.layers[0].params["W"])

    def test_paper_parameter_count(self):
        """~3.6 M weights, as implied by the Sec. IV-D architecture."""
        net = build_network(NetworkConfig.paper(), rng=0)
        assert 3.5e6 < net.n_parameters() < 3.8e6

    def test_fast_network_digest_pinned(self):
        """Architecture spec and Glorot-uniform init, byte for byte.

        The digest names cached generic networks and adaptation-store files,
        so a change to ``Dense.spec()`` or to the initializer's draws would
        silently orphan every store on disk.
        """
        net = build_network(NetworkConfig.fast(), rng=0)
        assert net.weights_digest() == "b9435c1847830711"
