import numpy as np
import pytest

from repro.adaptive.modeler import AdaptiveModeler
from repro.dnn.modeler import DNNModeler
from repro.noise.classification import NoiseClass


@pytest.fixture
def adaptive(tiny_network) -> AdaptiveModeler:
    return AdaptiveModeler(dnn=DNNModeler(network=tiny_network, use_domain_adaptation=False))


class TestRouting:
    def test_calm_data_routes_calm(self, adaptive, clean_experiment_1p):
        level, cls = adaptive.route(clean_experiment_1p.only_kernel(), 1)
        assert level == 0.0
        assert cls is NoiseClass.CALM

    def test_noisy_data_routes_noisy(self, adaptive, noisy_experiment_1p):
        level, cls = adaptive.route(noisy_experiment_1p.only_kernel(), 1)
        assert level > 0.3
        assert cls is NoiseClass.NOISY

    def test_custom_thresholds_respected(self, tiny_network, noisy_experiment_1p):
        lenient = AdaptiveModeler(
            dnn=DNNModeler(network=tiny_network, use_domain_adaptation=False),
            thresholds={1: 10.0},
        )
        _, cls = lenient.route(noisy_experiment_1p.only_kernel(), 1)
        assert cls is NoiseClass.CALM


class TestModelKernel:
    def test_calm_kernel_picks_cv_winner(self, adaptive, clean_experiment_1p):
        """On clean data regression fits exactly, so the adaptive result must
        be at least as good as pure regression (and labelled adaptive)."""
        result = adaptive.model_kernel(clean_experiment_1p.only_kernel(), rng=0)
        assert result.method.startswith("adaptive[")
        assert result.cv_smape == pytest.approx(0.0, abs=1e-6)
        assert float(result.function.lead_exponents()[0].i) == pytest.approx(1.5)

    def test_noisy_kernel_uses_dnn_only(self, adaptive, noisy_experiment_1p):
        result = adaptive.model_kernel(noisy_experiment_1p.only_kernel(), rng=0)
        assert result.method == "adaptive[dnn]"

    def test_timing_covers_both_modelers(self, adaptive, clean_experiment_1p):
        result = adaptive.model_kernel(clean_experiment_1p.only_kernel(), rng=0)
        assert result.seconds > 0

    def test_n_params_beyond_coordinates_raises_value_error(self, adaptive, clean_experiment_2p):
        kern = clean_experiment_2p.only_kernel()
        with pytest.raises(ValueError, match=r"2-dimensional coordinates.*n_params=3"):
            adaptive.model_kernel(kern, 3, rng=0)

    def test_cv_never_worse_than_dnn_alone(self, adaptive, clean_experiment_1p):
        kern = clean_experiment_1p.only_kernel()
        adaptive_result = adaptive.model_kernel(kern, rng=0)
        dnn_result = adaptive.dnn.model_kernel(kern, rng=0)
        assert adaptive_result.cv_smape <= dnn_result.cv_smape + 1e-9


class TestModelExperiment:
    def test_all_kernels(self, adaptive, clean_experiment_2p):
        results = adaptive.model_experiment(clean_experiment_2p, rng=0)
        assert set(results) == {"synthetic"}

    def test_adaptation_shared_across_kernels(self, tiny_network, clean_experiment_2p):
        dnn = DNNModeler(
            network=tiny_network,
            use_domain_adaptation=True,
            adaptation_samples_per_class=5,
        )
        adaptive = AdaptiveModeler(dnn=dnn)
        adaptive.model_experiment(clean_experiment_2p, rng=0)
        assert len(dnn._adapted) == 1
