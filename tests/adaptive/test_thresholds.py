import pytest

from repro.adaptive.thresholds import calibrate_thresholds, intersect_accuracy_curves
from repro.modeling.pipeline import Modeler

NOISE = [0.1, 0.2, 0.5, 1.0]


class TestIntersectAccuracyCurves:
    def test_clean_crossing_interpolated(self):
        a = [0.9, 0.8, 0.4, 0.2]  # regression decays
        b = [0.6, 0.6, 0.6, 0.6]  # dnn flat
        crossing = intersect_accuracy_curves(NOISE, a, b)
        # a - b: 0.3, 0.2, -0.2 -> crossing between 0.2 and 0.5 at half way
        assert crossing == pytest.approx(0.2 + 0.5 * 0.3)

    def test_b_leads_everywhere(self):
        assert intersect_accuracy_curves(NOISE, [0.1] * 4, [0.5] * 4) == NOISE[0]

    def test_no_crossing(self):
        assert intersect_accuracy_curves(NOISE, [0.9] * 4, [0.1] * 4) is None

    def test_crossing_at_sample(self):
        crossing = intersect_accuracy_curves(NOISE, [0.8, 0.5, 0.4, 0.3], [0.4, 0.5, 0.6, 0.7])
        assert crossing == pytest.approx(0.2)

    def test_validation(self):
        with pytest.raises(ValueError):
            intersect_accuracy_curves([0.1], [0.5], [0.5])
        with pytest.raises(ValueError):
            intersect_accuracy_curves(NOISE, [0.5] * 3, [0.5] * 4)


class FakeModeler(Modeler):
    """Deterministic stand-in whose accuracy we control via the function it
    always returns (constant -> only correct for constant truths)."""

    def __init__(self, exponent):
        from repro.pmnf.function import PerformanceFunction
        from repro.pmnf.terms import ExponentPair
        from repro.regression.modeler import ModelResult

        if exponent is None:
            fn = PerformanceFunction.constant_function(1.0, 1)
        else:
            fn = PerformanceFunction.single_term(1.0, 1.0, [ExponentPair(exponent, 0)])
        self._result = ModelResult(function=fn, cv_smape=0.0, method="fake", seconds=0.0)

    def model_kernels(self, kernels, n_params=None, rngs=None, network=None, memo=None):
        return [self._result for _ in kernels]


class TestCalibrateThresholds:
    def test_returns_threshold_per_parameter_count(self):
        thresholds = calibrate_thresholds(
            FakeModeler(None),
            FakeModeler(1),
            m_values=(1,),
            noise_levels=(0.1, 0.5),
            n_functions=5,
            rng=0,
        )
        assert set(thresholds) == {1}
        assert thresholds[1] is not None
