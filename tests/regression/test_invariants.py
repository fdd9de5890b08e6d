"""Property-based invariants of the regression modeler.

These pin behaviours that any sane empirical modeler must have and that are
easy to break silently: equivariance under value scaling, invariance under
parameter reordering, and exact recovery on clean data from every structure
in the search space.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.evaluation.accuracy import lead_exponent_distance
from repro.pmnf.function import PerformanceFunction
from repro.experiment.experiment import Kernel
from repro.pmnf.searchspace import EXPONENT_PAIRS
from repro.pmnf.terms import CompoundTerm
from repro.regression.modeler import RegressionModeler
from repro.regression.single_parameter import SingleParameterModeler
from repro.synthesis.functions import random_multi_parameter_function
from repro.synthesis.measurements import grid_points, synthesize_measurements
from repro.util.seeding import as_generator

XS = np.array([4.0, 8.0, 16.0, 32.0, 64.0])


def noisy_values(pair, noise, seed):
    gen = as_generator(seed)
    if pair.is_constant:
        truth = np.full(XS.size, 25.0)
    else:
        truth = 3.0 + 0.7 * CompoundTerm.from_pair(pair).evaluate(XS)
    return truth * (1.0 + gen.uniform(-noise / 2, noise / 2, XS.size))


class TestScaleEquivariance:
    @given(
        pair=st.sampled_from(EXPONENT_PAIRS),
        scale=st.floats(min_value=1e-3, max_value=1e4),
        seed=st.integers(min_value=0, max_value=200),
    )
    @settings(max_examples=40, deadline=None)
    def test_scaling_values_scales_model(self, pair, scale, seed):
        """model(c * v) == c * model(v): same structure, scaled coefficients."""
        modeler = SingleParameterModeler()
        values = noisy_values(pair, 0.2, seed)
        a = modeler.model(XS, values)
        b = modeler.model(XS, values * scale)
        assert a.function.structure_key() == b.function.structure_key()
        pts = np.array([[128.0], [512.0]])
        np.testing.assert_allclose(
            b.function.evaluate(pts), a.function.evaluate(pts) * scale, rtol=1e-4
        )


class TestParameterPermutation:
    @given(seed=st.integers(min_value=0, max_value=300))
    @settings(max_examples=20, deadline=None)
    def test_swapping_parameters_swaps_model(self, seed):
        """Modeling with swapped parameter columns yields the swapped model."""
        gen = as_generator(seed)
        truth = random_multi_parameter_function(2, gen)
        sets = [XS, np.array([10.0, 20.0, 30.0, 40.0, 50.0])]
        points = grid_points(sets)
        values = synthesize_measurements(truth, points, None, 1, gen)

        forward = Kernel("f")
        swapped = Kernel("s")
        forward.add_rows(points, values)
        swapped.add_rows(points[:, ::-1], values)
        modeler = RegressionModeler()
        res_f = modeler.model_kernel(forward, 2)
        res_s = modeler.model_kernel(swapped, 2)
        leads_f = res_f.function.lead_exponents()
        leads_s = res_s.function.lead_exponents()
        assert (leads_f[0], leads_f[1]) == (leads_s[1], leads_s[0])


class TestExactRecovery:
    @pytest.mark.parametrize("pair", EXPONENT_PAIRS)
    def test_every_class_recovered_noise_free(self, pair):
        """All 43 structures are exactly identifiable from clean data."""
        modeler = SingleParameterModeler()
        values = noisy_values(pair, 0.0, 0)
        best = modeler.model(XS, values)
        assert best.function.lead_exponents()[0] == pair
        assert best.cv_smape == pytest.approx(0.0, abs=1e-6)


class TestNoiseMonotonicity:
    def test_accuracy_degrades_with_noise_on_average(self):
        """Aggregate accuracy must not improve when noise increases 10x."""
        modeler = SingleParameterModeler()
        correct = {0.05: 0, 0.5: 0}
        pairs = [p for p in EXPONENT_PAIRS if not p.is_constant][::2]
        for noise in correct:
            for k, pair in enumerate(pairs):
                values = noisy_values(pair, noise, 1000 + k)
                best = modeler.model(XS, values)
                truth = PerformanceFunction.single_term(3.0, 0.7, [pair])
                d = lead_exponent_distance(best.function, truth)
                if d <= 0.25:
                    correct[noise] += 1
        assert correct[0.05] >= correct[0.5]
