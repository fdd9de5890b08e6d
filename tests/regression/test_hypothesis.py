from fractions import Fraction

import numpy as np
import pytest

from repro.pmnf.terms import CompoundTerm
from repro.regression.hypothesis import Hypothesis, fit_hypothesis

F = Fraction
XS = np.array([[4.0], [8.0], [16.0], [32.0], [64.0]])


class TestHypothesis:
    def test_constant_groups_dropped(self):
        hyp = Hypothesis([{0: CompoundTerm(0, 0)}], 1)
        assert hyp.groups == ()
        assert hyp.n_coefficients == 1

    def test_empty_after_drop_counts_as_constant(self):
        hyp = Hypothesis([{0: CompoundTerm(0, 0)}, {0: CompoundTerm(1)}], 1)
        assert len(hyp.groups) == 1

    def test_design_matrix_shape(self):
        hyp = Hypothesis([{0: CompoundTerm(1)}, {0: CompoundTerm(2)}], 1)
        design = hyp.design_matrix(XS)
        assert design.shape == (5, 3)
        np.testing.assert_array_equal(design[:, 0], 1.0)

    def test_design_matrix_product_group(self):
        hyp = Hypothesis([{0: CompoundTerm(1), 1: CompoundTerm(1)}], 2)
        pts = np.array([[2.0, 3.0], [4.0, 5.0]])
        np.testing.assert_allclose(hyp.design_matrix(pts)[:, 1], [6.0, 20.0])

    def test_structure_key_order_invariant(self):
        a = Hypothesis([{0: CompoundTerm(1)}, {1: CompoundTerm(2)}], 2)
        b = Hypothesis([{1: CompoundTerm(2)}, {0: CompoundTerm(1)}], 2)
        assert a.structure_key() == b.structure_key()

    def test_complexity_prefers_fewer_groups(self):
        one = Hypothesis([{0: CompoundTerm(1)}], 1)
        two = Hypothesis([{0: CompoundTerm(1)}, {0: CompoundTerm(0, 1)}], 1)
        assert one.complexity_key() < two.complexity_key()


class TestFitHypothesis:
    def test_exact_recovery(self):
        hyp = Hypothesis([{0: CompoundTerm(F(3, 2))}], 1)
        values = 5.0 + 2.0 * XS[:, 0] ** 1.5
        fitted = fit_hypothesis(hyp, XS, values)
        assert fitted.function.constant == pytest.approx(5.0)
        assert fitted.function.terms[0].coefficient == pytest.approx(2.0)
        np.testing.assert_allclose(fitted.function.evaluate(XS), values, rtol=1e-12)

    def test_constant_fit(self):
        fitted = fit_hypothesis(Hypothesis.constant(1), XS, np.full(5, 7.0))
        assert fitted.function.constant == pytest.approx(7.0)
        assert fitted.function.is_constant()

    def test_negligible_terms_pruned(self):
        """Fitting a growth hypothesis to constant data must not leave a
        phantom epsilon-coefficient term (it would fake a lead exponent)."""
        hyp = Hypothesis([{0: CompoundTerm(F(5, 2))}], 1)
        fitted = fit_hypothesis(hyp, XS, np.full(5, 42.0))
        assert fitted.function.is_constant()

    def test_underdetermined_rejected(self):
        hyp = Hypothesis([{0: CompoundTerm(1)}, {0: CompoundTerm(2)}], 1)
        with pytest.raises(ValueError, match="at least"):
            fit_hypothesis(hyp, XS[:2], np.array([1.0, 2.0]))

    def test_arity_mismatch_rejected(self):
        hyp = Hypothesis([{0: CompoundTerm(1)}], 2)
        with pytest.raises(ValueError):
            fit_hypothesis(hyp, XS, np.zeros(5))

    def test_extreme_scales_conditioning(self):
        """x^3 at x=32768 spans ~13 decades; column scaling must keep the
        solve stable enough to recover exact coefficients."""
        xs = np.array([[8.0], [64.0], [512.0], [4096.0], [32768.0]])
        hyp = Hypothesis([{0: CompoundTerm(3)}], 1)
        values = 0.5 + 1e-6 * xs[:, 0] ** 3
        fitted = fit_hypothesis(hyp, xs, values)
        assert fitted.function.terms[0].coefficient == pytest.approx(1e-6, rel=1e-6)
        assert fitted.function.constant == pytest.approx(0.5, rel=1e-3)
