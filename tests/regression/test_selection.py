import numpy as np
import pytest

from repro.pmnf.terms import CompoundTerm
from repro.regression.fast_multi import _batched_scores
from repro.regression.hypothesis import Hypothesis, fit_hypothesis
from repro.regression.selection import evaluate_hypotheses, select_best
from repro.regression.smape import smape

XS = np.array([[4.0], [8.0], [16.0], [32.0], [64.0]])


def explicit_loo(design: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Reference implementation: refit without each point."""
    n = len(values)
    out = np.empty(n)
    for i in range(n):
        mask = np.arange(n) != i
        scales = np.max(np.abs(design[mask]), axis=0)
        scales[scales == 0] = 1.0
        coef, *_ = np.linalg.lstsq(design[mask] / scales, values[mask], rcond=None)
        out[i] = design[i] / scales @ coef
    return out


def kernel_fit(design: np.ndarray, values: np.ndarray):
    """``(cv, beta)`` of one design, scored by the kernel on a stack of one."""
    cv, beta, _ = _batched_scores(design[None], values[None])
    return float(cv[0]), beta[0]


def assert_matches_explicit_refits(design: np.ndarray, values: np.ndarray):
    """The kernel's hat-matrix LOO score agrees with actually refitting
    without each point, and its coefficients with a full ``lstsq`` fit."""
    cv, beta = kernel_fit(design, values)
    assert cv == pytest.approx(smape(values, explicit_loo(design, values)), rel=1e-8)
    coef, *_ = np.linalg.lstsq(design, values, rcond=None)
    np.testing.assert_allclose(beta, coef, rtol=1e-8)


class TestLooPredictions:
    """The stacked kernel's LOO arithmetic against the explicit oracle."""

    def test_matches_explicit_refits(self):
        gen = np.random.default_rng(0)
        design = np.stack([np.ones(5), XS[:, 0] ** 1.5], axis=1)
        values = 3.0 + 0.5 * XS[:, 0] ** 1.5 + gen.normal(0, 5.0, 5)
        assert_matches_explicit_refits(design, values)

    def test_matches_on_log_design(self):
        gen = np.random.default_rng(1)
        design = np.stack([np.ones(5), np.log2(XS[:, 0])], axis=1)
        values = 2.0 + 7.0 * np.log2(XS[:, 0]) + gen.normal(0, 1.0, 5)
        assert_matches_explicit_refits(design, values)

    def test_high_leverage_point_matches_explicit_refits(self):
        """A far point nearly pins the slope alone (leverage close to 1):
        its LOO error is large, and still the refit's."""
        gen = np.random.default_rng(5)
        xs = np.array([1.0, 2.0, 3.0, 4.0, 100.0])
        design = np.stack([np.ones(5), xs], axis=1)
        values = 4.0 + 0.3 * xs + gen.normal(0, 1.0, 5)
        assert_matches_explicit_refits(design, values)

    def test_perfect_fit_perfect_loo(self):
        design = np.stack([np.ones(5), XS[:, 0]], axis=1)
        values = 1.0 + 2.0 * XS[:, 0]
        cv, beta = kernel_fit(design, values)
        assert cv == pytest.approx(0.0, abs=1e-9)
        np.testing.assert_allclose(beta, [1.0, 2.0], rtol=1e-9)

    def test_rank_deficient_handled(self):
        design = np.stack([np.ones(5), np.ones(5)], axis=1)  # duplicate columns
        values = np.full(5, 3.0)
        cv, beta = kernel_fit(design, values)
        assert cv == pytest.approx(0.0, abs=1e-9)
        assert np.all(np.isfinite(beta))
        # The rank-1 minimum-norm solution splits the constant evenly.
        np.testing.assert_allclose(beta, [1.5, 1.5], rtol=1e-12)


class TestEvaluateHypotheses:
    def test_scores_every_feasible_hypothesis(self):
        hyps = [Hypothesis.constant(1), Hypothesis([{0: CompoundTerm(1)}], 1)]
        values = 1.0 + 2.0 * XS[:, 0]
        scored = evaluate_hypotheses(hyps, XS, values)
        assert len(scored) == 2

    def test_skips_underdetermined(self):
        big = Hypothesis(
            [{0: CompoundTerm(1)}, {0: CompoundTerm(2)}, {0: CompoundTerm(3)},
             {0: CompoundTerm(0, 1)}], 1
        )
        scored = evaluate_hypotheses([big], XS, np.ones(5))
        assert scored == []

    def test_cv_smape_penalizes_overfitting(self):
        """In-sample the steeper model can fit noise; LOO must not reward it."""
        gen = np.random.default_rng(2)
        values = np.full(5, 100.0) + gen.normal(0, 1.0, 5)
        hyps = [Hypothesis.constant(1), Hypothesis([{0: CompoundTerm(3)}], 1)]
        scored = {len(s.fitted.hypothesis.groups): s for s in evaluate_hypotheses(hyps, XS, values)}
        assert scored[0].cv_smape < scored[1].cv_smape


class TestSelectBest:
    def test_lowest_cv_wins(self):
        values = 1.0 + 2.0 * XS[:, 0]
        hyps = [Hypothesis.constant(1), Hypothesis([{0: CompoundTerm(1)}], 1)]
        best = select_best(evaluate_hypotheses(hyps, XS, values))
        assert not best.function.is_constant()

    def test_tie_breaks_to_simpler(self):
        # Constant data: every hypothesis fits exactly (CV 0 after pruning);
        # the constant structure must win the tie.
        values = np.full(5, 5.0)
        hyps = [Hypothesis([{0: CompoundTerm(1)}], 1), Hypothesis.constant(1)]
        best = select_best(evaluate_hypotheses(hyps, XS, values))
        assert best.function.is_constant()

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            select_best([])

    def test_negative_coefficient_models_avoided(self):
        """A fit with a negative growth-term coefficient is only selected
        when no plausible alternative exists -- negative terms extrapolate
        to nonsense (the PMNF is a prior over costs)."""
        gen = np.random.default_rng(4)
        # Decreasing-looking noisy data around a constant: the x^3 hypothesis
        # fits best in-sample with a negative coefficient.
        values = np.array([110.0, 105.0, 100.0, 96.0, 60.0]) + gen.normal(0, 1.0, 5)
        hyps = [Hypothesis.constant(1), Hypothesis([{0: CompoundTerm(3)}], 1)]
        scored = evaluate_hypotheses(hyps, XS, values)
        cubic = next(s for s in scored if s.fitted.hypothesis.groups)
        assert cubic.function.terms[0].coefficient < 0  # precondition
        best = select_best(scored)
        assert best.function.is_constant()

    def test_implausible_selected_as_last_resort(self):
        values = np.array([110.0, 105.0, 100.0, 96.0, 60.0])
        hyps = [Hypothesis([{0: CompoundTerm(3)}], 1)]
        best = select_best(evaluate_hypotheses(hyps, XS, values))
        assert best.function.terms[0].coefficient < 0


class TestNaNGuard:
    """NaN CV-SMAPE corrupts min(): NaN comparisons are all False, so a NaN
    candidate wins or loses purely by list position. select_best must refuse
    such candidates instead of ranking arbitrarily."""

    def _scored(self, values):
        hyps = [Hypothesis.constant(1), Hypothesis([{0: CompoundTerm(1)}], 1)]
        return evaluate_hypotheses(hyps, XS, values)

    def _with_nan(self, scored, position):
        from dataclasses import replace

        corrupt = replace(scored[0], cv_smape=float("nan"))
        rest = list(scored[1:])
        rest.insert(position, corrupt)
        return rest

    def test_nan_candidate_rejected_regardless_of_position(self):
        gen = np.random.default_rng(0)
        values = 2.0 + 0.5 * XS[:, 0] + gen.normal(0, 0.1, 5)
        scored = self._scored(values)
        for position in range(len(scored)):
            with pytest.raises(ValueError, match="NaN CV-SMAPE"):
                select_best(self._with_nan(scored, position))

    def test_error_names_the_corrupt_candidates(self):
        gen = np.random.default_rng(0)
        values = 2.0 + 0.5 * XS[:, 0] + gen.normal(0, 0.1, 5)
        scored = self._scored(values)
        with pytest.raises(ValueError, match=r"1 candidate\(s\)"):
            select_best(self._with_nan(scored, 0))

    def test_nan_candidate_cannot_win_by_list_order(self):
        """The selection-side guard: before the fix, a NaN candidate placed
        first would win min() outright (every comparison against it is
        False). Now no ordering lets it through."""
        gen = np.random.default_rng(0)
        values = 2.0 + 0.5 * XS[:, 0] + gen.normal(0, 0.1, 5)
        scored = self._scored(values)
        # sanity: without corruption, selection succeeds
        clean = select_best(scored)
        assert np.isfinite(clean.cv_smape)

    def test_degenerate_fit_is_skipped_not_ranked(self):
        """A hypothesis whose LOO predictions are not all finite scores inf
        in the kernel and is left out, so select_best never sees NaN from
        this path."""
        huge = np.array([[1e100], [2e100], [3e100], [4e100], [5e100]])
        values = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        hyps = [Hypothesis.constant(1), Hypothesis([{0: CompoundTerm(3)}], 1)]
        scored = evaluate_hypotheses(hyps, huge, values)
        assert all(not np.isnan(s.cv_smape) for s in scored)
        best = select_best(scored)
        assert np.isfinite(best.cv_smape)


class TestCvConsistency:
    def test_cv_score_reproducible_from_parts(self):
        gen = np.random.default_rng(3)
        values = 2.0 + 0.1 * XS[:, 0] ** 2 + gen.normal(0, 3.0, 5)
        hyp = Hypothesis([{0: CompoundTerm(2)}], 1)
        (scored,) = evaluate_hypotheses([hyp], XS, values)
        loo = explicit_loo(hyp.design_matrix(XS), values)
        assert scored.cv_smape == pytest.approx(smape(values, loo))
        # One kernel fits both: the same coefficients, bit for bit.
        refit = fit_hypothesis(hyp, XS, values)
        assert scored.function.constant == refit.function.constant
        assert [t.coefficient for t in scored.function.terms] == [
            t.coefficient for t in refit.function.terms
        ]
