"""Robust pre-filtering: aggregators, taint bookkeeping, pipeline wiring.

The two acceptance properties live here: (1) on clean data the pre-filter
stage is bit-identical to the historical value_table path, and (2) on a
separable tainted campaign the MAD filter's dropped-repetition bookkeeping
matches the injected taint mask exactly.
"""

import numpy as np
import pytest

from repro.experiment.experiment import Kernel
from repro.experiment.measurement import Coordinate, value_table
from repro.modeling.pipeline import ModelingPipeline
from repro.modeling.candidates import FullSearchGenerator
from repro.modeling.prefilter import (
    MADOutlierRejection,
    MedianOfRepetitions,
    PrefilterReport,
    RobustAggregator,
    TrimmedMean,
    apply_prefilter,
    available_prefilters,
    create_prefilter,
    validate_prefilter_spec,
)
from repro.modeling.registry import create_modeler, validate_spec
from repro.noise.injection import TaintedRepetitionNoise


def kernel_from_rows(rows) -> Kernel:
    k = Kernel("k")
    k.add_rows([[2.0 ** (i + 2)] for i in range(len(rows))], rows)
    return k


def tainted_kernel(seed: int = 1, n_points: int = 20):
    """A kernel whose taint is cleanly separable from the 2 % base noise,
    plus the per-point injected taint masks."""
    model = TaintedRepetitionNoise(
        level=0.02, p=0.15, outlier_location=2.0, outlier_scale=0.1
    )
    gen = np.random.default_rng(seed)
    noisy, masks = zip(*(model.apply_with_mask(np.full(5, 10.0 + i), gen) for i in range(n_points)))
    k = Kernel("k")
    k.add_rows([[i + 2.0] for i in range(n_points)], noisy)
    return k, list(masks)


class TestMADOutlierRejection:
    def test_drops_the_obvious_outlier(self):
        mask = MADOutlierRejection(k=3.0).kept_mask(
            np.array([10.1, 9.9, 10.0, 30.0, 10.05])
        )
        np.testing.assert_array_equal(mask, [True, True, True, False, True])

    def test_zero_mad_drops_nothing(self):
        """Identical repetitions (noise-free data): strict inequality keeps
        all, the guaranteed-no-op case."""
        mask = MADOutlierRejection(k=3.0).kept_mask(np.full(5, 7.0))
        assert mask.all()

    def test_dropped_masks_match_injected_taint(self):
        """On a separable campaign (2 % base noise vs ~7x outliers) the MAD
        filter rejects exactly the tainted repetitions -- pinned seed, since
        a point with 3+ of 5 reps tainted would break any filter."""
        kern, masks = tainted_kernel(seed=1)
        pf = MADOutlierRejection(k=3.0)
        _, _, report = apply_prefilter(kern, pf, "median")
        assert report.dropped_total == int(sum(m.sum() for m in masks))
        assert report.dropped_total > 0
        for kept, taint in zip(report.kept_masks, masks):
            np.testing.assert_array_equal(~kept, taint)

    def test_invalid_k_rejected(self):
        with pytest.raises(ValueError):
            MADOutlierRejection(k=-1.0)

    def test_repr_round_trips_as_spec(self):
        pf = MADOutlierRejection(k=2.5)
        assert repr(create_prefilter(repr(pf))) == repr(pf)


class TestTrimmedMean:
    def test_drops_one_per_tail(self):
        mask = TrimmedMean(proportion=0.2).kept_mask(
            np.array([5.0, 1.0, 3.0, 4.0, 2.0])
        )
        np.testing.assert_array_equal(mask, [False, False, True, True, True])

    def test_small_proportion_drops_nothing_on_five(self):
        mask = TrimmedMean(proportion=0.1).kept_mask(np.arange(5.0))
        assert mask.all()

    def test_reduce_is_mean_of_survivors(self):
        value, _ = TrimmedMean(proportion=0.2).aggregate(
            np.array([100.0, 1.0, 2.0, 3.0, 0.0]), "median"
        )
        assert value == pytest.approx(2.0)

    def test_proportion_bounds(self):
        with pytest.raises(ValueError):
            TrimmedMean(proportion=0.6)


class TestMedianOfRepetitions:
    def test_median_regardless_of_aggregation(self):
        values = np.array([1.0, 2.0, 100.0])
        for aggregation in ("median", "mean", "min"):
            value, mask = MedianOfRepetitions().aggregate(values, aggregation)
            assert value == 2.0
            assert mask.all()


class TestAggregatorContract:
    def test_never_drops_everything(self):
        class DropAll(RobustAggregator):
            def kept_mask(self, values):
                return np.zeros(values.shape, dtype=bool)

        value, mask = DropAll().aggregate(np.array([1.0, 2.0, 3.0]), "median")
        assert mask.all()  # fallback: keep everything rather than nothing
        assert value == 2.0

    def test_unknown_aggregation_rejected(self):
        with pytest.raises(ValueError, match="median/mean/min"):
            MADOutlierRejection().aggregate(np.arange(5.0), "mode")


class TestApplyPrefilter:
    @pytest.mark.parametrize("aggregation", ["median", "mean", "min"])
    def test_noop_bit_identical_to_value_table(self, aggregation):
        """A filter that drops nothing reproduces value_table exactly --
        same reducer call on the same survivors."""
        kern = kernel_from_rows(
            [np.array([1.0, 2.0, 3.0]), np.array([4.0, 6.0, 8.0]), np.array([5.0, 5.5, 6.5])]
        )
        plain_points, plain_values = value_table(kern, aggregation)
        points, values, report = apply_prefilter(kern, MADOutlierRejection(k=50.0), aggregation)
        np.testing.assert_array_equal(points, plain_points)
        np.testing.assert_array_equal(values, plain_values)
        assert report.dropped_total == 0

    def test_report_shapes(self):
        kern, _ = tainted_kernel()
        _, _, report = apply_prefilter(kern, MADOutlierRejection(k=3.0), "median")
        assert isinstance(report, PrefilterReport)
        assert len(report.dropped_per_point) == len(kern.measurements)
        assert len(report.kept_masks) == len(kern.measurements)
        assert report.dropped_total == sum(report.dropped_per_point)

    def test_empty_measurements_rejected(self):
        with pytest.raises(ValueError, match="no measurements"):
            apply_prefilter(Kernel("empty"), MADOutlierRejection(), "median")


class TestRegistry:
    def test_builtins_registered(self):
        names = set(available_prefilters())
        assert {"median", "trimmed", "mad"} <= names
        assert "MADOutlierRejection" in names  # class-name alias

    def test_create_from_spec(self):
        pf = create_prefilter("mad(k=2.0)")
        assert isinstance(pf, MADOutlierRejection)
        assert pf.k == 2.0

    def test_none_and_instance_pass_through(self):
        assert create_prefilter(None) is None
        pf = TrimmedMean()
        assert create_prefilter(pf) is pf

    def test_unknown_name_lists_registered(self):
        with pytest.raises(ValueError, match="registered prefilters"):
            validate_prefilter_spec("winsorize(k=3)")

    def test_unknown_keyword_rejected(self):
        with pytest.raises(ValueError, match="accepted keywords"):
            validate_prefilter_spec("mad(sigma=3)")


class TestPipelineIntegration:
    def test_clean_data_bit_identical_with_and_without_prefilter(
        self, clean_experiment_1p
    ):
        """Noise-free repetitions are identical, so the MAD is zero and the
        filtered pipeline must reproduce the unfiltered model exactly."""
        kernel = clean_experiment_1p.only_kernel()
        plain = ModelingPipeline(FullSearchGenerator()).model_kernel(kernel)
        filtered = ModelingPipeline(
            FullSearchGenerator(), prefilter="mad(k=3.0)"
        ).model_kernel(kernel)
        assert filtered.function.structure_key() == plain.function.structure_key()
        assert filtered.cv_smape == plain.cv_smape
        assert filtered.provenance.dropped_repetitions == 0
        assert filtered.provenance.prefilter == "MADOutlierRejection(k=3.0)"
        assert plain.provenance.prefilter == ""

    def test_provenance_counts_dropped_repetitions(self):
        kern, masks = tainted_kernel(seed=1)
        from repro.experiment.experiment import Experiment

        exp = Experiment(["p"])
        target = exp.create_kernel("k")
        target.add_rows(kern.table.points, [m.values for m in kern.measurements])
        result = ModelingPipeline(
            FullSearchGenerator(), prefilter="mad(k=3.0)"
        ).model_kernel(target)
        assert result.provenance.dropped_repetitions == int(
            sum(m.sum() for m in masks)
        )

    def test_modeler_spec_embeds_prefilter(self):
        modeler = create_modeler("regression(prefilter=mad(k=2.5))")
        pf = modeler.pipeline.prefilter
        assert isinstance(pf, MADOutlierRejection)
        assert pf.k == 2.5

    def test_prefilter_keyword_override(self):
        modeler = create_modeler("regression", prefilter="trimmed(proportion=0.2)")
        assert isinstance(modeler.pipeline.prefilter, TrimmedMean)

    def test_bad_embedded_prefilter_rejected_at_validation(self):
        with pytest.raises(ValueError, match="prefilter"):
            validate_spec("regression(prefilter=winsorize(k=3))")

    def test_gpr_accepts_prefilter(self):
        from repro.baselines.gpr import GPRModeler

        kern, _ = tainted_kernel(seed=1)
        plain = GPRModeler(rng=0).predict_at(kern, [Coordinate(30.0)])
        filtered = GPRModeler(rng=0, prefilter="mad(k=3.0)").predict_at(
            kern, [Coordinate(30.0)]
        )
        assert np.all(np.isfinite(plain)) and np.all(np.isfinite(filtered))
