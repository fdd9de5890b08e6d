import numpy as np
import pytest

from repro.experiment.experiment import Experiment
from repro.experiment.filters import (
    filter_experiment,
    relevant_kernels,
    runtime_shares,
)


def build(big_value=98.0, small_value=2.0):
    exp = Experiment(["p"])
    points = [[4.0], [8.0], [16.0]]
    exp.create_kernel("big").add_rows(points, [[big_value]] * 3)
    exp.create_kernel("small").add_rows(points, [[small_value]] * 3)
    return exp


class TestRuntimeShares:
    def test_shares_sum_to_one_for_fully_measured(self):
        shares = runtime_shares(build())
        assert sum(shares.values()) == pytest.approx(1.0)
        assert shares["big"] == pytest.approx(0.98)

    def test_partially_measured_kernel_not_penalized(self):
        exp = build()
        extra = exp.create_kernel("extra")
        extra.add_rows([[4.0]], [[100.0]])  # only measured at one point
        shares = runtime_shares(exp)
        # At x=4 extra contributes 100/(98+2+100) = 0.5.
        assert shares["extra"] == pytest.approx(0.5)

    def test_aggregation_respected(self):
        exp = Experiment(["p"])
        k = exp.create_kernel("k")
        k.add_rows([[4.0]], [[1.0, 100.0, 1.0]])  # median 1, mean 34
        other = exp.create_kernel("o")
        other.add_rows([[4.0]], [[1.0]])
        median_shares = runtime_shares(exp, "median")
        mean_shares = runtime_shares(exp, "mean")
        assert mean_shares["k"] > median_shares["k"]

    def test_empty_experiment_rejected(self):
        with pytest.raises(ValueError):
            runtime_shares(Experiment(["p"]))


class TestRelevantKernels:
    def test_one_percent_cutoff(self):
        names = [k.name for k in relevant_kernels(build())]
        assert names == ["big", "small"]  # 2 % > 1 %
        names = [k.name for k in relevant_kernels(build(small_value=0.5))]
        assert names == ["big"]  # 0.5 % < 1 %

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            relevant_kernels(build(), threshold=1.0)


class TestFilterExperiment:
    def test_filtered_copy(self):
        filtered = filter_experiment(build(small_value=0.5))
        assert filtered.kernel_names == ["big"]
        assert len(filtered.kernel("big")) == 3

    def test_all_filtered_rejected(self):
        with pytest.raises(ValueError):
            filter_experiment(build(), threshold=0.999)
