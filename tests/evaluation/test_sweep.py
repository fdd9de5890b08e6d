import numpy as np
import pytest

from repro.evaluation.sweep import (
    PAPER_NOISE_LEVELS,
    CellResult,
    SweepConfig,
    default_eval_functions,
    run_sweep,
)
from repro.modeling.pipeline import Modeler
from repro.regression.modeler import RegressionModeler


class TestSweepConfig:
    def test_paper_noise_levels(self):
        assert PAPER_NOISE_LEVELS == (0.02, 0.05, 0.10, 0.20, 0.50, 0.75, 1.00)

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_EVAL_FUNCTIONS", "17")
        assert default_eval_functions() == 17

    @pytest.mark.parametrize(
        "kwargs", [{"n_params": 0}, {"n_functions": 0}, {"points_per_parameter": 4}]
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            SweepConfig(**kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [
            # one value set for a two-parameter sweep
            {"n_params": 2, "parameter_value_sets": ((4.0, 8.0, 16.0, 32.0, 64.0),)},
            # fewer values than points_per_parameter
            {"n_params": 1, "parameter_value_sets": ((4.0, 8.0, 16.0),)},
        ],
    )
    def test_invalid_fixed_layout(self, kwargs):
        with pytest.raises(ValueError):
            SweepConfig(**kwargs)


@pytest.fixture(scope="module")
def small_sweep():
    config = SweepConfig(n_params=1, noise_levels=(0.02, 0.5), n_functions=20)
    return config, run_sweep(config, {"regression": RegressionModeler()}, rng=0)


class TestRunSweep:
    def test_cells_complete(self, small_sweep):
        config, result = small_sweep
        assert set(result.cells) == {(0.02, "regression"), (0.5, "regression")}
        cell = result.cell(0.02, "regression")
        assert isinstance(cell, CellResult)
        assert cell.distances.shape == (20,)
        assert cell.errors.shape == (20, 4)

    def test_low_noise_more_accurate_than_high(self, small_sweep):
        _, result = small_sweep
        low = result.cell(0.02, "regression").bucket_fractions()[1 / 4]
        high = result.cell(0.5, "regression").bucket_fractions()[1 / 4]
        assert low > high

    def test_accuracy_series_order(self, small_sweep):
        _, result = small_sweep
        series = result.accuracy_series("regression", 1 / 4)
        assert len(series) == 2
        assert series[0] > series[1]

    def test_power_series(self, small_sweep):
        _, result = small_sweep
        series = result.power_series("regression", 3)
        assert len(series) == 2
        assert all(np.isfinite(series))

    def test_deterministic(self):
        config = SweepConfig(n_params=1, noise_levels=(0.2,), n_functions=5)
        a = run_sweep(config, {"regression": RegressionModeler()}, rng=3)
        b = run_sweep(config, {"regression": RegressionModeler()}, rng=3)
        np.testing.assert_array_equal(
            a.cell(0.2, "regression").distances, b.cell(0.2, "regression").distances
        )

    def test_paired_comparison_same_campaign(self, tiny_network):
        """Both modelers must see the identical noisy measurements."""
        from repro.dnn.modeler import DNNModeler

        config = SweepConfig(n_params=1, noise_levels=(0.0,), n_functions=5)
        modelers = {
            "a": RegressionModeler(),
            "b": DNNModeler(network=tiny_network, use_domain_adaptation=False),
        }
        result = run_sweep(config, modelers, rng=1)
        # At zero noise regression recovers near-exactly, so its errors are ~0;
        # the DNN's may differ but both were evaluated on the same truths.
        assert result.cell(0.0, "a").errors.shape == result.cell(0.0, "b").errors.shape

    def test_failures_counted_not_hidden(self):
        class Exploding(Modeler):
            def model_kernels(self, kernels, n_params=None, rngs=None, network=None, memo=None):
                return [RuntimeError("boom") for _ in kernels]

        config = SweepConfig(n_params=1, noise_levels=(0.1,), n_functions=3)
        result = run_sweep(config, {"bad": Exploding()}, rng=0)
        cell = result.cell(0.1, "bad")
        assert cell.failures == 3
        assert np.all(np.isinf(cell.distances))
        assert cell.bucket_fractions()[1 / 2] == 0.0

    def test_modeler_without_batch_or_predict_refused(self):
        class PerKernelOnly:
            def model_kernel(self, kernel, n_params=None, rng=None):
                raise AssertionError("never called")

        with pytest.raises(TypeError, match="'per-kernel' has neither model_kernels"):
            run_sweep(SweepConfig(n_functions=1), {"per-kernel": PerKernelOnly()}, rng=0)

    def test_empty_modelers_rejected(self):
        with pytest.raises(ValueError):
            run_sweep(SweepConfig(), {}, rng=0)

    def test_two_parameter_sweep_runs(self):
        config = SweepConfig(n_params=2, noise_levels=(0.1,), n_functions=3)
        result = run_sweep(config, {"regression": RegressionModeler()}, rng=0)
        assert result.cell(0.1, "regression").distances.shape == (3,)


class TestFixedLayout:
    LAYOUT = ((4.0, 8.0, 16.0, 32.0, 64.0),)

    def test_fixed_layout_used_for_every_function(self):
        from repro.evaluation.sweep import _synthesize_task

        config = SweepConfig(
            n_params=1, noise_levels=(0.1,), parameter_value_sets=self.LAYOUT
        )
        gen = np.random.default_rng(0)
        for _ in range(3):
            _, kernel, _, gen = _synthesize_task(0.1, gen, config)
            values = sorted({m.coordinate[0] for m in kernel.measurements})
            assert values == list(self.LAYOUT[0])

    def test_random_layouts_differ_across_functions(self):
        from repro.evaluation.sweep import _synthesize_task

        config = SweepConfig(n_params=1, noise_levels=(0.1,))
        gen = np.random.default_rng(0)
        layouts = []
        for _ in range(3):
            _, kernel, _, gen = _synthesize_task(0.1, gen, config)
            layouts.append(tuple(sorted({m.coordinate[0] for m in kernel.measurements})))
        assert len(set(layouts)) > 1

    def test_fixed_layout_sweep_deterministic(self):
        config = SweepConfig(
            n_params=1,
            noise_levels=(0.2,),
            n_functions=4,
            parameter_value_sets=self.LAYOUT,
        )
        a = run_sweep(config, {"regression": RegressionModeler()}, rng=3)
        b = run_sweep(config, {"regression": RegressionModeler()}, rng=3)
        np.testing.assert_array_equal(
            a.cell(0.2, "regression").distances, b.cell(0.2, "regression").distances
        )


class TestSessionReuse:
    def test_warm_session_sweeps_match_one_shots(self):
        """Repeated sweeps on one warm session == fresh-engine sweeps."""
        from repro.evaluation.sweep import sweep_session

        config = SweepConfig(n_params=1, noise_levels=(0.2,), n_functions=4)
        modelers = {"regression": RegressionModeler()}
        with sweep_session(config, modelers, processes=1) as session:
            warm_a = run_sweep(config, modelers, rng=3, session=session)
            warm_b = run_sweep(config, modelers, rng=3, session=session)
        one_shot = run_sweep(config, modelers, rng=3)
        for result in (warm_a, warm_b):
            np.testing.assert_array_equal(
                result.cell(0.2, "regression").distances,
                one_shot.cell(0.2, "regression").distances,
            )

    def test_session_for_different_config_is_rejected(self):
        from repro.evaluation.sweep import sweep_session

        config = SweepConfig(n_params=1, noise_levels=(0.2,), n_functions=4)
        other = SweepConfig(n_params=1, noise_levels=(0.5,), n_functions=4)
        modelers = {"regression": RegressionModeler()}
        with sweep_session(other, modelers, processes=1) as session:
            with pytest.raises(ValueError, match="different SweepConfig"):
                run_sweep(config, modelers, rng=0, session=session)

    def test_session_excludes_engine_overrides(self):
        from repro.evaluation.sweep import sweep_session
        from repro.parallel.engine import EngineConfig

        config = SweepConfig(n_params=1, noise_levels=(0.2,), n_functions=4)
        modelers = {"regression": RegressionModeler()}
        with sweep_session(config, modelers, processes=1) as session:
            with pytest.raises(ValueError, match="mutually exclusive"):
                run_sweep(
                    config, modelers, rng=0, session=session, engine=EngineConfig()
                )
