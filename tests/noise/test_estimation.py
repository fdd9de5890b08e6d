import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiment.experiment import Experiment, Kernel
from repro.experiment.measurement import Coordinate, Measurement
from repro.noise.estimation import (
    estimate_noise_level,
    estimate_noise_level_corrected,
    noise_levels_per_point,
    pooled_relative_deviations,
    repetition_bias_factor,
    summarize_noise,
)
from repro.noise.injection import TaintedRepetitionNoise, UniformNoise


def noisy_kernel(level: float, n_points: int = 30, reps: int = 5, seed: int = 0) -> Kernel:
    gen = np.random.default_rng(seed)
    noise = UniformNoise(level)
    k = Kernel("k")
    values = [noise.apply(np.full(reps, 10.0 + i), gen) for i in range(n_points)]
    k.add_rows([[i + 2.0] for i in range(n_points)], values)
    return k


class TestEstimateNoiseLevel:
    def test_zero_noise(self):
        assert estimate_noise_level(noisy_kernel(0.0)) == 0.0

    @pytest.mark.parametrize("level", [0.1, 0.5, 1.0])
    def test_recovers_injected_level(self, level):
        """The pooled rrd estimate tracks the true level. With many points
        it systematically overshoots by ~20 % (per-point mean-centering lets
        deviations exceed n/2); the bias-corrected variant lands closer."""
        kern = noisy_kernel(level, n_points=60)
        raw = estimate_noise_level(kern)
        assert raw == pytest.approx(level, rel=0.35)
        corrected = estimate_noise_level_corrected(kern)
        assert corrected == pytest.approx(level, rel=0.15)

    def test_underestimates_with_single_point(self):
        # With one point and few repetitions the range cannot be covered.
        estimate = estimate_noise_level(noisy_kernel(0.5, n_points=1, reps=3))
        assert estimate < 0.5

    def test_accepts_experiment(self):
        exp = Experiment(["p"])
        kern = exp.create_kernel("k")
        source = noisy_kernel(0.2)
        kern.add_rows(source.table.points, [m.values for m in source.measurements])
        assert estimate_noise_level(exp) == estimate_noise_level(kern)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            estimate_noise_level([])

    def test_single_repetition_warns_and_returns_zero(self):
        """One repetition per point carries no spread information: the
        estimate degenerates to 0.0, which must be flagged, not silent."""
        kern = Kernel("k")
        kern.add_rows([[i + 2.0] for i in range(10)], [[10.0 + i] for i in range(10)])
        with pytest.warns(RuntimeWarning, match="single repetition"):
            assert estimate_noise_level(kern) == 0.0

    def test_repeated_measurements_do_not_warn(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            estimate_noise_level(noisy_kernel(0.2))

    @given(
        level=st.floats(min_value=0.05, max_value=1.0),
        seed=st.integers(min_value=0, max_value=1000),
    )
    @settings(max_examples=25, deadline=None)
    def test_estimate_stays_in_calibrated_band(self, level, seed):
        """The raw estimate stays within the band the bias analysis predicts
        for 40 points x 5 repetitions (factor ~1.2, spread a few percent).
        The upper margin leaves room for the sampling tail hypothesis can
        reach at level=1.0 (e.g. seed 944 estimates 1.475)."""
        estimate = estimate_noise_level(noisy_kernel(level, n_points=40, seed=seed))
        assert estimate <= level * 1.55
        assert estimate >= level * 0.75


def tainted_kernel(
    p: float, level: float = 0.1, n_points: int = 40, reps: int = 5, seed: int = 0
) -> Kernel:
    gen = np.random.default_rng(seed)
    noise = TaintedRepetitionNoise(level=level, p=p, outlier_location=2.0)
    k = Kernel("k")
    values = [noise.apply(np.full(reps, 10.0 + i), gen) for i in range(n_points)]
    k.add_rows([[i + 2.0] for i in range(n_points)], values)
    return k


class TestRobustEstimation:
    @pytest.mark.parametrize("level", [0.1, 0.5, 1.0])
    def test_robust_recovers_uniform_level(self, level):
        """4 * MAD is exact for U(-n/2, +n/2) itself; the pooled deviations
        are mean-centered over 5 repetitions, which shrinks the spread by
        ~sqrt(1 - 1/reps), so the estimate lands ~15-20 % low -- unlike the
        range's ~20 % pooling *overshoot*."""
        kern = noisy_kernel(level, n_points=60)
        assert estimate_noise_level(kern, robust=True) == pytest.approx(level, rel=0.25)

    def test_clean_data_does_not_warn(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            estimate_noise_level(noisy_kernel(0.2, n_points=60), robust=True)

    def test_taint_inflates_classic_not_robust(self):
        kern = tainted_kernel(p=0.1)
        classic = estimate_noise_level(kern)
        with pytest.warns(RuntimeWarning, match="tainted"):
            robust = estimate_noise_level(kern, robust=True)
        assert classic > 10.0 * robust  # outliers stretch the range...
        # ...but the MAD stays near the base level (mean-centering leaks a
        # bit of each tainted repetition into its point's deviations, so the
        # robust estimate sits somewhat above the injected 10 %).
        assert robust < 0.35

    def test_taint_factor_none_disables_warning(self):
        import warnings

        kern = tainted_kernel(p=0.1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            estimate_noise_level(kern, robust=True, taint_factor=None)

    def test_robust_default_off_keeps_classic_estimate(self):
        kern = noisy_kernel(0.3, n_points=40)
        assert estimate_noise_level(kern) == estimate_noise_level(kern, robust=False)


class TestPerPointLevels:
    def test_one_level_per_point(self):
        levels = noise_levels_per_point(noisy_kernel(0.3, n_points=25))
        assert levels.shape == (25,)
        assert np.all(levels >= 0)

    def test_per_point_underestimates_pooled(self):
        kern = noisy_kernel(0.5, n_points=50)
        assert np.mean(noise_levels_per_point(kern)) < estimate_noise_level(kern)


class TestSummarize:
    def test_summary_consistency(self):
        summary = summarize_noise(noisy_kernel(0.4, n_points=40))
        assert summary.minimum <= summary.median <= summary.maximum
        assert summary.n_points == 40
        assert summary.pooled >= summary.maximum - 1e-12  # pooling widens
        assert "n̄=" in summary.format()


class TestBiasCorrection:
    def test_factor_monotone_in_repetitions(self):
        factors = [repetition_bias_factor(r) for r in (2, 3, 5, 10)]
        assert factors == sorted(factors)
        assert repetition_bias_factor(1) == 0.0

    def test_single_point_five_reps_covers_two_thirds(self):
        assert repetition_bias_factor(5, 1) == pytest.approx(2 / 3, rel=0.05)

    def test_many_points_overshoot(self):
        assert repetition_bias_factor(5, 100) > 1.0

    def test_corrected_estimate_closer_on_few_points(self):
        # Single point, 5 reps: raw rrd underestimates ~ (rep-1)/(rep+1).
        raw_errors, corrected_errors = [], []
        for seed in range(30):
            kern = noisy_kernel(0.6, n_points=1, reps=5, seed=seed)
            raw_errors.append(abs(estimate_noise_level(kern) - 0.6))
            corrected_errors.append(abs(estimate_noise_level_corrected(kern) - 0.6))
        assert np.mean(corrected_errors) < np.mean(raw_errors)

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            repetition_bias_factor(0)

    def test_explicit_seed_matches_default(self):
        from repro.noise.estimation import DEFAULT_BIAS_SEED

        assert repetition_bias_factor(5, 3) == repetition_bias_factor(
            5, 3, rng=DEFAULT_BIAS_SEED
        )

    def test_generator_rng_accepted_and_seed_equivalent(self):
        from repro.noise.estimation import DEFAULT_BIAS_SEED

        via_gen = repetition_bias_factor(
            5, 3, rng=np.random.default_rng(DEFAULT_BIAS_SEED)
        )
        assert via_gen == repetition_bias_factor(5, 3, rng=DEFAULT_BIAS_SEED)
        # A different stream gives a (slightly) different Monte-Carlo factor
        # but stays in the same ballpark.
        other = repetition_bias_factor(5, 3, rng=np.random.default_rng(123))
        assert other == pytest.approx(via_gen, rel=0.1)

    def test_corrected_estimate_threads_rng(self):
        kern = noisy_kernel(0.6, n_points=1, reps=5, seed=0)
        a = estimate_noise_level_corrected(kern, rng=np.random.default_rng(7))
        b = estimate_noise_level_corrected(kern, rng=np.random.default_rng(7))
        assert a == b


class TestPooledDeviations:
    def test_pooled_size(self):
        kern = noisy_kernel(0.2, n_points=10, reps=5)
        assert pooled_relative_deviations(kern).size == 50

    @staticmethod
    def mixed_measurements(seed: int) -> list:
        """Repetition counts 1-7, magnitudes over six decades, one exact-zero
        mean, one taint-sized outlier."""
        gen = np.random.default_rng(seed)
        out = []
        for i in range(40):
            reps = int(gen.integers(1, 8))
            values = gen.normal(10.0, 2.0, size=reps) * 10.0 ** gen.uniform(-3, 3)
            out.append(Measurement(Coordinate(float(i + 1)), values))
        out.append(Measurement(Coordinate(41.0), [-1.5, 1.5, 0.0]))
        out.append(Measurement(Coordinate(42.0), [1.0, 1.0, 1.0, 50.0, 1.0]))
        return out

    @staticmethod
    def reference(measurements) -> np.ndarray:
        return np.concatenate([m.relative_deviations() for m in measurements])

    @pytest.mark.parametrize("seed", range(5))
    def test_bitwise_equal_to_per_measurement_deviations(self, seed):
        measurements = self.mixed_measurements(seed)
        pooled = pooled_relative_deviations(measurements)
        expected = self.reference(measurements)
        assert pooled.dtype == expected.dtype and pooled.shape == expected.shape
        assert np.sort(pooled).tobytes() == np.sort(expected).tobytes()

    def test_equal_repetition_counts_keep_measurement_order(self):
        measurements = [m for m in self.mixed_measurements(0) if m.repetitions == 5]
        pooled = pooled_relative_deviations(measurements)
        assert pooled.tobytes() == self.reference(measurements).tobytes()

    def test_exact_zero_mean_gives_zero_deviations(self):
        pooled = pooled_relative_deviations([Measurement(Coordinate(1.0), [-2.0, 2.0])])
        assert pooled.tobytes() == np.zeros(2).tobytes()

    @pytest.mark.parametrize("robust", [False, True])
    @pytest.mark.parametrize("seed", range(3))
    def test_estimate_bitwise_equal_with_reference_pooling(self, monkeypatch, robust, seed):
        import warnings

        import repro.noise.estimation as estimation

        measurements = self.mixed_measurements(seed)

        def estimate():
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                level = estimate_noise_level(measurements, robust=robust)
            return level, [str(w.message) for w in caught]

        level, messages = estimate()
        monkeypatch.setattr(estimation, "pooled_relative_deviations", self.reference)
        ref_level, ref_messages = estimate()
        assert np.float64(level).tobytes() == np.float64(ref_level).tobytes()
        assert messages == ref_messages
        if robust:
            assert any("tainted" in m for m in messages)
