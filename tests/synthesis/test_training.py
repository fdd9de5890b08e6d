import numpy as np
import pytest

from repro.noise.injection import (
    HeteroscedasticNoise,
    NoNoise,
    TaintedRepetitionNoise,
    UniformLevelRangeNoise,
    UniformNoise,
)
from repro.pmnf.searchspace import CONSTANT_CLASS, NUM_CLASSES, class_index
from repro.pmnf.terms import ExponentPair
from repro.preprocessing.encoding import INPUT_SIZE
from repro.synthesis import training
from repro.synthesis.sequences import SequenceKind
from repro.synthesis.training import (
    TrainingSetConfig,
    generate_training_set,
    synthesize_sample,
)

X5 = np.array([4.0, 8.0, 16.0, 32.0, 64.0])
X7 = np.array([70.0, 10.0, 30.0, 20.0, 50.0, 40.0, 60.0])  # unsorted on purpose
X11 = np.array([2.0, 3.0, 5.0, 7.0, 11.0, 13.0, 17.0, 19.0, 23.0, 29.0, 31.0])


class TestTrainingSetConfig:
    def test_defaults_valid(self):
        cfg = TrainingSetConfig()
        assert cfg.samples_per_class > 0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"samples_per_class": 0},
            {"min_points": 1},
            {"min_points": 8, "max_points": 6},
            {"max_points": 20},
            {"repetitions": 0},
            {"coefficient_range": (0.0, 1.0)},
            {"coefficient_range": (5.0, 1.0)},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            TrainingSetConfig(**kwargs)

    @pytest.mark.parametrize(
        "value_sets, message",
        [
            ([], r"^parameter_value_sets must not be empty$"),
            ([X5, np.arange(2.0, 20.0)], r"^parameter_value_sets\[1\] has 18 values, more than 11$"),
            ([np.array([2.0, 4.0, 8.0])], r"^parameter_value_sets\[0\] has 3 values, fewer than 5$"),
            ([X5, X5[::-1], np.array([2.0, 4.0, 4.0, 8.0, 16.0])],
             r"^parameter_value_sets\[2\] has duplicate values$"),
            ([np.array([0.0, 4.0, 8.0, 16.0, 32.0])],
             r"^parameter_value_sets\[0\] has values that are not finite and positive$"),
            ([np.array([-4.0, 4.0, 8.0, 16.0, 32.0])],
             r"^parameter_value_sets\[0\] has values that are not finite and positive$"),
            ([np.ones((5, 2))], r"^parameter_value_sets\[0\] is not one-dimensional$"),
        ],
        ids=["empty", "too_long", "too_short", "duplicates", "zero", "negative", "2d"],
    )
    def test_invalid_value_set_rejected_at_construction(self, value_sets, message):
        with pytest.raises(ValueError, match=message):
            TrainingSetConfig(parameter_value_sets=value_sets)


class TestSynthesizeSample:
    def test_shape(self):
        vec = synthesize_sample(5, TrainingSetConfig(), rng=0)
        assert vec.shape == (INPUT_SIZE,)

    def test_constant_class_constant_vector(self):
        cfg = TrainingSetConfig(noise=NoNoise())
        vec = synthesize_sample(CONSTANT_CLASS, cfg, rng=0)
        nz = vec[vec != 0]
        # v / x decays for a constant function; values differ across slots.
        assert nz.size >= cfg.min_points

    def test_fixed_parameter_value_sets_used(self):
        xs = np.array([4.0, 8.0, 16.0, 32.0, 64.0])
        cfg = TrainingSetConfig(parameter_value_sets=[xs], noise=NoNoise())
        vec = synthesize_sample(0, cfg, rng=1)
        assert np.count_nonzero(vec) == 5

    def test_linear_class_noise_free_is_flat(self):
        """For f = c0 + c1*x, the enriched values v/x approach c1 -- the
        encoding of a purely linear function decays toward a constant."""
        label = class_index(ExponentPair(1, 0))
        xs = np.array([4.0, 8.0, 16.0, 32.0, 64.0])
        cfg = TrainingSetConfig(parameter_value_sets=[xs], noise=NoNoise())
        vec = synthesize_sample(label, cfg, rng=2)
        assert vec.max() == pytest.approx(1.0)

    def test_oversized_value_set_rejected(self):
        with pytest.raises(ValueError, match=r"parameter_value_sets\[0\].*more than 11"):
            TrainingSetConfig(parameter_value_sets=[np.arange(2.0, 20.0)])


class TestGenerateTrainingSet:
    def test_balanced_classes(self):
        cfg = TrainingSetConfig(samples_per_class=3)
        X, y = generate_training_set(cfg, rng=0)
        assert X.shape == (3 * NUM_CLASSES, INPUT_SIZE)
        counts = np.bincount(y, minlength=NUM_CLASSES)
        assert np.all(counts == 3)

    def test_shuffled(self):
        cfg = TrainingSetConfig(samples_per_class=4)
        _, y = generate_training_set(cfg, rng=0, shuffle=True)
        assert not np.all(np.diff(y) >= 0)

    def test_unshuffled_grouped(self):
        cfg = TrainingSetConfig(samples_per_class=2)
        _, y = generate_training_set(cfg, rng=0, shuffle=False)
        assert np.all(np.diff(y) >= 0)

    def test_deterministic(self):
        cfg = TrainingSetConfig(samples_per_class=2, noise=UniformNoise(0.5))
        Xa, ya = generate_training_set(cfg, rng=11)
        Xb, yb = generate_training_set(cfg, rng=11)
        np.testing.assert_array_equal(Xa, Xb)
        np.testing.assert_array_equal(ya, yb)

    def test_inputs_bounded(self):
        cfg = TrainingSetConfig(samples_per_class=5)
        X, _ = generate_training_set(cfg, rng=3)
        assert np.all(np.abs(X) <= 1.0 + 1e-12)
        assert np.all(np.isfinite(X))


def _reference_training_set(config, gen, shuffle):
    """The per-sample loop the batched generator must reproduce exactly."""
    X = np.array(
        [
            synthesize_sample(label, config, gen)
            for label in range(NUM_CLASSES)
            for _ in range(config.samples_per_class)
        ]
    )
    y = np.repeat(np.arange(NUM_CLASSES, dtype=np.int64), config.samples_per_class)
    if shuffle:
        order = gen.permutation(y.size)
        X, y = X[order], y[order]
    return X, y


#: Every class (the constant one included) is drawn in each configuration.
REFERENCE_CONFIGS = {
    "one_set_reps5_drawn": TrainingSetConfig(
        samples_per_class=8, parameter_value_sets=[X5], noise=UniformLevelRangeNoise(0.05, 0.35)
    ),
    "three_sets_reps2_fixed": TrainingSetConfig(
        samples_per_class=8,
        parameter_value_sets=[X5, X7, X11],
        repetitions=2,
        fixed_repetitions=True,
        noise=UniformLevelRangeNoise(0.0, 0.5),
    ),
    "three_sets_reps2_drawn": TrainingSetConfig(
        samples_per_class=8, parameter_value_sets=[X5, X7, X11], repetitions=2
    ),
    "reps1": TrainingSetConfig(
        samples_per_class=6, parameter_value_sets=[X7], repetitions=1, fixed_repetitions=True
    ),
    "reps5_fixed": TrainingSetConfig(
        samples_per_class=6, parameter_value_sets=[X5, X11], fixed_repetitions=True
    ),
    "degenerate_band": TrainingSetConfig(
        samples_per_class=6, parameter_value_sets=[X5], noise=UniformLevelRangeNoise(0.0, 1e-3)
    ),
    "no_noise": TrainingSetConfig(
        samples_per_class=6, parameter_value_sets=[X5, X7], noise=NoNoise()
    ),
    "heteroscedastic": TrainingSetConfig(
        samples_per_class=6, parameter_value_sets=[X5, X7], noise=HeteroscedasticNoise(0.0, 0.6)
    ),
    "tainted": TrainingSetConfig(
        samples_per_class=6, parameter_value_sets=[X11], noise=TaintedRepetitionNoise(0.2, p=0.3)
    ),
    # The case-study shapes domain adaptation builds: 5-point sets, drawn
    # repetitions, and a noise band as wide as the campaigns measure.
    "casestudy_three_sets_wide_band": TrainingSetConfig(
        samples_per_class=8,
        parameter_value_sets=[X5, X5 * 3.0, np.array([10.0, 20.0, 30.0, 40.0, 50.0])],
        noise=UniformLevelRangeNoise(0.0, 2.85),
    ),
    "casestudy_two_sets_reps2": TrainingSetConfig(
        samples_per_class=8,
        parameter_value_sets=[X5, X5 * 2.0],
        repetitions=2,
        noise=UniformLevelRangeNoise(0.02, 0.4),
    ),
    "pretraining": TrainingSetConfig(samples_per_class=6),
    "pretraining_kinds": TrainingSetConfig(
        samples_per_class=6,
        sequence_kinds=(SequenceKind.SMALL_EXPONENTIAL, SequenceKind.UNIFORM),
    ),
}


class TestBatchedEqualsReference:
    @pytest.mark.parametrize("shuffle", [True, False], ids=["shuffled", "unshuffled"])
    @pytest.mark.parametrize("name", sorted(REFERENCE_CONFIGS))
    def test_rows_labels_and_generator_state(self, name, shuffle):
        config = REFERENCE_CONFIGS[name]
        # Seed 2 starts after one integers call: a 32-bit half is buffered.
        for seed, advanced in ((0, False), (1, False), (2, True)):
            gen, ref_gen = np.random.default_rng(seed), np.random.default_rng(seed)
            if advanced:
                gen.integers(7), ref_gen.integers(7)
            X, y = generate_training_set(config, gen, shuffle=shuffle)
            X_ref, y_ref = _reference_training_set(config, ref_gen, shuffle)
            assert X.tobytes() == X_ref.tobytes()
            np.testing.assert_array_equal(y, y_ref)
            assert y.dtype == y_ref.dtype
            assert gen.bit_generator.state == ref_gen.bit_generator.state


class TestReplay:
    """Domain-adaptation configs take the raw-word replay; the rows it
    makes are checked against the per-sample reference above."""

    ADAPTATION = REFERENCE_CONFIGS["casestudy_three_sets_wide_band"]

    def test_adaptation_configs_make_no_per_sample_calls(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("per-sample draw pass used")

        monkeypatch.setattr(training, "_draw_sample", refuse)
        X, _ = generate_training_set(self.ADAPTATION, rng=0)
        assert X.shape == (NUM_CLASSES * self.ADAPTATION.samples_per_class, INPUT_SIZE)
        with pytest.raises(AssertionError, match="per-sample draw pass used"):
            generate_training_set(REFERENCE_CONFIGS["heteroscedastic"], rng=0)

    def test_other_bit_generators_take_the_per_sample_pass(self):
        gen = np.random.Generator(np.random.Philox(4))
        ref_gen = np.random.Generator(np.random.Philox(4))
        X, _ = generate_training_set(self.ADAPTATION, gen, shuffle=False)
        X_ref, _ = _reference_training_set(self.ADAPTATION, ref_gen, shuffle=False)
        assert X.tobytes() == X_ref.tobytes()
        np.testing.assert_equal(gen.bit_generator.state, ref_gen.bit_generator.state)

    def test_unmirrorable_repetition_range_refused_by_name(self):
        config = TrainingSetConfig(
            samples_per_class=2, parameter_value_sets=[X5], repetitions=2**32 + 1
        )
        with pytest.raises(ValueError, match=r"integers range \[1, 4294967298\).*64-bit path"):
            generate_training_set(config, rng=0)

    def test_infinite_coefficient_range_refused_by_name(self):
        config = TrainingSetConfig(
            samples_per_class=2, parameter_value_sets=[X5], coefficient_range=(1.0, np.inf)
        )
        with pytest.raises(ValueError, match=r"uniform range \[1\.0, inf\]"):
            generate_training_set(config, rng=0)
