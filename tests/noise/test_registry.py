"""The string-spec noise registry and the repr round-trip contract."""

import numpy as np
import pytest

from repro.noise.injection import (
    DriftNoise,
    GammaLevelNoise,
    GaussianNoise,
    HeteroscedasticNoise,
    LognormalSpikeNoise,
    NoNoise,
    SystematicErrorNoise,
    TaintedRepetitionNoise,
    UniformLevelRangeNoise,
    UniformNoise,
)
from repro.noise.registry import (
    available_noise_models,
    create_noise,
    noise_axis,
    noise_for_level,
    register_noise,
    validate_noise_spec,
)

VALUES = np.full(500, 10.0)

ALL_MODELS = [
    NoNoise(),
    UniformNoise(level=0.2),
    GaussianNoise(level=0.4),
    UniformLevelRangeNoise(lo=0.1, hi=0.5),
    GammaLevelNoise(shape=2.0, scale=0.13, lo=0.04, hi=0.80),
    LognormalSpikeNoise(level=0.2, spike_probability=0.3, spike_scale=0.5),
    SystematicErrorNoise(inner=UniformNoise(level=0.1), scale=0.2, slowdown_only=True),
    TaintedRepetitionNoise(level=0.05, p=0.15, outlier_location=1.5),
    HeteroscedasticNoise(lo=0.05, hi=0.5, mode="index"),
    DriftNoise(level=0.1, drift=0.3),
]


class TestReprRoundTrip:
    @pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: type(m).__name__)
    def test_repr_is_a_valid_spec(self, model):
        """Every NoiseModel repr parses and rebuilds bit-identically."""
        rebuilt = create_noise(repr(model))
        assert type(rebuilt) is type(model)
        assert repr(rebuilt) == repr(model)
        np.testing.assert_array_equal(
            model.apply(VALUES, rng=123), rebuilt.apply(VALUES, rng=123)
        )


class TestValidation:
    def test_unknown_model_lists_registered(self):
        with pytest.raises(ValueError, match="unknown noise model 'cosmic_rays': registered noise models are .*uniform"):
            validate_noise_spec("cosmic_rays(level=1)")  # intentionally invalid: the rejection is the test

    def test_unknown_keyword_lists_accepted(self):
        with pytest.raises(ValueError, match="accepted keywords"):
            validate_noise_spec("uniform(amplitude=0.2)")  # intentionally invalid: the rejection is the test

    def test_nested_spec_validated_recursively(self):
        with pytest.raises(ValueError, match="unknown noise model 'bogus': registered noise models are .*uniform"):
            validate_noise_spec("systematic(inner=bogus(x=1), scale=0.1)")  # intentionally invalid: the rejection is the test

    def test_registry_carries_signature(self):
        entry, _ = validate_noise_spec("tainted")
        assert entry.signature().startswith("tainted(level")


class TestCreate:
    def test_composed_model_from_nested_spec(self):
        model = create_noise(
            "systematic(inner=gamma(shape=2.0, scale=0.13), scale=0.1)"
        )
        assert isinstance(model, SystematicErrorNoise)
        assert isinstance(model.inner, GammaLevelNoise)

    def test_instance_passes_through(self):
        model = UniformNoise(0.3)
        assert create_noise(model) is model

    def test_overrides_win_over_spec(self):
        model = create_noise("uniform(level=0.1)", level=0.4)
        assert model.level == 0.4

    def test_class_name_alias(self):
        assert isinstance(create_noise("UniformNoise(level=0.2)"), UniformNoise)

    def test_constructor_errors_surface(self):
        with pytest.raises(ValueError):
            create_noise("uniform(level=-0.1)")


class TestAxisBinding:
    def test_every_builtin_has_an_entry(self):
        names = set(available_noise_models())
        assert {
            "clean", "uniform", "gaussian", "uniform_range", "gamma",
            "spike", "systematic", "tainted", "heteroscedastic", "drift",
        } <= names

    def test_axis_keywords(self):
        assert noise_axis("uniform") == "level"
        assert noise_axis("tainted(level=0.05)") == "p"
        assert noise_axis("drift") == "drift"

    def test_clean_has_no_axis(self):
        with pytest.raises(ValueError, match="no sweep axis"):
            noise_axis("clean")
        with pytest.raises(ValueError, match="'clean' has no sweep axis; give one of"):
            noise_for_level("clean", 0.1)

    def test_binding_refuses_a_bad_spec(self):
        """noise_for_level validates its spec once, with create_noise's
        messages."""
        with pytest.raises(ValueError, match="unknown keyword\\(s\\) bogus for noise model"):
            noise_for_level("uniform(bogus=1)", 0.1)  # intentionally invalid: the rejection is the test
        with pytest.raises(ValueError, match="unknown noise model 'nosuch'"):
            noise_for_level("nosuch", 0.1)  # intentionally invalid: the rejection is the test

    def test_registration_refuses_an_axis_the_factory_lacks(self):
        with pytest.raises(ValueError, match="sweep axis 'level' is not a keyword"):
            register_noise("no-level-test", lambda p=0.1: NoNoise(), axis="level")
        assert "no-level-test" not in available_noise_models()

    def test_uniform_binding_matches_historical_sweep(self):
        """noise_for_level('uniform', x) is exactly UniformNoise(x) -- the
        sweep's historical behaviour, draw-for-draw."""
        bound = noise_for_level("uniform", 0.2)
        np.testing.assert_array_equal(
            bound.apply(VALUES, rng=42), UniformNoise(0.2).apply(VALUES, rng=42)
        )

    def test_axis_value_wins_over_spec_value(self):
        model = noise_for_level("tainted(level=0.05, p=0.9)", 0.1)
        assert model.p == 0.1
        assert model.base.level == 0.05
