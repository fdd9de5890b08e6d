"""The shared modeling pipeline, its engines, and the candidate generators."""

import numpy as np
import pytest

from repro.dnn.modeler import DNNModeler
from repro.experiment.measurement import value_table
from repro.modeling.candidates import (
    AdaptiveGenerator,
    DNNTopKGenerator,
    FullSearchGenerator,
)
from repro.modeling.engine import FIT_ENGINES, resolve_fit_engine
from repro.modeling.pipeline import Modeler, ModelingPipeline, PipelineModeler
from repro.modeling.registry import create_modeler
from repro.obs import recording
from repro.regression.modeler import RegressionModeler


class TestEngineToggle:
    def test_default_is_fast(self):
        assert resolve_fit_engine() == "fast"

    def test_invalid_engine_rejected(self):
        with pytest.raises(ValueError, match="warp.*fast, reference"):
            resolve_fit_engine("warp")

    @pytest.mark.parametrize("engine", [True, False, None])
    def test_only_engine_names_accepted(self, engine):
        """The boolean ``use_fast_path`` form and the ``None`` fallback are
        gone: an engine is named."""
        with pytest.raises(ValueError, match="expected one of fast, reference"):
            resolve_fit_engine(engine)

    def test_engines_tuple(self):
        assert FIT_ENGINES == ("fast", "reference")


class TestPipeline:
    def test_stages_and_provenance(self, clean_experiment_1p):
        pipeline = ModelingPipeline(FullSearchGenerator(), engine="fast")
        result = pipeline.model_kernel(clean_experiment_1p.only_kernel())
        prov = result.provenance
        assert prov.generator == "full-search"
        assert prov.engine == "fast"
        assert prov.n_candidates == 43
        assert set(prov.stage_seconds) == {"aggregate", "generate", "fit", "select"}
        assert result.seconds == pytest.approx(sum(prov.stage_seconds.values()))
        assert result.kernel == clean_experiment_1p.only_kernel().name

    def test_stage_seconds_counters(self, clean_experiment_1p):
        """Telemetry's ``pipeline.<stage>.seconds`` counters carry exactly
        the provenance's per-stage seconds."""
        pipeline = ModelingPipeline(FullSearchGenerator(), engine="fast")
        with recording(force=True) as tel:
            result = pipeline.model_kernel(clean_experiment_1p.only_kernel())
        counters = tel.metrics.snapshot()["counters"]
        assert {
            stage: counters[f"pipeline.{stage}.seconds"]
            for stage in result.provenance.stage_seconds
        } == result.provenance.stage_seconds

    @pytest.mark.parametrize("engine", FIT_ENGINES)
    def test_engines_select_same_model(self, engine, clean_experiment_2p):
        pipeline = ModelingPipeline(FullSearchGenerator(), engine=engine)
        result = pipeline.model_kernel(clean_experiment_2p.only_kernel())
        assert result.provenance.engine == engine
        assert result.cv_smape < 1.0

    def test_engine_equivalence_end_to_end(self, noisy_experiment_1p):
        kernel = noisy_experiment_1p.only_kernel()
        fast = ModelingPipeline(FullSearchGenerator(), engine="fast").model_kernel(kernel)
        ref = ModelingPipeline(FullSearchGenerator(), engine="reference").model_kernel(
            kernel
        )
        assert fast.function.structure_key() == ref.function.structure_key()
        assert fast.cv_smape == ref.cv_smape

    def test_empty_kernel_rejected(self, clean_experiment_1p):
        pipeline = ModelingPipeline(FullSearchGenerator())
        kernel = clean_experiment_1p.create_kernel("empty")
        with pytest.raises(ValueError, match="no measurements"):
            pipeline.model_kernel(kernel)

    def test_pipeline_modeler_satisfies_protocol(self):
        modeler = PipelineModeler(FullSearchGenerator(), method_name="custom")
        assert isinstance(modeler, Modeler)
        assert modeler.method_name == "custom"

    @pytest.mark.parametrize(
        "spec", ["regression", "dnn(use_domain_adaptation=false)", "adaptive", "fused"]
    )
    def test_registry_modelers_satisfy_protocol(self, spec):
        assert isinstance(create_modeler(spec), Modeler)

    def test_modeler_result_methods(self, clean_experiment_1p):
        results = RegressionModeler().model_experiment(clean_experiment_1p)
        (result,) = results.values()
        assert result.method == "regression"
        assert "[regression]" in result.format(["p"])


class TestGenerators:
    def test_full_search_needs_five_points(self, clean_experiment_1p):
        kernel = clean_experiment_1p.only_kernel()
        points, values = value_table(kernel, "median")
        gen = FullSearchGenerator()
        with pytest.raises(ValueError, match="five measurement points"):
            gen.generate(kernel, 1, points[:3], values[:3])

    def test_dnn_top_k_candidates(self, clean_experiment_1p, tiny_network):
        dnn = DNNModeler(network=tiny_network, use_domain_adaptation=False, top_k=3)
        kernel = clean_experiment_1p.only_kernel()
        points, values = value_table(kernel, "median")
        out = DNNTopKGenerator(dnn).generate(kernel, 1, points, values)
        assert out.generator == "dnn-top-k"
        # top-3 pairs plus the constant safety net, minus duplicates
        assert 2 <= len(out.hypotheses) <= 4

    def test_dnn_cache_hits_reported(self, clean_experiment_1p, tiny_network):
        dnn = DNNModeler(network=tiny_network, use_domain_adaptation=False)
        kernel = clean_experiment_1p.only_kernel()
        points, values = value_table(kernel, "median")
        generator = DNNTopKGenerator(dnn)
        first = generator.generate(kernel, 1, points, values, network=tiny_network)
        assert first.cache_hits == 0
        second = generator.generate(kernel, 1, points, values, network=tiny_network)
        assert second.cache_hits == 1

    def test_adaptive_generator_routes(
        self, clean_experiment_1p, noisy_experiment_1p, tiny_network
    ):
        dnn = DNNModeler(network=tiny_network, use_domain_adaptation=False)
        generator = AdaptiveGenerator(FullSearchGenerator(), DNNTopKGenerator(dnn))
        calm_kernel = clean_experiment_1p.only_kernel()
        points, values = value_table(calm_kernel, "median")
        calm = generator.generate(calm_kernel, 1, points, values)
        assert calm.generator == "adaptive-switch[union]"
        assert len(calm.hypotheses) == 43  # union dedups into the full search

    def test_adaptive_generator_noisy_uses_dnn_only(
        self, noisy_experiment_1p, tiny_network
    ):
        dnn = DNNModeler(network=tiny_network, use_domain_adaptation=False)
        # Force the noisy route regardless of the estimated level.
        generator = AdaptiveGenerator(
            FullSearchGenerator(),
            DNNTopKGenerator(dnn),
            thresholds={1: 0.0},
        )
        kernel = noisy_experiment_1p.only_kernel()
        points, values = value_table(kernel, "median")
        out = generator.generate(kernel, 1, points, values)
        assert out.generator == "adaptive-switch[dnn]"
        assert len(out.hypotheses) <= 4

    def test_fused_modeler_models(self, clean_experiment_1p, tiny_network):
        modeler = create_modeler("fused", network=tiny_network)
        result = modeler.model_kernel(clean_experiment_1p.only_kernel(), rng=0)
        assert result.method == "fused"
        assert result.provenance.generator.startswith("adaptive-switch")
        assert np.isfinite(result.cv_smape)
