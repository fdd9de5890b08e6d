import numpy as np
import pytest

from repro.dnn.modeler import DNNModeler
from repro.experiment.experiment import Experiment
from repro.pmnf.terms import ExponentPair


@pytest.fixture
def modeler(tiny_network) -> DNNModeler:
    return DNNModeler(network=tiny_network, use_domain_adaptation=False)


class TestClassification:
    def test_top_k_pairs_per_line(self, modeler, clean_experiment_2p):
        kern = clean_experiment_2p.only_kernel()
        candidates = modeler.classify_lines(kern, 2, modeler.generic_network)
        assert len(candidates) == 2
        assert all(len(c) == 3 for c in candidates)
        assert all(isinstance(p, ExponentPair) for c in candidates for p in c)

    def test_top_k_configurable(self, tiny_network, clean_experiment_1p):
        m = DNNModeler(network=tiny_network, top_k=5, use_domain_adaptation=False)
        kern = clean_experiment_1p.only_kernel()
        (candidates,) = m.classify_lines(kern, 1, tiny_network)
        assert len(candidates) == 5

    def test_invalid_top_k(self):
        with pytest.raises(ValueError):
            DNNModeler(top_k=0)


class TestBatchedClassification:
    def test_batch_matches_per_kernel(self, tiny_network, clean_experiment_1p, noisy_experiment_1p):
        """One stacked forward pass must select the same candidates as
        per-kernel classification."""
        batched = DNNModeler(network=tiny_network, use_domain_adaptation=False)
        single = DNNModeler(network=tiny_network, use_domain_adaptation=False)
        kernels = [clean_experiment_1p.only_kernel(), noisy_experiment_1p.only_kernel()]
        batch = batched.classify_batch(kernels, 1)
        for kernel, candidates in zip(kernels, batch):
            assert candidates == single.classify_lines(kernel, 1, tiny_network)

    def test_batch_primes_candidate_cache(self, modeler, clean_experiment_1p):
        kernel = clean_experiment_1p.only_kernel()
        modeler.classify_batch([kernel], 1)
        hits_before = modeler._candidate_cache.hits
        modeler.classify_lines(kernel, 1, modeler.generic_network)
        assert modeler._candidate_cache.hits == hits_before + 1

    def test_encoding_cached_per_kernel(self, modeler, clean_experiment_1p):
        kernel = clean_experiment_1p.only_kernel()
        first = modeler.encode_kernel(kernel, 1)
        second = modeler.encode_kernel(kernel, 1)
        assert first is second
        assert modeler._encoding_cache.hits >= 1

    def test_unencodable_kernel_yields_none(self, modeler, clean_experiment_1p):
        from repro.experiment.experiment import Experiment

        empty = Experiment(["p"]).create_kernel("empty")
        good = clean_experiment_1p.only_kernel()
        with pytest.warns(RuntimeWarning, match="could not be encoded"):
            batch = modeler.classify_batch([empty, good], 1)
        assert batch[0] is None
        assert batch[1] is not None

    def test_encode_failures_surface_as_warning(self, modeler, clean_experiment_1p):
        empty = Experiment(["p"]).create_kernel("bad_kernel")
        with pytest.warns(RuntimeWarning) as record:
            modeler.classify_batch([empty], 1)
        messages = [str(w.message) for w in record]
        assert any("1 of 1 kernel(s)" in m and "bad_kernel" in m for m in messages)

    def test_kernel_with_too_few_dimensions_is_skipped(self, modeler, clean_experiment_2p):
        short = clean_experiment_2p.only_kernel()
        with pytest.warns(RuntimeWarning, match="1 of 1 kernel"):
            assert modeler.classify_batch([short], 3) == [None]

    def test_no_warning_when_all_kernels_encode(self, modeler, clean_experiment_1p, recwarn):
        modeler.classify_batch([clean_experiment_1p.only_kernel()], 1)
        assert not [w for w in recwarn if w.category is RuntimeWarning]

    def test_cache_stats_exposed(self, modeler, clean_experiment_1p):
        modeler.classify_batch([clean_experiment_1p.only_kernel()], 1)
        stats = modeler.cache_stats()
        assert set(stats) == {"adaptation", "encoding", "candidates"}
        assert stats["candidates"]["size"] == 1

    def test_reset_caches(self, modeler, clean_experiment_1p):
        modeler.classify_batch([clean_experiment_1p.only_kernel()], 1)
        modeler.reset_caches()
        assert modeler.cache_stats()["candidates"]["size"] == 0
        assert modeler.cache_stats()["encoding"]["size"] == 0


class TestAdaptationCacheBound:
    def test_adapted_networks_evicted_beyond_bound(self, tiny_network, clean_experiment_1p, clean_experiment_2p):
        m = DNNModeler(
            network=tiny_network,
            use_domain_adaptation=True,
            adaptation_samples_per_class=5,
            adaptation_cache_size=1,
        )
        m.model_experiment(clean_experiment_1p, rng=0)
        m.model_experiment(clean_experiment_2p, rng=0)
        assert len(m._adapted) == 1  # bounded: the older task was evicted
        assert m._adapted.evictions == 1

    def test_adaptation_hits_counted(self, tiny_network, clean_experiment_2p):
        m = DNNModeler(
            network=tiny_network,
            use_domain_adaptation=True,
            adaptation_samples_per_class=5,
        )
        m.model_experiment(clean_experiment_2p, rng=0)
        m.model_experiment(clean_experiment_2p, rng=0)
        stats = m.cache_stats()["adaptation"]
        assert stats["hits"] >= 1
        assert stats["misses"] >= 1


class TestModelKernel:
    def test_single_parameter_result(self, modeler, clean_experiment_1p):
        result = modeler.model_kernel(clean_experiment_1p.only_kernel(), rng=0)
        assert result.method == "dnn"
        assert result.function.n_params == 1
        assert np.isfinite(result.cv_smape)

    def test_constant_kernel_always_modelable(self, modeler):
        """Even if no top-k class is constant, the constant safety net must
        let a flat kernel be modeled."""
        exp = Experiment.single_parameter(
            "p", [4, 8, 16, 32, 64], [[7.0, 7.0]] * 5
        )
        result = modeler.model_kernel(exp.only_kernel(), rng=0)
        assert result.function.is_constant()

    def test_multi_parameter_result(self, modeler, clean_experiment_2p):
        result = modeler.model_kernel(clean_experiment_2p.only_kernel(), rng=0)
        assert result.function.n_params == 2

    def test_selection_prefers_good_fit(self, modeler, clean_experiment_1p):
        """On clean data the chosen hypothesis must fit nearly perfectly
        whenever the true class is among the candidates; at minimum the CV
        error must be bounded by construction."""
        result = modeler.model_kernel(clean_experiment_1p.only_kernel(), rng=0)
        assert result.cv_smape <= 200.0

    def test_empty_kernel_rejected(self, modeler):
        exp = Experiment(["p"])
        kern = exp.create_kernel("k")
        with pytest.raises(ValueError):
            modeler.model_kernel(kern)

    def test_deterministic_without_adaptation(self, modeler, noisy_experiment_1p):
        kern = noisy_experiment_1p.only_kernel()
        a = modeler.model_kernel(kern, rng=0)
        b = modeler.model_kernel(kern, rng=1)  # rng irrelevant w/o adaptation
        assert a.function.format() == b.function.format()


class TestDomainAdaptationFlow:
    def test_adaptation_cache_reused(self, tiny_network, clean_experiment_2p):
        m = DNNModeler(
            network=tiny_network,
            use_domain_adaptation=True,
            adaptation_samples_per_class=5,
        )
        m.model_experiment(clean_experiment_2p, rng=0)
        assert len(m._adapted) == 1
        m.model_experiment(clean_experiment_2p, rng=0)
        assert len(m._adapted) == 1  # same task -> same adapted network

    def test_injected_network_bypasses_adaptation(self, tiny_network, clean_experiment_1p):
        m = DNNModeler(
            network=tiny_network,
            use_domain_adaptation=True,
            adaptation_samples_per_class=5,
        )
        m.model_kernel(clean_experiment_1p.only_kernel(), rng=0, network=tiny_network)
        assert len(m._adapted) == 0


class TestModelExperiment:
    def test_all_kernels_modeled(self, modeler, clean_experiment_1p):
        results = modeler.model_experiment(clean_experiment_1p, rng=0)
        assert set(results) == {"synthetic"}
        assert results["synthetic"].kernel == "synthetic"


class TestClassifyBatchIterator:
    def test_iterator_input_fully_consumed(self, modeler, clean_experiment_1p, noisy_experiment_1p):
        """A generator argument must classify every kernel, not silently
        yield an empty batch after the first internal pass exhausts it."""
        kernels = [clean_experiment_1p.only_kernel(), noisy_experiment_1p.only_kernel()]
        from_iterator = modeler.classify_batch(iter(kernels), 1)
        from_list = modeler.classify_batch(kernels, 1)
        assert len(from_iterator) == 2
        assert from_iterator == from_list

    def test_empty_iterator_yields_empty_batch(self, modeler):
        assert modeler.classify_batch(iter([]), 1) == []


class TestCacheStatsFallbackShape:
    def test_plain_dict_cache_reports_full_shape(self, modeler):
        """A plain dict swapped in for the LRU must still report the
        hit/miss shape every consumer expects, not a bare size."""
        modeler._adapted = {}
        stats = modeler.cache_stats()["adaptation"]
        assert set(stats) == {"hits", "misses", "evictions", "size"}
        assert stats == {"hits": 0, "misses": 0, "evictions": 0, "size": 0}

    def test_fallback_absorbs_into_metrics(self, modeler):
        """The zero-filled shape must be digestible by absorb_cache_stats."""
        from repro.obs.metrics import MetricsRegistry

        modeler._adapted = {}
        registry = MetricsRegistry()
        registry.absorb_cache_stats(modeler.cache_stats(), prefix="dnn.cache")


class TestAdaptProvenance:
    def _adapting_modeler(self, tiny_network):
        return DNNModeler(
            network=tiny_network,
            use_domain_adaptation=True,
            adaptation_samples_per_class=5,
        )

    def test_adapt_stage_covered_by_named_total(self, tiny_network, clean_experiment_1p):
        """'total' must cover every stage listed next to it -- including
        'adapt' -- and equal the result's seconds."""
        m = self._adapting_modeler(tiny_network)
        result = m.model_kernel(clean_experiment_1p.only_kernel(), 1, rng=0)
        stages = result.provenance.stage_seconds
        assert "adapt" in stages and "total" in stages
        assert stages["total"] == result.seconds
        assert stages["total"] >= stages["adapt"]
        named = sum(v for k, v in stages.items() if k != "total")
        assert stages["total"] == pytest.approx(named, rel=0.25)

    def test_injected_network_leaves_pipeline_stages_alone(self, modeler, clean_experiment_1p):
        """Without adaptation the pipeline's stage dict passes through
        unchanged (no 'adapt', no synthesized 'total')."""
        result = modeler.model_kernel(
            clean_experiment_1p.only_kernel(), 1, rng=0, network=modeler.generic_network
        )
        assert "adapt" not in result.provenance.stage_seconds


class TestCacheWarmthBitIdentity:
    def test_warm_cache_consumes_no_caller_randomness(self, tiny_network, clean_experiment_1p):
        """The load-bearing fix: results and downstream RNG draws must be
        bit-identical whether the adaptation cache hits or misses."""
        kernel = clean_experiment_1p.only_kernel()

        def run(modeler):
            gen = np.random.default_rng(7)
            result = modeler.model_kernel(kernel, 1, rng=gen)
            return result, gen.random(4)

        cold = DNNModeler(
            network=tiny_network, use_domain_adaptation=True, adaptation_samples_per_class=5
        )
        cold_result, cold_draws = run(cold)
        # Same modeler again: the adapted network is now memoized (warm).
        assert cold.cache_stats()["adaptation"]["misses"] >= 1
        warm_result, warm_draws = run(cold)
        assert cold.cache_stats()["adaptation"]["hits"] >= 1
        assert cold_result.function.format() == warm_result.function.format()
        assert cold_result.cv_smape == warm_result.cv_smape
        np.testing.assert_array_equal(cold_draws, warm_draws)

    def test_network_for_task_ignores_caller_rng(self, tiny_network, clean_experiment_1p):
        from repro.dnn.domain_adaptation import AdaptationTask

        m = DNNModeler(
            network=tiny_network, use_domain_adaptation=True, adaptation_samples_per_class=5
        )
        task = AdaptationTask.from_kernel(clean_experiment_1p.only_kernel(), 1)
        gen = np.random.default_rng(3)
        before = gen.bit_generator.state
        m.network_for_task(task, rng=gen)
        assert gen.bit_generator.state == before  # rng neither read nor advanced
