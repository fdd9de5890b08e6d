import pytest

from repro.obs.metrics import (
    DEFAULT_SECONDS_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullMetricsRegistry,
)


class TestInstruments:
    def test_counter_accumulates(self):
        c = Counter()
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_counter_rejects_negative_increment(self):
        with pytest.raises(ValueError, match="only increase"):
            Counter().inc(-1.0)

    def test_gauge_last_write_wins(self):
        g = Gauge()
        g.set(3.0)
        g.set(1.5)
        assert g.value == 1.5

    def test_histogram_bins_values(self):
        h = Histogram((1.0, 10.0))
        for value in (0.5, 1.0, 5.0, 100.0):
            h.observe(value)
        # inclusive upper bounds: 0.5 and 1.0 -> first bucket, 5.0 -> second,
        # 100.0 -> overflow
        assert h.counts == [2, 1, 1]
        assert h.count == 4
        assert h.sum == pytest.approx(106.5)

    def test_histogram_counts_length(self):
        h = Histogram(DEFAULT_SECONDS_BUCKETS)
        assert len(h.counts) == len(DEFAULT_SECONDS_BUCKETS) + 1

    def test_histogram_rejects_bad_boundaries(self):
        with pytest.raises(ValueError, match="at least one"):
            Histogram(())
        with pytest.raises(ValueError, match="increasing"):
            Histogram((2.0, 1.0))


class TestRegistry:
    def test_instruments_memoized_by_name(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert registry.gauge("b") is registry.gauge("b")
        assert registry.histogram("c") is registry.histogram("c")

    def test_snapshot_shape(self):
        registry = MetricsRegistry()
        registry.counter("tasks").inc(3)
        registry.gauge("cache.size").set(7)
        registry.histogram("latency", (1.0,)).observe(0.5)
        snapshot = registry.snapshot()
        assert snapshot["counters"] == {"tasks": 3.0}
        assert snapshot["gauges"] == {"cache.size": 7.0}
        assert snapshot["histograms"]["latency"] == {
            "boundaries": [1.0],
            "counts": [1, 0],
            "sum": 0.5,
            "count": 1,
        }

    def test_merge_semantics(self):
        worker = MetricsRegistry()
        worker.counter("tasks").inc(2)
        worker.gauge("cache.size").set(5)
        worker.histogram("latency", (1.0,)).observe(0.5)
        driver = MetricsRegistry()
        driver.counter("tasks").inc(1)
        driver.gauge("cache.size").set(99)
        driver.histogram("latency", (1.0,)).observe(3.0)
        driver.merge(worker.snapshot())
        snapshot = driver.snapshot()
        assert snapshot["counters"]["tasks"] == 3.0  # counters add
        assert snapshot["gauges"]["cache.size"] == 5.0  # last write wins
        assert snapshot["histograms"]["latency"]["counts"] == [1, 1]  # element-wise
        assert snapshot["histograms"]["latency"]["count"] == 2

    def test_merge_rejects_boundary_mismatch(self):
        worker = MetricsRegistry()
        worker.histogram("latency", (1.0,)).observe(0.5)
        driver = MetricsRegistry()
        driver.histogram("latency", (2.0,)).observe(0.5)
        with pytest.raises(ValueError, match="boundaries"):
            driver.merge(worker.snapshot())

    def test_absorb_cache_stats_rereading_overwrites(self):
        """Cache stats are cumulative totals: gauges, not counters -- reading
        the same cache twice must not double its numbers."""
        registry = MetricsRegistry()
        stats = {"encoding": {"hits": 4, "misses": 2}}
        registry.absorb_cache_stats(stats, prefix="dnn.cache")
        registry.absorb_cache_stats(stats, prefix="dnn.cache")
        snapshot = registry.snapshot()
        assert snapshot["gauges"]["dnn.cache.encoding.hits"] == 4.0
        assert snapshot["gauges"]["dnn.cache.encoding.misses"] == 2.0

    def test_absorb_training_history(self):
        from repro.nn.network import TrainingHistory

        history = TrainingHistory(loss=[0.9, 0.4], accuracy=[0.5, 0.8])
        registry = MetricsRegistry()
        registry.absorb_training_history(history)
        snapshot = registry.snapshot()
        assert snapshot["counters"]["nn.fit.epochs"] == 2.0
        assert snapshot["gauges"]["nn.fit.final_loss"] == pytest.approx(0.4)
        assert snapshot["gauges"]["nn.fit.final_accuracy"] == pytest.approx(0.8)
        assert snapshot["histograms"]["nn.fit.epoch_loss"]["count"] == 2


class TestNullRegistry:
    def test_everything_is_a_noop(self):
        registry = NullMetricsRegistry()
        registry.counter("a").inc(5)
        registry.gauge("b").set(1)
        registry.histogram("c").observe(2)
        registry.absorb_cache_stats({"x": {"hits": 1}})
        registry.merge({"counters": {"a": 1.0}})
        assert registry.snapshot() == {"counters": {}, "gauges": {}, "histograms": {}}
        assert registry.enabled is False
