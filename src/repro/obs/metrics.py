"""Metrics registry: counters, gauges, and fixed-bucket histograms.

One registry unifies the channels that used to report separately --
:meth:`repro.util.cache.LRUCache.stats`, the parallel engine's
retry/timeout/skip counters, and per-epoch training loss/accuracy -- into a
single named snapshot that the trace sink serializes next to the spans.
Stage timings are not metrics: a stage is a span, and the trace's
``stage`` records carry the per-stage totals.

Three instrument kinds, deliberately minimal:

* :class:`Counter` -- monotonically increasing float total (``inc``);
* :class:`Gauge` -- last-written value (``set``);
* :class:`Histogram` -- fixed, finite bucket boundaries decided at creation
  time; ``observe`` bins a value into ``counts`` (the final slot is the
  overflow bucket) and accumulates ``sum``/``count``. Fixed boundaries keep
  snapshots mergeable across pool workers without resampling.

Snapshots are plain dicts of JSON-able primitives; :meth:`MetricsRegistry.merge`
combines a worker's snapshot into the driver's registry (counters add,
gauges last-write-wins, histograms add element-wise).
"""

from __future__ import annotations

import bisect
from typing import Mapping, Sequence

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullMetricsRegistry",
    "DEFAULT_SECONDS_BUCKETS",
]

#: Default histogram boundaries, tuned for wall-clock seconds (sub-ms
#: kernel fits up to minutes-long adaptation runs) but generic enough for
#: losses and accuracies; the final implicit bucket catches everything above.
DEFAULT_SECONDS_BUCKETS: tuple[float, ...] = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 60.0,
)


class Counter:
    """Monotonically increasing total."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counters only increase; got increment {amount!r}")
        self.value += amount


class Gauge:
    """Last-written value."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)


class Histogram:
    """Fixed-boundary histogram: counts per bucket plus sum and count.

    ``boundaries`` are inclusive upper bounds in increasing order; values
    above the last boundary land in the implicit overflow bucket, so
    ``len(counts) == len(boundaries) + 1``.
    """

    __slots__ = ("boundaries", "counts", "sum", "count")

    def __init__(self, boundaries: "Sequence[float]" = DEFAULT_SECONDS_BUCKETS):
        bounds = tuple(float(b) for b in boundaries)
        if not bounds:
            raise ValueError("a histogram needs at least one bucket boundary")
        if list(bounds) != sorted(bounds):
            raise ValueError(f"bucket boundaries must be increasing, got {bounds}")
        self.boundaries = bounds
        self.counts = [0] * (len(bounds) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.counts[bisect.bisect_left(self.boundaries, value)] += 1
        self.sum += float(value)
        self.count += 1


class MetricsRegistry:
    """Named instruments, created on first use and exported as one snapshot."""

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    @property
    def enabled(self) -> bool:
        return True

    # ------------------------------------------------------------ instruments
    def counter(self, name: str) -> Counter:
        instrument = self._counters.get(name)
        if instrument is None:
            instrument = self._counters[name] = Counter()
        return instrument

    def gauge(self, name: str) -> Gauge:
        instrument = self._gauges.get(name)
        if instrument is None:
            instrument = self._gauges[name] = Gauge()
        return instrument

    def histogram(
        self, name: str, boundaries: "Sequence[float] | None" = None
    ) -> Histogram:
        instrument = self._histograms.get(name)
        if instrument is None:
            instrument = self._histograms[name] = Histogram(
                boundaries if boundaries is not None else DEFAULT_SECONDS_BUCKETS
            )
        return instrument

    # ------------------------------------------------------------- absorption
    def absorb_cache_stats(
        self, stats: "Mapping[str, Mapping[str, int]]", prefix: str = "cache"
    ) -> None:
        """Fold :meth:`LRUCache.stats`-shaped counters into gauges.

        Gauges, not counters: cache statistics are cumulative totals read
        from the cache object, and re-reading must overwrite, not double.
        """
        for cache_name, cache_stats in stats.items():
            for key, value in cache_stats.items():
                self.gauge(f"{prefix}.{cache_name}.{key}").set(float(value))

    def absorb_training_history(self, history, prefix: str = "nn.fit") -> None:
        """Fold per-epoch loss/accuracy from a ``TrainingHistory`` in."""
        for loss in history.loss:
            self.histogram(f"{prefix}.epoch_loss").observe(float(loss))
        for acc in history.accuracy:
            self.histogram(f"{prefix}.epoch_accuracy").observe(float(acc))
        if history.loss:
            self.gauge(f"{prefix}.final_loss").set(float(history.loss[-1]))
        if history.accuracy:
            self.gauge(f"{prefix}.final_accuracy").set(float(history.accuracy[-1]))
        self.counter(f"{prefix}.epochs").inc(history.epochs)

    # ---------------------------------------------------------------- export
    def snapshot(self) -> dict:
        """JSON-able export of every instrument's current state."""
        return {
            "counters": {name: c.value for name, c in self._counters.items()},
            "gauges": {name: g.value for name, g in self._gauges.items()},
            "histograms": {
                name: {
                    "boundaries": list(h.boundaries),
                    "counts": list(h.counts),
                    "sum": h.sum,
                    "count": h.count,
                }
                for name, h in self._histograms.items()
            },
        }

    def merge(self, snapshot: "Mapping") -> None:
        """Combine another registry's snapshot (e.g. from a pool worker).

        Counters add, gauges take the incoming value, histograms add their
        bucket counts element-wise (boundaries must match exactly -- fixed
        boundaries are what makes worker snapshots mergeable at all).
        """
        for name, value in snapshot.get("counters", {}).items():
            self.counter(name).inc(float(value))
        for name, value in snapshot.get("gauges", {}).items():
            self.gauge(name).set(float(value))
        for name, data in snapshot.get("histograms", {}).items():
            boundaries = tuple(float(b) for b in data["boundaries"])
            histogram = self.histogram(name, boundaries)
            if histogram.boundaries != boundaries:
                raise ValueError(
                    f"histogram {name!r}: cannot merge boundaries {boundaries} "
                    f"into {histogram.boundaries}"
                )
            for idx, count in enumerate(data["counts"]):
                histogram.counts[idx] += int(count)
            histogram.sum += float(data["sum"])
            histogram.count += int(data["count"])


class _NullInstrument:
    """Shared no-op counter/gauge/histogram for disabled mode."""

    __slots__ = ()
    value = 0.0
    sum = 0.0
    count = 0

    def inc(self, amount: float = 1.0) -> None:
        return None

    def set(self, value: float) -> None:
        return None

    def observe(self, value: float) -> None:
        return None


_NULL_INSTRUMENT = _NullInstrument()


class NullMetricsRegistry:
    """No-op registry used when telemetry is disabled."""

    __slots__ = ()
    enabled = False

    def counter(self, name: str) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def gauge(self, name: str) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def histogram(
        self, name: str, boundaries: "Sequence[float] | None" = None
    ) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def absorb_cache_stats(self, stats, prefix: str = "cache") -> None:
        return None

    def absorb_training_history(self, history, prefix: str = "nn.fit") -> None:
        return None

    def snapshot(self) -> dict:
        return {"counters": {}, "gauges": {}, "histograms": {}}

    def merge(self, snapshot) -> None:
        return None
