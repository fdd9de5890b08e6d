"""Adaptation-cache bench: shared cluster retraining vs per-worker adaptation.

A repeated-task-shape sweep (two noise levels, identical point layouts)
runs three ways, all with domain adaptation enabled and identical modeler
settings:

* **seed path** -- no store: every worker process re-adapts every cluster
  it encounters, the pre-PR cost model;
* **cold cache** -- an empty :class:`AdaptationStore`: the parent pre-pass
  adapts each cluster once (fused) and workers load the stored weights;
* **warm cache** -- the same store again: nothing left to adapt.

Because adaptation RNG streams are derived from the cluster keys, all
three runs are bit-identical -- the store may only move wall-clock time.
The summed adapt seconds (telemetry spans ``dnn.adapt_network`` +
``dnn.adapt_fused``, CPU-seconds across all processes) must drop by >= 2x
from seed to cold. The printed table names the worker and CPU counts so
oversubscribed containers can be read in context.

This bench stays beside the end-to-end benchmark (``benchmarks/e2e``)
because no e2e workload exercises a warm or cold adaptation store:
``casestudy_adapt`` adapts on every unit.
"""

from __future__ import annotations

import os
import time

import numpy as np

from repro.dnn.adaptation_cache import AdaptationStore
from repro.dnn.modeler import DNNModeler
from repro.evaluation.sweep import SweepConfig, run_sweep
from repro.obs import ENV_VAR as TELEMETRY_ENV
from repro.obs.report import load_run_trace, summarize_trace
from repro.parallel.pool import execution_profile


def adaptation_samples_per_class() -> int:
    return int(os.environ.get("REPRO_ADAPT_SPC", "500"))

SEED = 20210517
WORKERS = 4
# A repeated-task-shape sweep: every function shares one fixed point
# layout, so at the default 5% noise resolution the 16 tasks quantize
# onto a handful of adaptation clusters -- the workload the cache is for.
# Without the fixed layout each function draws a random sequence and every
# task is its own cluster, which measures fusion but not sharing.
CONFIG = SweepConfig(
    n_params=1,
    noise_levels=(0.05, 0.3),
    n_functions=8,
    batch_size=1,
    parameter_value_sets=((4.0, 8.0, 16.0, 32.0, 64.0),),
)
#: Top-level adaptation spans; their summed duration is the metric. The
#: fused span wraps the whole stacked retraining, the per-task span one
#: unfused adaptation -- the two never nest.
ADAPT_SPANS = ("dnn.adapt_network", "dnn.adapt_fused")


def _modelers(generic_network):
    return {
        "dnn": DNNModeler(
            network=generic_network,
            use_domain_adaptation=True,
            adaptation_samples_per_class=adaptation_samples_per_class(),
        )
    }


def _adapt_seconds(run_dir) -> float:
    summary = summarize_trace(load_run_trace(run_dir))
    return sum(g["seconds"] for g in summary["spans"] if g["name"] in ADAPT_SPANS)


def _run(generic_network, run_dir, cache=None):
    previous = os.environ.get(TELEMETRY_ENV)
    os.environ[TELEMETRY_ENV] = "1"
    try:
        started = time.perf_counter()
        result = run_sweep(
            CONFIG,
            _modelers(generic_network),
            rng=SEED,
            processes=WORKERS,
            run_dir=str(run_dir),
            adaptation_cache=cache,
        )
        seconds = time.perf_counter() - started
    finally:
        if previous is None:
            del os.environ[TELEMETRY_ENV]
        else:
            os.environ[TELEMETRY_ENV] = previous
    return result, seconds, _adapt_seconds(run_dir)


def _assert_identical(a, b):
    for key, cell in a.cells.items():
        np.testing.assert_array_equal(cell.distances, b.cells[key].distances)
        np.testing.assert_array_equal(cell.errors, b.cells[key].errors)
        assert cell.functions == b.cells[key].functions


def test_adaptation_cache_speedup(generic_network, tmp_path):
    store = AdaptationStore(
        tmp_path / "store",
        samples_per_class=adaptation_samples_per_class(),
    )

    seed_result, seed_seconds, seed_adapt = _run(generic_network, tmp_path / "seed")
    cold_result, cold_seconds, cold_adapt = _run(
        generic_network, tmp_path / "cold", cache=store
    )
    warm_result, warm_seconds, warm_adapt = _run(
        generic_network, tmp_path / "warm", cache=store
    )

    # The ISSUE acceptance criterion: the store may only move time, never
    # results -- warm, cold, and store-less runs are bit-identical.
    _assert_identical(seed_result, cold_result)
    _assert_identical(seed_result, warm_result)

    clusters = len(list((tmp_path / "store").glob("adapted-*.npz")))
    reduction = seed_adapt / cold_adapt if cold_adapt > 0 else float("inf")
    profile = execution_profile(WORKERS)
    print(
        f"\n{'arm':<12} {'wall s':>8} {'adapt s (summed)':>17}\n"
        f"{'seed':<12} {seed_seconds:>8.2f} {seed_adapt:>17.2f}\n"
        f"{'cold':<12} {cold_seconds:>8.2f} {cold_adapt:>17.2f}\n"
        f"{'warm':<12} {warm_seconds:>8.2f} {warm_adapt:>17.2f}\n"
        f"{clusters} cluster(s), {profile['processes']} workers on "
        f"{profile['cpu_count']} CPU(s); adapt reduction {reduction:.2f}x cold, "
        f"results bit-identical"
    )

    tasks = len(CONFIG.noise_levels) * CONFIG.n_functions
    assert 1 <= clusters < tasks, (
        f"the repeated-task-shape sweep must dedupe: {clusters} clusters "
        f"for {tasks} tasks"
    )
    assert seed_adapt > 0, "the seed path must actually adapt"
    assert reduction >= 2.0, (
        f"expected >= 2x summed adapt-seconds reduction, got {reduction:.2f}x "
        f"(seed {seed_adapt:.2f}s vs cold {cold_adapt:.2f}s)"
    )
    assert warm_adapt <= cold_adapt, "a warm store cannot adapt more than a cold one"
