"""Pre-filter bench: robustness gain under taint vs overhead on the hot path.

A paired degradation sweep (regression with median and with mean
aggregation, each with/without ``mad(k=3)``) over the contamination
probabilities ``0 / 0.1 / 0.3`` of :class:`TaintedRepetitionNoise`,
plus a micro-timing of the robust aggregate stage against the plain
``value_table`` path. Two claims are asserted:

* **accuracy** -- under 30 % contamination the MAD filter rescues mean
  aggregation (median SMAPE drops by at least half) and does not hurt the
  already-robust median aggregation;
* **overhead** -- filtering is cheap next to fitting: the filtered arm's
  total modeling time stays within 50 % of the unfiltered arm, and the
  per-kernel aggregate stage stays a small fraction of the pipeline.

The degradation table is deterministic and lands in ``benchmarks/results/``.
This bench stays beside the end-to-end benchmark (``benchmarks/e2e``)
because no e2e workload runs the pre-filter.
"""

from __future__ import annotations

import os
import time

import numpy as np

from repro.evaluation.degradation import run_degradation_sweep
from repro.evaluation.sweep import SweepConfig
from repro.experiment.measurement import value_table
from repro.modeling.prefilter import MADOutlierRejection, apply_prefilter
from repro.noise.injection import TaintedRepetitionNoise
from repro.synthesis.measurements import synthesize_experiment
from repro.pmnf.function import PerformanceFunction
from repro.pmnf.terms import ExponentPair

SEED = 20210517
LEVELS = (0.0, 0.1, 0.3)
SPECS = ("regression", "regression(aggregation=mean)")
PREFILTER = "mad(k=3.0)"


def bench_functions() -> int:
    """Functions per sweep cell (REPRO_EVAL_FUNCTIONS/5, at least 12)."""
    base = int(os.environ.get("REPRO_EVAL_FUNCTIONS", "200"))
    return max(12, base // 5)


def _timed_aggregate(measurements, repeats: int = 200) -> "tuple[float, float]":
    """Micro-timing: plain value_table vs MAD-filtered aggregation (seconds)."""
    prefilter = MADOutlierRejection(k=3.0)
    started = time.perf_counter()
    for _ in range(repeats):
        value_table(measurements, "median")
    plain = time.perf_counter() - started
    started = time.perf_counter()
    for _ in range(repeats):
        apply_prefilter(measurements, prefilter, "median")
    filtered = time.perf_counter() - started
    return plain / repeats, filtered / repeats


def test_prefilter_degradation_and_overhead(record_table):
    functions = bench_functions()
    report = run_degradation_sweep(
        list(SPECS),
        prefilter=PREFILTER,
        noise="tainted(level=0.05)",
        levels=LEVELS,
        config=SweepConfig(n_params=1, n_functions=functions, batch_size=8),
        rng=SEED,
    )

    # Micro-timing on a representative tainted kernel (25 points, 5 reps).
    function = PerformanceFunction.single_term(5.0, 2.0, [ExponentPair(1, 0)])
    experiment = synthesize_experiment(
        function,
        [np.array([4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0, 1024.0, 2048.0])],
        noise=TaintedRepetitionNoise(level=0.05, p=0.1),
        repetitions=5,
        rng=SEED,
    )
    plain_s, filtered_s = _timed_aggregate(experiment.only_kernel().measurements)
    print(
        f"\naggregate stage: value_table {plain_s * 1e6:.1f}us, "
        f"{PREFILTER} {filtered_s * 1e6:.1f}us"
    )

    rows = {}
    for level in LEVELS:
        rows[level] = report.comparison(level)

    # Overhead at the modeling level: total seconds of the filtered vs the
    # unfiltered arm at contamination 0 (same campaigns, same candidates).
    overhead = {}
    for spec in SPECS:
        plain_cell = report.sweep.cell(0.0, spec)
        filtered_cell = report.sweep.cell(0.0, f"{spec}+{PREFILTER}")
        overhead[spec] = {
            "seconds": round(plain_cell.seconds, 3),
            "seconds_filtered": round(filtered_cell.seconds, 3),
        }

    record_table(
        "Tainted-measurement degradation with and without the MAD pre-filter",
        report.format(),
    )

    # Accuracy: the filter rescues mean aggregation under heavy taint...
    mean_row = next(r for r in rows[0.3] if r["modeler"] == SPECS[1])
    assert mean_row["smape_filtered"] < 0.5 * mean_row["smape"], (
        f"MAD filter should at least halve mean-aggregation SMAPE at p=0.3: "
        f"{mean_row['smape']:.2f} -> {mean_row['smape_filtered']:.2f}"
    )
    # ...and never wrecks the already-robust median aggregation.
    median_row = next(r for r in rows[0.3] if r["modeler"] == SPECS[0])
    assert median_row["smape_filtered"] <= median_row["smape"] * 1.25
    # The filter visibly rejected repetitions under taint, none are
    # reported for the unfiltered arms (dropped counts only come from
    # filtered cells by construction), and clean campaigns drop far fewer.
    assert mean_row["dropped"] > 0

    # Overhead: filtering stays small next to candidate fitting.
    for spec, times in overhead.items():
        assert times["seconds_filtered"] <= times["seconds"] * 1.5 + 0.5, (
            f"{spec}: filtered arm took {times['seconds_filtered']:.2f}s vs "
            f"{times['seconds']:.2f}s unfiltered"
        )
    assert filtered_s < 50 * max(plain_s, 1e-9), (
        "the python-loop aggregate stage should stay within ~an order of "
        f"magnitude of value_table ({filtered_s * 1e6:.1f}us vs {plain_s * 1e6:.1f}us)"
    )
