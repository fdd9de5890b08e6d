"""Engine bench: batched multi-parameter fitting vs the reference loop.

Evaluates the same combination-hypothesis tasks through both fitting
engines: the reference per-hypothesis loop
(:func:`repro.regression.selection.evaluate_hypotheses` + ``select_best``)
and the batched fast path (:class:`repro.regression.fast_multi.
FastMultiParameterSearch`). Tasks mirror the DNN modeler's multi-parameter
hot path -- top-k candidate pairs per parameter expanded over all
additive/multiplicative combinations (~136 hypotheses for k = 3, m = 3) on
a ``5^m`` measurement grid.

Winners must be bit-identical (the fast path refits its winner through the
reference solver); the per-task and aggregate speedups are written to
``benchmarks/results/BENCH_fast_multi.json``.
"""

from __future__ import annotations

import time
from pathlib import Path

import numpy as np

from repro.noise.injection import UniformNoise
from repro.pmnf.searchspace import EXPONENT_PAIRS
from repro.pmnf.terms import CompoundTerm
from repro.regression.fast_multi import FastMultiParameterSearch
from repro.regression.multi_parameter import combination_hypotheses
from repro.regression.selection import evaluate_hypotheses, select_best
from repro.synthesis.functions import random_multi_parameter_function
from repro.synthesis.measurements import grid_coordinates
from repro.synthesis.sequences import random_sequence
from repro.util.artifacts import atomic_write_json
from repro.util.seeding import as_generator

RESULTS_DIR = Path(__file__).parent / "results"

SEED = 20210517
TOP_K = 3
TASKS = (
    # (n_params, count): the multi-parameter shapes of the paper's sweeps.
    (2, 30),
    (3, 20),
)


def _dnn_like_hypotheses(gen, n_params: int, k: int = TOP_K):
    """Top-k candidate pairs per parameter, expanded as DNNTopKGenerator does."""
    candidates = []
    for _ in range(n_params):
        picks = gen.choice(len(EXPONENT_PAIRS), size=k, replace=False)
        candidates.append(
            [
                None if pair.is_constant else CompoundTerm.from_pair(pair)
                for pair in (EXPONENT_PAIRS[int(i)] for i in picks)
            ]
        )
    return combination_hypotheses(candidates)


def _make_task(gen, n_params: int):
    truth = random_multi_parameter_function(n_params, gen)
    sets = [random_sequence(5, None, gen) for _ in range(n_params)]
    coords = grid_coordinates(sets)
    points = np.stack([c.as_array() for c in coords])
    values = UniformNoise(0.2).apply(np.atleast_1d(truth.evaluate(points)), gen)
    return _dnn_like_hypotheses(gen, n_params), points, values


def test_fast_multi_speedup_and_bit_identity(record_table, benchmark):
    gen = as_generator(SEED)
    search = FastMultiParameterSearch()
    records = []
    for n_params, count in TASKS:
        for _ in range(count):
            hypotheses, points, values = _make_task(gen, n_params)

            started = time.perf_counter()
            ref = select_best(evaluate_hypotheses(hypotheses, points, values))
            ref_seconds = time.perf_counter() - started

            started = time.perf_counter()
            fst = search.select(hypotheses, points, values)
            fast_seconds = time.perf_counter() - started

            assert fst.function.structure_key() == ref.function.structure_key()
            assert fst.cv_smape == ref.cv_smape
            assert fst.function.constant == ref.function.constant
            np.testing.assert_array_equal(
                [t.coefficient for t in fst.function.terms],
                [t.coefficient for t in ref.function.terms],
            )
            records.append(
                {
                    "n_params": n_params,
                    "n_hypotheses": len(hypotheses),
                    "reference_seconds": round(ref_seconds, 6),
                    "fast_seconds": round(fast_seconds, 6),
                    "speedup": round(ref_seconds / fast_seconds, 3),
                }
            )

    speedups = np.array([r["speedup"] for r in records])
    totals = {
        "reference_seconds": round(sum(r["reference_seconds"] for r in records), 4),
        "fast_seconds": round(sum(r["fast_seconds"] for r in records), 4),
    }
    payload = {
        "bench": "fast_multi",
        "seed": SEED,
        "top_k": TOP_K,
        "tasks": records,
        "total": {
            **totals,
            "speedup": round(
                totals["reference_seconds"] / totals["fast_seconds"], 3
            ),
        },
        "speedup_median": round(float(np.median(speedups)), 3),
        "speedup_min": round(float(speedups.min()), 3),
        "speedup_max": round(float(speedups.max()), 3),
        "bit_identical": True,
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    atomic_write_json(RESULTS_DIR / "BENCH_fast_multi.json", payload)

    lines = [
        f"{'m':>2} {'tasks':>6} {'hyps/task':>10} {'median speedup':>15}",
    ]
    for n_params, _ in TASKS:
        sub = [r for r in records if r["n_params"] == n_params]
        lines.append(
            f"{n_params:>2} {len(sub):>6} "
            f"{np.mean([r['n_hypotheses'] for r in sub]):>10.1f} "
            f"{np.median([r['speedup'] for r in sub]):>14.2f}x"
        )
    lines.append(
        f"overall {payload['total']['speedup']:.2f}x "
        f"(median {payload['speedup_median']:.2f}x); winners bit-identical"
    )
    record_table("Batched multi-parameter fitting vs reference loop", "\n".join(lines))

    assert payload["total"]["speedup"] > 1.0, "the batched path must win overall"

    # Timed unit: one batched fit/select over a 3-parameter top-k task.
    hypotheses, points, values = _make_task(as_generator(SEED + 1), 3)
    benchmark(lambda: search.select(hypotheses, points, values))
