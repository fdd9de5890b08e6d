"""One-shot reproduction driver: regenerate the whole evaluation as a report.

``python -m repro reproduce`` (or :func:`run_reproduction`) runs the paper's
complete evaluation at a configurable scale -- the Fig. 3 sweeps for
m = 1..3, the three case studies (Figs. 4-6), and the noise-estimator
experiment -- and writes one markdown report plus the individual tables.
The benchmark suite covers the same ground with per-figure assertions; this
driver is the "give me everything in one command" entry point for users.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from repro.casestudies import ALL_STUDIES
from repro.casestudies.driver import CaseStudyResult, run_case_study
from repro.dnn.pretrained import load_or_pretrain
from repro.evaluation.figures import format_accuracy_table, format_power_table
from repro.evaluation.sweep import SweepConfig, SweepResult, run_sweep
from repro.modeling.registry import create_modeler
from repro.util.artifacts import atomic_write_text
from repro.util.seeding import as_generator, spawn_generators
from repro.util.tables import render_table


@dataclass
class ReproductionConfig:
    """Scale and scope of one reproduction run."""

    parameter_counts: Sequence[int] = (1, 2, 3)
    functions_per_cell: int = 100
    include_case_studies: bool = True
    include_estimator: bool = True
    adaptation_samples_per_class: int = 500
    estimator_trials: int = 200
    with_confidence_intervals: bool = True
    processes: "int | None" = None
    seed: int = 20210517


@dataclass
class ReproductionReport:
    """All artifacts of a reproduction run."""

    sweeps: dict[int, SweepResult] = field(default_factory=dict)
    case_studies: dict[str, CaseStudyResult] = field(default_factory=dict)
    estimator_error: "float | None" = None
    seconds: float = 0.0

    def to_markdown(self) -> str:
        lines = ["# Reproduction report", ""]
        lines.append(f"Total runtime: {self.seconds:.1f} s")
        panels_acc = {1: "a", 2: "b", 3: "c"}
        panels_pow = {1: "d", 2: "e", 3: "f"}
        for m, sweep in sorted(self.sweeps.items()):
            lines += [
                "",
                f"## Fig. 3({panels_acc.get(m, '?')}) — model accuracy, m={m}",
                "",
                "```",
                format_accuracy_table(sweep),
                "```",
                "",
                f"## Fig. 3({panels_pow.get(m, '?')}) — predictive power, m={m}",
                "",
                "```",
                format_power_table(sweep),
                "```",
            ]
        if self.case_studies:
            rows4, rows5, rows6 = [], [], []
            for name, result in sorted(self.case_studies.items()):
                rows4.append(
                    [
                        name,
                        f"{result.median_error('regression'):.2f}",
                        f"{result.median_error('adaptive'):.2f}",
                    ]
                )
                rows5.append(
                    [
                        name,
                        f"{result.noise.mean * 100:.2f}",
                        f"{result.noise.minimum * 100:.2f}",
                        f"{result.noise.maximum * 100:.2f}",
                    ]
                )
                rows6.append(
                    [
                        name,
                        f"{result.total_seconds['regression']:.2f}",
                        f"{result.total_seconds['adaptive']:.2f}",
                        f"{result.slowdown('adaptive'):.1f}x",
                    ]
                )
            lines += [
                "",
                "## Fig. 4 — case-study median relative prediction error (%)",
                "",
                "```",
                render_table(["study", "regression", "adaptive"], rows4),
                "```",
                "",
                "## Fig. 5 — noise distributions (%)",
                "",
                "```",
                render_table(["study", "mean", "min", "max"], rows5),
                "```",
                "",
                "## Fig. 6 — modeling time (s)",
                "",
                "```",
                render_table(["study", "regression", "adaptive", "slowdown"], rows6),
                "```",
            ]
        if self.estimator_error is not None:
            lines += [
                "",
                "## Sec. IV-B — noise-estimator accuracy",
                "",
                f"Mean absolute estimation error: {self.estimator_error * 100:.2f} "
                "percentage points (paper: 4.93).",
            ]
        if any(sweep.stage_seconds for sweep in self.sweeps.values()):
            rows = []
            stage_names = ("synthesize", "classify", "fit", "score", "total")
            for m, sweep in sorted(self.sweeps.items()):
                rows.append(
                    [f"m={m}"]
                    + [f"{sweep.stage_seconds.get(stage, 0.0):.2f}" for stage in stage_names]
                )
            lines += [
                "",
                "## Engine timing — per-stage wall-clock seconds",
                "",
                "```",
                render_table(["sweep", *stage_names], rows),
                "```",
            ]
        return "\n".join(lines) + "\n"

    def save(self, directory: "str | Path") -> Path:
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / "report.md"
        atomic_write_text(path, self.to_markdown())
        return path


def _estimator_experiment(trials: int, rng) -> float:
    from repro.experiment.experiment import Kernel
    from repro.noise.estimation import estimate_noise_level
    from repro.noise.injection import UniformNoise

    errors = []
    for gen in spawn_generators(rng, trials):
        level = float(gen.uniform(0.0, 1.0))
        noise = UniformNoise(level)
        # Each point draws its true value, then its five repetitions.
        rows = [noise.apply(np.full(5, gen.uniform(1.0, 1000.0)), gen) for _ in range(25)]
        kern = Kernel("k")
        kern.add_rows(np.arange(2.0, 27.0)[:, None], rows)
        errors.append(abs(estimate_noise_level(kern) - level))
    return float(np.mean(errors))


def run_reproduction(
    config: "ReproductionConfig | None" = None,
    progress=None,
) -> ReproductionReport:
    """Run the full evaluation; ``progress`` is an optional ``print``-like sink."""
    config = config or ReproductionConfig()
    emit = progress or (lambda message: None)
    gen = as_generator(config.seed)
    report = ReproductionReport()
    started = time.perf_counter()
    emit("loading / pretraining the generic network ...")
    network = load_or_pretrain()
    sweep_modelers = {
        "regression": create_modeler("regression"),
        "adaptive": create_modeler(
            "adaptive(use_domain_adaptation=False)", network=network
        ),
    }
    for m in config.parameter_counts:
        emit(f"running the m={m} synthetic sweep ...")
        sweep_config = SweepConfig(
            n_params=m,
            n_functions=max(10, config.functions_per_cell // (2 ** (m - 1))),
        )
        report.sweeps[m] = run_sweep(
            sweep_config, sweep_modelers, gen, processes=config.processes
        )
    if config.include_case_studies:
        for name, factory in ALL_STUDIES.items():
            emit(f"running the {name} case study ...")
            modelers = {
                "regression": create_modeler("regression"),
                "adaptive": create_modeler(
                    "adaptive(use_domain_adaptation=True, "
                    f"adaptation_samples_per_class={config.adaptation_samples_per_class})",
                    network=network,
                ),
            }
            report.case_studies[name] = run_case_study(
                factory(), modelers, gen, processes=config.processes
            )
    if config.include_estimator:
        emit("running the noise-estimator experiment ...")
        report.estimator_error = _estimator_experiment(config.estimator_trials, gen)
    report.seconds = time.perf_counter() - started
    return report
