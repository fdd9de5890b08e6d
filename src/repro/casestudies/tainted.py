"""Simulated tainted campaign: contamination resilience end-to-end (Sec. VI).

A synthetic three-kernel application whose measurements are corrupted by
:class:`~repro.noise.injection.TaintedRepetitionNoise` -- the contamination
model of Copik et al. ("Extracting Clean Performance Models from Tainted
Programs"): a small uniform base noise plus, with probability
``contamination`` per repetition, a multiplicative log-normal outlier
(e.g. another job sharing the node, a paging stall). Unlike the per-point
noise of the real-application studies, the taint hits *individual
repetitions*, which is exactly the failure mode a robust pre-filter
(``--prefilter mad(k=3)``) can reject before aggregation.

The ground-truth kernels are deliberately simple PMNF shapes so that any
modeling error observed under contamination is attributable to the taint,
not to model-search difficulty. ``contamination=0`` yields a clean 5 %%
uniform-noise campaign, the baseline for the degradation comparison.
"""

from __future__ import annotations

from fractions import Fraction

from repro.casestudies.base import SimulatedApplication, SimulatedKernel
from repro.experiment.measurement import Coordinate
from repro.noise.injection import NoiseModel, TaintedRepetitionNoise
from repro.pmnf.function import MultiTerm, PerformanceFunction
from repro.pmnf.terms import CompoundTerm

_F = Fraction

X1 = (16.0, 64.0, 256.0, 1024.0, 4096.0, 16384.0)
X2 = (10.0, 20.0, 30.0, 40.0, 50.0)

EVALUATION_POINT = Coordinate(16384.0, 50.0)

#: Uniform base-noise level underneath the taint (fraction of the true value).
BASE_LEVEL = 0.05


def _noise(contamination: float) -> NoiseModel:
    # Outliers centred one e-fold above the true value (exp(1) ~ 2.7x
    # slowdown, spread ~ exp(0.5)): far outside the 5 % base noise, so a
    # MAD filter with k=3 separates them cleanly while the taint still
    # wrecks mean aggregation and stresses min/median at higher rates.
    return TaintedRepetitionNoise(
        level=BASE_LEVEL,
        p=contamination,
        outlier_location=1.0,
        outlier_scale=0.5,
        slowdown_only=True,
    )


def _f(constant: float, *terms: "tuple[float, dict[int, CompoundTerm]]") -> PerformanceFunction:
    return PerformanceFunction(constant, [MultiTerm(c, f) for c, f in terms], 2)


def _kernels(contamination: float) -> list[SimulatedKernel]:
    solve = _f(
        4.2,
        (0.08, {0: CompoundTerm(_F(1, 2)), 1: CompoundTerm(1)}),
    )
    exchange = _f(1.5, (0.3, {0: CompoundTerm(0, 1)}))
    update = _f(0.9, (0.05, {1: CompoundTerm(1)}))
    noise = _noise(contamination)
    return [
        SimulatedKernel("Solve", solve, noise, 0.75),
        SimulatedKernel("Exchange", exchange, noise, 0.15),
        SimulatedKernel("Update", update, noise, 0.10),
    ]


def tainted(contamination: float = 0.1) -> SimulatedApplication:
    """Build the simulated tainted campaign.

    ``contamination`` is the per-repetition taint probability ``p`` of
    :class:`~repro.noise.injection.TaintedRepetitionNoise`; the application
    name records it (``tainted(p=0.1)``) so run fingerprints distinguish
    contamination levels.
    """
    if not 0.0 <= contamination <= 1.0:
        raise ValueError(f"contamination must be within [0, 1], got {contamination}")
    return SimulatedApplication(
        name=f"tainted(p={contamination:g})",
        parameters=("p", "n"),
        value_sets=(X1, X2),
        kernels=_kernels(contamination),
        repetitions=5,
        evaluation_point=EVALUATION_POINT,
        # Model from all but the largest process counts: extrapolation to
        # P+ = (16384, 50) is what contamination-induced misfits blow up.
        # Exact grid membership: the coordinate is constructed from the literal
        # value set X1 above, so 16384.0 compares bit-identically; a tolerance
        # would blur columns.
        modeling_coordinates=lambda c: c[0] != 16384.0,
    )
