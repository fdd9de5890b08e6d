"""Simulated Kripke: 3-parameter particle-transport mini-app (Sec. VI).

Parameters follow the paper's Vulcan campaign: number of processes
``x1 = (8, 64, 512, 4096, 32768)``, direction sets ``x2 = (2, 4, ..., 12)``,
energy groups ``x3 = (32, 64, 96, 128, 160)`` -- 150 grid points, five
repetitions. Modeling uses all experiments except those with ``x2 = 12``
(625 of 750 runs); evaluation uses ``P+(32768, 12, 160)``.

The SweepSolver ground truth is the model the paper reports
(``8.51 + 0.11 * x1^(1/3) * x2 * x3^(4/5)``, consistent with the theoretical
sweep complexity); the remaining kernels follow Kripke's structure (moment
transforms scale with directions x groups, scattering with groups, the
population edit is a tree reduction). Noise is gamma-distributed per point,
calibrated to Fig. 5's Kripke panel (mean ~17 %, rare spikes above 50 %).
"""

from __future__ import annotations

from fractions import Fraction

from repro.casestudies.base import SimulatedApplication, SimulatedKernel
from repro.experiment.measurement import Coordinate
from repro.noise.injection import GammaLevelNoise, NoiseModel, SystematicErrorNoise
from repro.pmnf.function import MultiTerm, PerformanceFunction
from repro.pmnf.terms import CompoundTerm

_F = Fraction

X1 = (8.0, 64.0, 512.0, 4096.0, 32768.0)
X2 = (2.0, 4.0, 6.0, 8.0, 10.0, 12.0)
X3 = (32.0, 64.0, 96.0, 128.0, 160.0)

EVALUATION_POINT = Coordinate(32768.0, 12.0, 160.0)


def _noise() -> NoiseModel:
    # Per-point level ~ Gamma(2, 0.13) clipped to [4 %, 80 %]: with five
    # repetitions the *estimated* per-point rrd then averages ~17 % with a
    # tail beyond 50 %, matching the measured distribution in Fig. 5. The
    # mild systematic component (shared by all repetitions of a point, thus
    # invisible to rrd) models OS/network interference that the median
    # cannot cancel -- without it regression extrapolates unrealistically
    # well compared to the paper's measured 22.28 % error.
    return SystematicErrorNoise(GammaLevelNoise(shape=2.0, scale=0.13, lo=0.04, hi=0.80), scale=0.10)


def _f(constant: float, *terms: tuple[float, dict[int, CompoundTerm]]) -> PerformanceFunction:
    return PerformanceFunction(constant, [MultiTerm(c, f) for c, f in terms], 3)


def _kernels() -> list[SimulatedKernel]:
    sweep = _f(
        8.51,
        (0.11, {0: CompoundTerm(_F(1, 3)), 1: CompoundTerm(1), 2: CompoundTerm(_F(4, 5))}),
    )
    ltimes = _f(1.2, (0.004, {1: CompoundTerm(1), 2: CompoundTerm(1)}))
    lplustimes = _f(1.1, (0.0035, {1: CompoundTerm(1), 2: CompoundTerm(1)}))
    scattering = _f(2.3, (0.01, {1: CompoundTerm(_F(1, 2)), 2: CompoundTerm(1)}))
    source = _f(0.8, (0.02, {2: CompoundTerm(1)}))
    population = _f(0.3, (0.5, {0: CompoundTerm(0, 1)}))
    noise = _noise()
    return [
        SimulatedKernel("SweepSolver", sweep, noise, 0.70),
        SimulatedKernel("LTimes", ltimes, noise, 0.08),
        SimulatedKernel("LPlusTimes", lplustimes, noise, 0.07),
        SimulatedKernel("Scattering", scattering, noise, 0.06),
        SimulatedKernel("Source", source, noise, 0.04),
        SimulatedKernel("Population", population, noise, 0.03),
    ]


def kripke() -> SimulatedApplication:
    """Build the simulated Kripke campaign."""
    return SimulatedApplication(
        name="kripke",
        parameters=("p", "d", "g"),
        value_sets=(X1, X2, X3),
        kernels=_kernels(),
        repetitions=5,
        evaluation_point=EVALUATION_POINT,
        # The paper models with every experiment except the x2 = 12 ones.
        # Exact grid membership: the coordinate is constructed from the literal
        # value set X2 above, so 12.0 compares bit-identically; a tolerance
        # would blur grid columns.
        modeling_coordinates=lambda c: c[1] != 12.0,
    )
