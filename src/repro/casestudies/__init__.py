"""Simulated application case studies (paper Sec. VI).

The paper's three measurement campaigns -- Kripke on Vulcan, FASTEST on
SuperMUC, RELeARN on Lichtenberg -- are unavailable, so each application is
*simulated*: its kernels carry ground-truth PMNF runtime functions taken
from the paper's theoretical expectations and reported fitted models, and a
noise model calibrated to the noise distribution the paper measured
(Fig. 5). The simulators produce ordinary :class:`repro.Experiment`
objects, so the modeling pipeline under test is byte-for-byte the one a
real campaign would feed (see DESIGN.md, substitutions).
"""

from repro.casestudies.base import SimulatedKernel, SimulatedApplication
from repro.casestudies.kripke import kripke
from repro.casestudies.fastest import fastest
from repro.casestudies.relearn import relearn
from repro.casestudies.tainted import tainted
from repro.casestudies.driver import CaseStudyResult, run_case_study

ALL_STUDIES = {
    "kripke": kripke,
    "fastest": fastest,
    "relearn": relearn,
    "tainted": tainted,
}

__all__ = [
    "SimulatedKernel",
    "SimulatedApplication",
    "kripke",
    "fastest",
    "relearn",
    "tainted",
    "ALL_STUDIES",
    "CaseStudyResult",
    "run_case_study",
]
