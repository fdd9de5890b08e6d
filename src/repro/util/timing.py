"""Validation of per-stage wall-clock seconds (the Fig. 6 overhead analysis).

Stages are timed as spans (:meth:`repro.run.lifecycle.StageScope.stage`);
this module checks the per-stage mappings that cross process and journal
boundaries.
"""

from __future__ import annotations

import math
from typing import Mapping


def validate_stage_seconds(seconds: "Mapping[str, float]") -> None:
    """Reject corrupted per-stage timings (negative, NaN, or non-numeric).

    A torn or corrupted worker payload can replay a stage dictionary whose
    values are garbage; silently adding them would poison the aggregate
    timing report. Raises :class:`ValueError` naming the stage and value.
    """
    for stage, value in seconds.items():
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValueError(
                f"stage {stage!r}: seconds must be a number, got {value!r}"
            )
        if not math.isfinite(value) or value < 0:
            raise ValueError(
                f"stage {stage!r}: invalid seconds {value!r} (must be finite "
                "and non-negative)"
            )

