"""Host-speed probe: scales measured times to a reference host speed.

On a shared machine the same code runs up to twice as slow for minutes at
a time while a neighbour is busy. The probe is a fixed kernel -- no code
of the program under test -- shaped like the modeling stack's work:
interpreter loops over dicts and strings, small-array numpy and small
least-squares fits. It runs between units of work, on as many CPUs at once
as the work uses, so it slows down with the host as the units do. A unit's
time multiplied by the :class:`Scaler` factors of the probes around it
reads as the time on a host where the probe takes :data:`REFERENCE_S`; a
change to the program moves that time, a change in the host's speed does
not.

Run as a script, this file is a probe helper: it runs the kernel once per
line on standard input and prints its wall and CPU seconds.
"""

from __future__ import annotations

import subprocess
import sys
import time
from dataclasses import dataclass

import numpy as np

#: The probe's duration on a quiet 2-vCPU Xeon VM (Python 3.11, one BLAS
#: thread): a scaled time reads as measured seconds on that host.
REFERENCE_S = 0.07
#: Seconds a probe helper may take to answer or to exit.
HELPER_TIMEOUT_S = 60

_DESIGN = np.cos(np.outer(np.arange(125.0), np.arange(1.0, 9.0)) * 0.37)
_TARGET = np.sin(np.arange(125.0) * 0.11)
_GRID = np.linspace(0.1, 1.0, 300)


def _kernel() -> float:
    table: "dict[int, float]" = {}
    for i in range(240_000):
        key = i % 997
        table[key] = table.get(key, 0.0) + i * 0.5
    total = float(len(sorted(f"{k}:{v:.3f}" for k, v in table.items())))
    for _ in range(6_000):
        total += float((np.log1p(_GRID) * _GRID + np.sqrt(_GRID)).sum())
    for _ in range(600):
        total += float(np.linalg.lstsq(_DESIGN, _TARGET, rcond=None)[0][0])
    return total


@dataclass(frozen=True)
class Probe:
    wall_s: float
    cpu_s: float


def probe() -> Probe:
    """One timed run of the kernel: wall and CPU seconds of this process."""
    cpu = time.process_time()
    start = time.perf_counter()
    _kernel()
    wall = time.perf_counter() - start
    return Probe(wall, time.process_time() - cpu)


def _harmonic(values: "list[float]") -> float:
    return len(values) / sum(1.0 / v for v in values)


class Scaler:
    """Probes before the first step and after each one.

    Work spread over ``width`` CPUs runs as fast as the CPUs together, so
    the kernel runs once in this process and once in each of ``width - 1``
    helper processes at the same time, and their times combine as a
    harmonic mean: the time at the CPUs' summed speed.
    """

    def __init__(self, width: int = 1):
        self._helpers = [
            subprocess.Popen(
                [sys.executable, __file__], stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                text=True,
            )
            for _ in range(width - 1)
        ]
        try:
            self._last = self._probe()
        except BaseException:
            self.close()
            raise

    def _probe(self) -> Probe:
        for helper in self._helpers:
            helper.stdin.write("\n")
            helper.stdin.flush()
        probes = [probe()]
        for helper in self._helpers:
            line = helper.stdout.readline()
            if not line:
                raise RuntimeError(f"a probe helper exited with code {helper.wait()}")
            probes.append(Probe(*(float(field) for field in line.split())))
        return Probe(
            _harmonic([p.wall_s for p in probes]), _harmonic([p.cpu_s for p in probes])
        )

    def step(self) -> "tuple[float, float]":
        """Wall and CPU scale factors of the step that just ended."""
        now = self._probe()
        last, self._last = self._last, now
        return (
            2.0 * REFERENCE_S / (last.wall_s + now.wall_s),
            2.0 * REFERENCE_S / (last.cpu_s + now.cpu_s),
        )

    def close(self) -> None:
        """End of input stops the helpers; kill one that does not stop."""
        for helper in self._helpers:
            try:
                helper.stdin.close()
            except OSError:
                pass  # it exited already, with input unread
            try:
                helper.wait(timeout=HELPER_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                helper.kill()
                helper.wait()

    def __enter__(self) -> "Scaler":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def helper_main() -> int:
    for _ in sys.stdin:
        result = probe()
        print(result.wall_s, result.cpu_s, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(helper_main())
