"""Workload side of the end-to-end benchmark: one child process per phase.

``run.py`` starts this file as a child process::

    python3 benchmarks/e2e/workloads.py setup   --workload NAME --seed N
    python3 benchmarks/e2e/workloads.py measure --workload NAME --seed N \\
        --seconds S --trace 0|1

``setup`` builds what a user's process builds before its first task --
imports, the pretrained network, the modelers, or the service with four
warm requests -- prints one line, which the parent times from spawn, then
probes the host speed (``hostspeed.py``), prints the scale factor for that
time and exits. ``measure`` sets up untimed, runs the workload for
``--seconds``, checks the outputs and prints one JSON object as its last
line of standard output.

A batch workload repeats a *unit* of fixed size (one ``run_sweep`` or
``run_case_study`` call); unit ``k`` draws its inputs from
``SeedSequence([seed, k])``, so the same seed gives the same inputs. The
service workload serves blocks of requests from a closed loop of client
threads that run in a third process, the load generator (phase ``load``),
so client work does not share the service's interpreter lock. The host
speed is probed between units and between blocks, and each one's times
are scaled by it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
import scipy

import hostspeed
from layers import PICKLE_LAYER, TARGETS, LayerTrace, resolve
from repro.casestudies import ALL_STUDIES, run_case_study
from repro.evaluation.accuracy import lead_exponent_distance
from repro.evaluation.predictive_power import relative_prediction_errors
from repro.evaluation.sweep import PAPER_NOISE_LEVELS, SweepConfig, run_sweep
from repro.experiment.io import parse_experiment, to_json_dict
from repro.modeling.registry import create_modeler, create_modelers
from repro.noise.injection import UniformNoise
from repro.parallel.pool import execution_profile
from repro.pmnf.parser import parse_function
from repro.service import ModelingService, ServiceConfig, serve_unix, start_server
from repro.service.client import ServiceClient, ServiceError
from repro.synthesis.evaluation_points import evaluation_points
from repro.synthesis.functions import random_single_parameter_function
from repro.synthesis.measurements import synthesize_experiment
from repro.synthesis.sequences import random_sequence
from repro.util.seeding import as_generator

DEFAULT_SEED = 20210517

#: Digest of unit 0 (of the first 200 requests for the service) at
#: ``DEFAULT_SEED``. A run at the default seed with another digest is
#: incorrect: the program's outputs changed.
EXPECTED_DIGESTS = {
    "sweep_m1": "0570dda8b283c01f990ddfd84982f945794f241a4aa292effc5636fa7555e4f6",
    "sweep_m3": "3a9c55ee4138784a00a8e91634c78b3a72e988eb09e3ea71f264cb512272949a",
    "casestudy_adapt": "afeb9bcdc670ae51e93a1f8f55d160e74fb2316db2d32f9d1473027a448a06a4",
    "service_journaled": "edd5ea133976c47d6d4f76b4d310f2038569d1a7179d57f1e6b4fe19c551c72f",
}

SWEEP_MODELERS = {
    "regression": "regression",
    "adaptive": "adaptive(use_domain_adaptation=False)",
}
#: The same modelers on the reference (per-hypothesis) fit engine: the
#: oracle the fast path must match bit for bit.
REFERENCE_MODELERS = {
    "regression": "regression(engine=reference)",
    "adaptive": "adaptive(use_domain_adaptation=False, engine=reference)",
}
CASE_MODELERS = {
    "regression": "regression",
    "adaptive": "adaptive(adaptation_samples_per_class=500)",
}
SERVICE_METHODS = ("regression", "adaptive(use_domain_adaptation=False)")

#: Input index above any unit or request index, for inputs that must not
#: coincide with a measured one (reference checks, warm requests).
SIDE_INDEX = 10**6
#: Seconds any single child process or client call may take.
CHILD_TIMEOUT_S = 120
#: Host-speed probes after a set-up; their median scales the set-up time.
SETUP_PROBES = 3


def unit_rng(seed: int, index: int) -> np.random.Generator:
    """The input stream of unit (or request) ``index``, independent of all others."""
    return as_generator(np.random.SeedSequence([seed, index]))


def digest(lines: "list[str]") -> str:
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


def percentile(values: "list[float]", q: float) -> float:
    """Nearest-rank percentile: a value that was actually observed."""
    ordered = sorted(values)
    rank = max(1, int(np.ceil(q / 100.0 * len(ordered))))
    return ordered[rank - 1]


def cpu_seconds(children: bool = True) -> float:
    """CPU time of this process and, optionally, of the children it reaped."""
    t = os.times()
    own = t.user + t.system
    return own + t.children_user + t.children_system if children else own


def peak_rss_mb(children: bool = True) -> float:
    """Peak resident set of this process plus its largest reaped child."""
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        rss += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return rss / 1024.0


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


@dataclass
class Outputs:
    """What one unit of work produced, reduced to what the checks need."""

    tasks: int
    failed: int
    lines: "list[str]"
    #: Per modeled task: did the ``adaptive`` model hit the true lead exponent?
    exact: "list[bool]"
    #: ``adaptive`` relative prediction errors (percent) at the P+ points.
    errors: "list[float]"


@dataclass
class Unit:
    index: int
    wall_s: float
    cpu_s: float
    outputs: Outputs
    #: Host-speed scale factors from the probes around the unit (1.0: unprobed).
    wall_scale: float = 1.0
    cpu_scale: float = 1.0


@dataclass
class Block:
    """One block of served requests, timed like a :class:`Unit`."""

    records: "list[dict]"
    wall_s: float
    cpu_s: float
    #: The service process's peak resident set after the block.
    peak_rss_mb: float
    wall_scale: float = 1.0
    cpu_scale: float = 1.0


def scaled_times(steps: "list[Unit] | list[Block]") -> "tuple[list[float], list[float]]":
    """Wall and CPU seconds of each step at the reference host speed."""
    return (
        [step.wall_s * step.wall_scale for step in steps],
        [step.cpu_s * step.cpu_scale for step in steps],
    )


# ---------------------------------------------------------------- sweeps
class SweepWorkload:
    """Fig. 3: ``run_sweep`` over many small synthetic modeling tasks."""

    #: Units come in cycles of this many; a run ends only between cycles.
    cycle = 1

    def __init__(
        self,
        name: str,
        config: SweepConfig,
        seed: int,
        processes: "int | None" = None,
        min_units: int = 3,
        reference_functions: int = 2,
    ):
        self.name = name
        self.config = config
        self.seed = seed
        self.processes = processes
        self.min_units = min_units
        self.reference_functions = reference_functions
        self.modelers: dict = {}

    def setup(self) -> None:
        self.modelers = create_modelers(SWEEP_MODELERS)
        # Load the pretrained network before any worker is forked.
        _ = self.modelers["adaptive"].dnn.generic_network

    def close(self) -> None:
        self.modelers = {}

    def run_unit(self, index: int):
        return run_sweep(
            self.config, self.modelers, rng=unit_rng(self.seed, index), processes=self.processes
        )

    def outputs(self, result) -> Outputs:
        lines, exact, errors = [], [], []
        failed = 0
        for noise in self.config.noise_levels:
            cells = [result.cell(noise, name) for name in sorted(self.modelers)]
            failed += int(np.sum(np.any([np.isinf(c.distances) for c in cells], axis=0)))
            for cell in cells:
                lines.extend(f"{noise:g} {cell.modeler} {f}" for f in cell.functions)
            adaptive = result.cell(noise, "adaptive")
            exact.extend(bool(d <= 1e-12) for d in adaptive.distances)
            errors.extend(float(e) for e in adaptive.errors.ravel() if np.isfinite(e))
        return Outputs(
            tasks=self.config.n_functions * len(self.config.noise_levels),
            failed=failed,
            lines=lines,
            exact=exact,
            errors=errors,
        )

    def reference_check(self, first: Unit) -> "list[str]":
        """Model fresh seed-derived functions on the measured dispatch and on
        the reference fit engine; the selected models must be identical."""
        config = replace(self.config, n_functions=self.reference_functions)
        measured = run_sweep(
            config, self.modelers, rng=unit_rng(self.seed, SIDE_INDEX), processes=self.processes
        )
        reference = run_sweep(
            config, REFERENCE_MODELERS, rng=unit_rng(self.seed, SIDE_INDEX), processes=1
        )
        return [
            f"{self.name}: fast and reference engines disagree on {key}"
            for key, cell in measured.cells.items()
            if cell.functions != reference.cells[key].functions
        ]


# ------------------------------------------------------------ case study
class CaseStudyWorkload:
    """Figs. 4/6: ``run_case_study`` with domain adaptation on every run."""

    name = "casestudy_adapt"
    processes = None

    def __init__(self, seed: int, applications=None, modelers=None):
        self.seed = seed
        self.factories = list(applications or ALL_STUDIES.values())
        self.modeler_specs = modelers or CASE_MODELERS
        # A run covers whole cycles through the applications, so the mix of
        # units does not depend on how fast the machine is.
        self.cycle = self.min_units = len(self.factories)
        self.modelers: dict = {}
        self.applications: list = []

    def setup(self) -> None:
        self.modelers = create_modelers(self.modeler_specs)
        _ = self.modelers["adaptive"].dnn.generic_network
        self.applications = [factory() for factory in self.factories]

    def close(self) -> None:
        self.modelers = {}

    def run_unit(self, index: int):
        application = self.applications[index % len(self.applications)]
        return application, run_case_study(
            application, self.modelers, rng=unit_rng(self.seed, index)
        )

    def outputs(self, raw) -> Outputs:
        application, result = raw
        truth = {kernel.name: kernel.function for kernel in application.kernels}
        expected = len(application.kernels) * len(self.modelers)
        failed = expected - len(result.outcomes)
        failed += sum(1 for o in result.outcomes if not np.isfinite(o.prediction))
        adaptive = [o for o in result.outcomes if o.modeler == "adaptive"]
        return Outputs(
            tasks=expected,
            failed=failed,
            lines=[f"{application.name} {o.result.format()}" for o in result.outcomes],
            exact=[
                bool(lead_exponent_distance(o.result.function, truth[o.kernel]) <= 1e-12)
                for o in adaptive
            ],
            errors=[o.relative_error for o in adaptive if o.relevant],
        )

    def reference_check(self, first: Unit) -> "list[str]":
        """The first unit's regression models against the reference fit engine.

        The case-study driver draws the campaign from the first of its
        spawned streams whatever the number of modelers, so a
        regression-only run on the same seed sees the same campaign.
        """
        application = self.applications[first.index % len(self.applications)]
        measured = [line for line in first.outputs.lines if " [regression] " in line]
        reference = run_case_study(
            application,
            {"regression": "regression(engine=reference)"},
            rng=unit_rng(self.seed, first.index),
        )
        if measured != [f"{application.name} {o.result.format()}" for o in reference.outcomes]:
            return [f"{self.name}: fast and reference engines disagree on {application.name}"]
        return []


# --------------------------------------------------------------- service
@dataclass(frozen=True)
class Request:
    payload: dict
    method: str
    truth: object
    points: list


def make_request(seed: int, index: int) -> Request:
    """One single-kernel m=1 measurement set: 6 points x 5 repetitions."""
    gen = unit_rng(seed, index)
    truth = random_single_parameter_function(gen)
    values = random_sequence(6, None, gen)
    level = float(gen.uniform(0.05, 0.45))
    experiment = synthesize_experiment(
        truth, [values], UniformNoise(level), 5, gen, parameter_names=["p"], kernel="k"
    )
    return Request(
        payload=to_json_dict(experiment),
        method=SERVICE_METHODS[index % len(SERVICE_METHODS)],
        truth=truth,
        points=evaluation_points([values], 4),
    )


class ClosedLoop:
    """Client threads that each send their next request only after the last
    reply arrived, one connection per call, over a shared request pool."""

    def __init__(self, address: str, requests: "list[Request]"):
        self.address = address
        self.requests = requests
        self._next_lock = threading.Lock()
        self._next = 0
        self._stop = 0
        self._records_lock = threading.Lock()
        self._records: "list[dict]" = []

    def run(self, clients: int, start: int, stop: int) -> "list[dict]":
        """Send requests ``start`` to ``stop - 1``; their records by completion."""
        with self._next_lock:
            self._next, self._stop = start, stop
        with self._records_lock:
            self._records = []
        threads = [threading.Thread(target=self._client) for _ in range(clients)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=CHILD_TIMEOUT_S)
            if thread.is_alive():
                raise RuntimeError(f"a client did not finish within {CHILD_TIMEOUT_S} s")
        with self._records_lock:
            return sorted(self._records, key=lambda r: r["done_at"])

    def _take(self) -> "int | None":
        with self._next_lock:
            index = self._next
            if index >= self._stop:
                return None
            self._next += 1
            return index

    def _client(self) -> None:
        client = ServiceClient(self.address, timeout=CHILD_TIMEOUT_S)
        while True:
            index = self._take()
            if index is None:
                return
            request = self.requests[index % len(self.requests)]
            start = time.perf_counter()
            record = {"index": index, "status": 200, "lines": [], "functions": [], "model_s": 0.0}
            try:
                response = client.model(
                    request.payload, method=request.method, seed=index, request_id=f"r{index}"
                )
            except ServiceError as err:
                record["status"] = err.status
            else:
                record["status"] = int(response.get("status", 200))
                record["lines"] = [m["formatted"] for m in response["models"]]
                record["functions"] = [m["function"] for m in response["models"]]
                record["model_s"] = float(response["seconds"])
            record["done_at"] = time.perf_counter()
            record["latency_s"] = record["done_at"] - start
            with self._records_lock:
                self._records.append(record)


def load_main(args) -> int:
    """The load generator: a closed loop against a running service, one
    block of requests per ``START STOP`` line on standard input."""
    requests = [make_request(args.seed, i) for i in range(args.pool)]
    loop = ClosedLoop(args.address, requests)
    print(json.dumps({"ready": True}), flush=True)
    for line in sys.stdin:
        start, stop = (int(field) for field in line.split())
        began = time.perf_counter()
        records = loop.run(args.clients, start, stop)
        for record in records:
            record["done_at"] -= began
        print(json.dumps({"records": records}), flush=True)
    return 0


class LoadGenerator:
    """The load-generator process, driven one block of requests at a time."""

    def __init__(self, workload: "ServiceWorkload"):
        command = [
            sys.executable, __file__, "load", "--workload", workload.name,
            "--seed", str(workload.seed), "--address", workload.address,
            "--clients", str(workload.clients), "--pool", str(workload.pool),
        ]
        self.proc = subprocess.Popen(
            command, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )
        if not self.proc.stdout.readline():
            self.close()
            raise RuntimeError("the load generator exited before it was ready")

    def run(self, start: int, stop: int) -> "tuple[list[dict], float]":
        """Requests ``start`` to ``stop - 1``: their records and the block's
        wall seconds, from the go to the last reply."""
        self.proc.stdin.write(f"{start} {stop}\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"the load generator failed with exit code {self.proc.wait()}")
        records = json.loads(line)["records"]
        return records, records[-1]["done_at"]

    def close(self) -> None:
        """End of input stops the generator; kill it if it does not stop."""
        try:
            self.proc.stdin.close()
        except OSError:
            pass  # it exited already, with input unread
        try:
            self.proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()

    def __enter__(self) -> "LoadGenerator":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class ServiceWorkload:
    """The served path: ``ModelingService`` with a journal behind ``serve_unix``."""

    name = "service_journaled"
    processes = None

    def __init__(
        self,
        seed: int,
        pool: int = 1200,
        block: int = 100,
        digest_requests: int = 200,
        quality_requests: int = 400,
        reference_every: int = 100,
        rss_requests: int = 2000,
    ):
        self.seed = seed
        self.pool = pool
        self.block = block
        self.digest_requests = digest_requests
        self.quality_requests = quality_requests
        self.reference_every = reference_every
        #: The service's memory grows with the requests it served, so its
        #: peak is read after this many, a multiple of ``block``, not at
        #: the end of a run whose length depends on the host's speed.
        self.rss_requests = rss_requests
        self.clients = min(2, os.cpu_count() or 1)
        self.workdir: "Path | None" = None

    def setup(self) -> None:
        self.workdir = Path(tempfile.mkdtemp(prefix="service-"))
        self.service = ModelingService(ServiceConfig(run_dir=str(self.workdir / "run")))
        self.service.start()
        # Relative to the working directory: a unix socket path is limited
        # to about 100 bytes, and the checkout may sit deep in a tree.
        socket_path = os.path.relpath(self.workdir / "service.sock")
        self.server = serve_unix(self.service, socket_path)
        self.server_thread = start_server(self.server)
        self.address = f"unix:{socket_path}"
        client = ServiceClient(self.address, timeout=CHILD_TIMEOUT_S)
        for i in range(4):
            request = make_request(self.seed, SIDE_INDEX + i)
            client.model(request.payload, method=request.method, seed=SIDE_INDEX + i)

    def close(self) -> None:
        if self.workdir is None:
            return
        self.server.shutdown()
        self.server.server_close()
        self.service.close()
        self.server_thread.join(timeout=CHILD_TIMEOUT_S)
        shutil.rmtree(self.workdir, ignore_errors=True)
        self.workdir = None

    def journal_bytes(self) -> int:
        return sum(p.stat().st_size for p in (self.workdir / "run").rglob("*") if p.is_file())

    def serve(
        self,
        load: "LoadGenerator",
        seconds: float,
        min_requests: int,
        scaler: "hostspeed.Scaler | None" = None,
    ) -> "list[Block]":
        """Serve blocks of ``block`` requests, from request 0, until
        ``seconds`` have passed and at least ``min_requests`` were served.
        A ``scaler`` probes the host speed between blocks, with the load paused."""
        blocks: "list[Block]" = []
        deadline = time.perf_counter() + seconds
        start = 0
        while start < min_requests or time.perf_counter() < deadline:
            cpu = cpu_seconds(children=False)
            records, wall = load.run(start, start + self.block)
            cpu = cpu_seconds(children=False) - cpu
            block = Block(records, wall, cpu, peak_rss_mb(children=False))
            if scaler is not None:
                block.wall_scale, block.cpu_scale = scaler.step()
            blocks.append(block)
            start += self.block
        return blocks

    def reference_check(self, records: "list[dict]") -> "list[str]":
        """The first answer of each method in every ``reference_every``
        requests, against the library run in-process."""
        modelers = {method: create_modeler(method) for method in SERVICE_METHODS}
        problems = []
        for record in records:
            if record["index"] % self.reference_every >= len(SERVICE_METHODS):
                continue
            request = make_request(self.seed, record["index"] % self.pool)
            experiment, _ = parse_experiment(request.payload)
            results = modelers[request.method].model_experiment(experiment, rng=record["index"])
            names = list(experiment.parameters)
            if [results[k].format(names) for k in sorted(results)] != record["lines"]:
                problems.append(f"{self.name}: request {record['index']} differs from the library")
        return problems

    def quality(self, records: "list[dict]") -> "tuple[list[bool], list[float]]":
        """Lead-exponent hits and P+ errors of the first ``quality_requests`` answers."""
        exact, errors = [], []
        for record in records:
            if record["index"] >= self.quality_requests or record["status"] != 200:
                continue
            request = make_request(self.seed, record["index"] % self.pool)
            model = parse_function(record["functions"][0], ["p"])
            exact.append(bool(lead_exponent_distance(model, request.truth) <= 1e-12))
            errors.extend(relative_prediction_errors(model, request.truth, request.points))
        return exact, errors


def make_workload(name: str, seed: int, traced: bool):
    """The four workloads at their benchmark sizes.

    A traced run dispatches serially everywhere: wrappers installed in the
    parent would record nothing inside forked workers.
    """
    if name == "sweep_m1":
        config = SweepConfig(n_params=1, noise_levels=PAPER_NOISE_LEVELS, n_functions=40)
        processes = 1 if traced else min(2, os.cpu_count() or 1)
        return SweepWorkload(name, config, seed, processes=processes)
    if name == "sweep_m3":
        config = SweepConfig(n_params=3, noise_levels=(0.05, 0.2, 0.5, 1.0), n_functions=12)
        return SweepWorkload(name, config, seed, reference_functions=1)
    if name == "casestudy_adapt":
        return CaseStudyWorkload(seed)
    if name == "service_journaled":
        return ServiceWorkload(seed)
    raise ValueError(f"unknown workload {name!r}")


# ------------------------------------------------------------ measuring
def run_units(
    workload,
    seconds: float,
    min_units: int = 1,
    indices: "list[int] | None" = None,
    scaler: "hostspeed.Scaler | None" = None,
) -> "list[Unit]":
    """Run whole cycles of units until ``seconds`` passed and ``min_units``
    are done, or exactly the given ``indices``. A ``scaler`` probes the
    host speed after each unit."""
    units: "list[Unit]" = []
    deadline = time.perf_counter() + seconds
    index = 0
    while True:
        if indices is not None:
            if len(units) == len(indices):
                return units
            index = indices[len(units)]
        elif (
            index >= min_units
            and index % workload.cycle == 0
            and time.perf_counter() >= deadline
        ):
            return units
        cpu = cpu_seconds()
        start = time.perf_counter()
        raw = workload.run_unit(index)
        wall = time.perf_counter() - start
        unit = Unit(index, wall, cpu_seconds() - cpu, workload.outputs(raw))
        if scaler is not None:
            unit.wall_scale, unit.cpu_scale = scaler.step()
        units.append(unit)
        index += 1


def quality_metrics(exact: "list[bool]", errors: "list[float]") -> dict:
    """Model quality: deterministic per seed, so reported, not bounded."""
    return {
        "accuracy_exact_frac": metric(np.mean(exact), "ratio"),
        "median_rel_error_pct": metric(np.median(errors), "%"),
    }


def check_digest(name: str, seed: int, value: str) -> "list[str]":
    if seed == DEFAULT_SEED and value != EXPECTED_DIGESTS[name]:
        return [f"{name}: output digest {value} differs from the committed one"]
    return []


def outcome(attempted, failed, problems, metrics, info, lines) -> dict:
    return {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "info": info,
        "digest": digest(lines),
        "problems": problems,
    }


def timing_metrics(steps: "list[Unit] | list[Block]", tasks: "list[int]") -> dict:
    """Medians over the steps of a run (units, or blocks of requests), at
    the reference host speed. Throughput is the mean step's tasks over the
    median step's time: a case-study run covers whole cycles, so its mean
    tasks per unit is fixed, while the median of its units' own rates
    would depend on which studies fall in the middle."""
    walls, cpus = scaled_times(steps)
    wall = statistics.median(walls)
    return {
        "wall_s": metric(wall, "s"),
        "tasks_per_s": metric(statistics.mean(tasks) / wall, "tasks/s"),
        "cpu_s": metric(statistics.median(cpus), "CPU-s"),
    }


def measure_batch(workload, seconds: float) -> dict:
    with hostspeed.Scaler(workload.processes or 1) as scaler:
        units = run_units(workload, seconds, min_units=workload.min_units, scaler=scaler)
    tasks = sum(u.outputs.tasks for u in units)
    lines = units[0].outputs.lines
    problems = workload.reference_check(units[0])
    problems += check_digest(workload.name, workload.seed, digest(lines))
    metrics = {
        **timing_metrics(units, [u.outputs.tasks for u in units]),
        "peak_rss_mb": metric(peak_rss_mb(), "MB"),
    }
    first = [u.outputs for u in units[: workload.min_units]]
    info = quality_metrics([x for o in first for x in o.exact], [x for o in first for x in o.errors])
    failed = sum(u.outputs.failed for u in units)
    return outcome(tasks, failed, problems, metrics, info, lines)


def service_lines(records: "list[dict]", count: int) -> "list[str]":
    by_index = sorted(records, key=lambda r: r["index"])
    return [line for r in by_index[:count] for line in r["lines"]]


def measure_service(workload: ServiceWorkload, seconds: float) -> dict:
    min_requests = max(workload.quality_requests, workload.rss_requests)
    with LoadGenerator(workload) as load, hostspeed.Scaler() as scaler:
        blocks = workload.serve(load, seconds, min_requests, scaler=scaler)
    records = [r for block in blocks for r in block.records]
    latencies = [1000.0 * r["latency_s"] for r in records]
    lines = service_lines(records, workload.digest_requests)
    problems = workload.reference_check(records)
    problems += check_digest(workload.name, workload.seed, digest(lines))
    rss = blocks[workload.rss_requests // workload.block - 1].peak_rss_mb
    metrics = {
        **timing_metrics(blocks, [len(block.records) for block in blocks]),
        "peak_rss_mb": metric(rss, "MB"),
    }
    info = {
        "latency_p50_ms": metric(statistics.median(latencies), "ms"),
        "latency_p99_ms": metric(percentile(latencies, 99), "ms"),
        **quality_metrics(*workload.quality(records)),
    }
    failed = sum(1 for r in records if r["status"] != 200)
    return outcome(len(records), failed, problems, metrics, info, lines)


# --------------------------------------------------------------- tracing
#: Layers reported with ``calls`` and ``self_frac``, in report order.
LAYERS = tuple(dict.fromkeys(t.layer for t in TARGETS if t.layer != "regression.reference"))
#: Work counts reported per task: (layer, count).
COUNTS = (
    ("synthesis.training_set", "rows"),
    ("nn.predict", "rows"),
    ("nn.fit", "samples"),
    ("dnn.classify_batch", "kernels"),
    ("modeling.generate", "hypotheses"),
    ("regression.score", "hypotheses"),
    ("parallel.run", "tasks"),
)


def cache_hit_ratio(dnns: list, cache: str) -> float:
    hits = misses = 0
    for dnn in dnns:
        stats = dnn.cache_stats()[cache]
        hits += stats["hits"]
        misses += stats["misses"]
    return hits / (hits + misses) if hits + misses else 0.0


def layer_metrics(trace: LayerTrace, tasks: int, wall: float, overhead: float, extra: dict) -> dict:
    """Per-layer metrics of one traced pass, per task or as a share of its wall time."""
    stats = trace.stats()

    def get(layer: str, key: str) -> float:
        return stats.get(layer, {}).get(key, 0)

    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.calls"] = metric(get(layer, "calls") / tasks, "1/task")
        metrics[f"{layer}.self_frac"] = metric(get(layer, "self_s") / wall, "ratio")
    for layer, count in COUNTS:
        metrics[f"{layer}.{count}"] = metric(get(layer, count) / tasks, "1/task")
    score_s = get("regression.score", "self_s")
    generated = get("modeling.generate", "calls")
    dnns = trace.instances("dnn.classify_batch")
    attributed = sum(entry["self_s"] for entry in stats.values()) / wall
    metrics.update(
        {
            "regression.reference.calls": metric(
                get("regression.reference", "calls") / tasks, "1/task"
            ),
            "regression.hypotheses_per_s": metric(
                get("regression.score", "hypotheses") / score_s if score_s else 0.0, "1/s"
            ),
            "modeling.hypotheses_per_kernel": metric(
                get("modeling.generate", "hypotheses") / generated if generated else 0.0,
                "1/kernel",
            ),
            "dnn.candidate_cache.hit_ratio": metric(cache_hit_ratio(dnns, "candidates"), "ratio"),
            "dnn.adapt_cache.hit_ratio": metric(cache_hit_ratio(dnns, "adaptation"), "ratio"),
            "parallel.pickle_frac": metric(get(PICKLE_LAYER, "self_s") / wall, "ratio"),
            "parallel.result_bytes": metric(get(PICKLE_LAYER, "bytes") / tasks, "bytes/task"),
            "run.journal_bytes": metric(extra.get("journal_bytes", 0) / tasks, "bytes/task"),
            "service.overhead_frac_p50": metric(extra.get("overhead_p50", 0.0), "ratio"),
            "service.overhead_frac_p99": metric(extra.get("overhead_p99", 0.0), "ratio"),
            "service.batch_mean": metric(extra.get("batch_mean", 0.0), "1/batch"),
            "trace.task_ms": metric(1000.0 * wall / tasks, "ms"),
            "trace.attributed_frac": metric(attributed, "ratio"),
            "trace.unattributed_frac": metric(1.0 - attributed, "ratio"),
            "trace.overhead_frac": metric(overhead, "ratio"),
        }
    )
    return metrics


def removal_problems(originals: "list[object]") -> "list[str]":
    return [
        f"wrapper left behind on {t.module}.{t.attr}"
        for t, original in zip(TARGETS, originals)
        if resolve(t)[2] is not original
    ]


def trace_batch(workload, seconds: float) -> dict:
    """Each unit twice, untraced and traced, in alternating order so drift
    and warm-up hit both alike: the traced passes give the per-layer table,
    the median ratio of the pairs the tracing overhead."""
    originals = [resolve(t)[2] for t in TARGETS]
    trace = LayerTrace()
    plain: "list[Unit]" = []
    traced: "list[Unit]" = []
    deadline = time.perf_counter() + seconds
    index = 0
    while index < workload.cycle or index % workload.cycle or time.perf_counter() < deadline:
        for tracing in (False, True) if index % 2 == 0 else (True, False):
            if tracing:
                with trace:
                    traced += run_units(workload, 0.0, indices=[index])
            else:
                plain += run_units(workload, 0.0, indices=[index])
        index += 1
    problems = removal_problems(originals)
    if [u.outputs.lines for u in plain] != [u.outputs.lines for u in traced]:
        problems.append(f"{workload.name}: tracing changed the outputs")
    lines = plain[0].outputs.lines
    problems += check_digest(workload.name, workload.seed, digest(lines))
    tasks = sum(u.outputs.tasks for u in traced)
    wall = sum(u.wall_s for u in traced)
    overhead = statistics.median(t.wall_s / p.wall_s for p, t in zip(plain, traced)) - 1.0
    metrics = layer_metrics(trace, tasks, wall, overhead, {})
    failed = sum(u.outputs.failed for u in plain + traced)
    return outcome(2 * tasks, failed, problems, metrics, {}, lines)


def trace_service(workload: ServiceWorkload, seconds: float) -> dict:
    """The same requests served untraced, traced, and untraced again: the
    traced pass gives the per-layer table, its wall time against the mean
    of the two others the tracing overhead."""
    originals = [resolve(t)[2] for t in TARGETS]
    trace = LayerTrace()
    with LoadGenerator(workload) as load:
        blocks = workload.serve(load, seconds / 3, workload.digest_requests)
        served = len(blocks) * workload.block
        health = workload.service.healthz()
        journal = workload.journal_bytes()
        with trace:
            traced_blocks = workload.serve(load, 0.0, served)
        after = workload.service.healthz()
        journal = workload.journal_bytes() - journal
        after_blocks = workload.serve(load, 0.0, served)
    plain = [r for block in blocks for r in block.records]
    traced = [r for block in traced_blocks for r in block.records]
    before_wall, wall, after_wall = (
        sum(block.wall_s for block in run) for run in (blocks, traced_blocks, after_blocks)
    )
    problems = removal_problems(originals)
    if service_lines(plain, len(plain)) != service_lines(traced, len(traced)):
        problems.append(f"{workload.name}: tracing changed the outputs")
    lines = service_lines(plain, workload.digest_requests)
    problems += check_digest(workload.name, workload.seed, digest(lines))
    overhead = [1.0 - r["model_s"] / r["latency_s"] for r in traced if r["status"] == 200]
    batches = after["batches"] - health["batches"]
    extra = {
        "journal_bytes": journal,
        "overhead_p50": statistics.median(overhead),
        "overhead_p99": percentile(overhead, 99),
        "batch_mean": (after["served"] - health["served"]) / batches if batches else 0.0,
    }
    overhead = 2.0 * wall / (before_wall + after_wall) - 1.0
    metrics = layer_metrics(trace, len(traced), wall, overhead, extra)
    failed = sum(1 for r in plain + traced if r["status"] != 200)
    return outcome(len(plain) + len(traced), failed, problems, metrics, {}, lines)


def measure(workload, seconds: float, traced: bool) -> dict:
    if isinstance(workload, ServiceWorkload):
        return (trace_service if traced else measure_service)(workload, seconds)
    return (trace_batch if traced else measure_batch)(workload, seconds)


def host_profile(workload) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "execution_profile": execution_profile(workload.processes),
    }


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("phase", choices=("setup", "measure", "load"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # The load generator's side of the service workload.
    parser.add_argument("--address")
    parser.add_argument("--clients", type=int, default=1)
    parser.add_argument("--pool", type=int, default=1)
    args = parser.parse_args(argv)
    if args.phase == "load":
        return load_main(args)
    workload = make_workload(args.workload, args.seed, traced=bool(args.trace))
    try:
        workload.setup()
        if args.phase == "setup":
            print(json.dumps({"ready": args.workload}), flush=True)
            # The host speed right after set-up scales its time.
            probes = [hostspeed.probe() for _ in range(SETUP_PROBES)]
            wall_scale = hostspeed.REFERENCE_S / statistics.median(p.wall_s for p in probes)
            print(json.dumps({"wall_scale": wall_scale}), flush=True)
            return 0
        result = measure(workload, args.seconds, traced=bool(args.trace))
    finally:
        workload.close()
    result["host"] = host_profile(workload)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
