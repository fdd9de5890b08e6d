"""Outside-in per-layer tracing for the end-to-end benchmark.

A layer is a ``src/repro`` module. It is timed by wrapping public callables
at the binding its call sites resolve (``from x import f`` copies ``f`` into
the importing module, so that copy is the one wrapped). Nothing under
``src/`` changes: :meth:`LayerTrace.install` swaps wrappers in,
:meth:`LayerTrace.remove` puts the originals back.

Each wrapper records the call's duration on a per-thread stack, so a
layer's *self* time is its duration minus the wrapped calls nested inside
it on the same thread -- the service's handler and dispatcher threads each
add up on their own. Per-layer work counts (rows, samples, hypotheses, ...)
are read from the call's arguments or result, outside the timed interval.
"""

from __future__ import annotations

import functools
import importlib
import pickle
import threading
import time
from dataclasses import dataclass
from typing import Callable


def _rows(args, kwargs, result) -> dict:
    return {"rows": len(args[1])}


def _result_rows(args, kwargs, result) -> dict:
    return {"rows": len(result[0])}


def _samples(args, kwargs, result) -> dict:
    return {"samples": len(args[1])}


def _fused_samples(args, kwargs, result) -> dict:
    return {"samples": sum(len(x) for x in args[1])}


def _kernels(args, kwargs, result) -> dict:
    return {"kernels": len(result)}


def _generated(args, kwargs, result) -> dict:
    return {"hypotheses": len(result.hypotheses)}


def _scored(args, kwargs, result) -> dict:
    return {"hypotheses": len(args[1])}


def _tasks(args, kwargs, result) -> dict:
    return {"tasks": len(result)}


@dataclass(frozen=True)
class Target:
    """One wrapped callable: ``attr`` is ``"function"`` or ``"Class.method"``."""

    layer: str
    module: str
    attr: str
    work: "Callable[[tuple, dict, object], dict] | None" = None
    #: Pickle and unpickle the return value, as a process pool would ship
    #: it, and book bytes and seconds to ``parallel.pickle``.
    pickles_result: bool = False
    #: Keep the receiving instances (``args[0]``) for probes after the run.
    keeps_instances: bool = False


#: Every wrapped callable, grouped by layer. The comment on each group says
#: which end-to-end metric the layer should move, and on which workload.
TARGETS: "tuple[Target, ...]" = (
    # wall_s@casestudy_adapt (training_set); the sweeps (measurements)
    Target("synthesis.measurements", "repro.evaluation.sweep", "synthesize_measurements"),
    Target("synthesis.measurements", "repro.casestudies.base", "synthesize_measurements"),
    Target(
        "synthesis.training_set",
        "repro.dnn.domain_adaptation",
        "generate_training_set",
        _result_rows,
    ),
    # wall_s@sweep_m3 (aggregate); tasks_per_s@service_journaled (parse)
    Target("experiment.aggregate", "repro.modeling.pipeline", "value_table"),
    Target("experiment.aggregate", "repro.regression.multi_parameter", "value_table"),
    Target("experiment.parse", "repro.service.schema", "parse_experiment"),
    # the sweeps and the service
    Target("noise.estimate", "repro.adaptive.modeler", "estimate_noise_level"),
    Target("noise.estimate", "repro.modeling.candidates", "estimate_noise_level"),
    Target("noise.estimate", "repro.casestudies.driver", "summarize_noise"),
    # tasks_per_s@sweep_m1 and @service_journaled
    Target("preprocessing.encode", "repro.dnn.modeler", "encode_parameter_line"),
    Target("preprocessing.encode", "repro.dnn.modeler", "parameter_lines"),
    # fit: wall_s@casestudy_adapt; predict: tasks_per_s@service_journaled
    Target("nn.predict", "repro.nn.network", "Sequential.predict_proba", _rows),
    Target("nn.fit", "repro.nn.network", "Sequential.fit", _samples),
    Target("nn.fit", "repro.nn.fused", "fit_fused", _fused_samples),
    # classify: sweep_m1 and service; adapt: casestudy_adapt
    Target(
        "dnn.classify_batch",
        "repro.dnn.modeler",
        "DNNModeler.classify_batch",
        _kernels,
        keeps_instances=True,
    ),
    Target("dnn.adapt", "repro.dnn.modeler", "DNNModeler.network_for_task"),
    # wall_s@sweep_m3
    Target("modeling.model_kernel", "repro.modeling.pipeline", "ModelingPipeline.model_kernel"),
    Target(
        "modeling.generate",
        "repro.modeling.candidates",
        "FullSearchGenerator.generate",
        _generated,
    ),
    Target(
        "modeling.generate",
        "repro.modeling.candidates",
        "DNNTopKGenerator.generate",
        _generated,
    ),
    # tasks_per_s@sweep_m1, wall_s@sweep_m3; no change @casestudy_adapt
    Target(
        "regression.score",
        "repro.regression.fast_multi",
        "FastMultiParameterSearch.score",
        _scored,
    ),
    Target("regression.choose", "repro.regression.fast_multi", "FastMultiParameterSearch.choose"),
    Target(
        "regression.line_select",
        "repro.regression.fast_single",
        "FastSingleParameterSearch.select",
    ),
    Target("regression.reference", "repro.modeling.pipeline", "evaluate_hypotheses"),
    Target("regression.reference", "repro.regression.multi_parameter", "evaluate_hypotheses"),
    # the sweeps
    Target("adaptive.route", "repro.adaptive.modeler", "AdaptiveModeler.route"),
    Target("evaluation.score", "repro.evaluation.sweep", "lead_exponent_distance"),
    Target("evaluation.score", "repro.evaluation.sweep", "relative_prediction_errors"),
    Target("evaluation.score", "repro.evaluation.sweep", "prediction_smape"),
    # casestudy_adapt
    Target(
        "casestudies.campaign",
        "repro.casestudies.base",
        "SimulatedApplication.run_campaign",
    ),
    # tasks_per_s and cpu_s@sweep_m1
    Target(
        "parallel.run",
        "repro.parallel.engine",
        "EngineSession.run",
        _tasks,
        pickles_result=True,
    ),
    # tasks_per_s@service_journaled; no change elsewhere (no run dir)
    Target("run.record_task", "repro.run.manifest", "RunManifest.record_task"),
    # tasks_per_s@service_journaled
    Target("service.submit", "repro.service.core", "ModelingService.submit"),
    Target("service.build_response", "repro.service.core", "build_response"),
)

#: The layer that books the harness's pickling of engine results.
PICKLE_LAYER = "parallel.pickle"


def resolve(target: Target) -> "tuple[object, str, object]":
    """``(owner, name, original)`` of a target; raises if it does not exist.

    Class attributes must be defined on the class itself: wrapping an
    inherited method would install a new attribute instead of replacing
    one, and removal would then leave a copy behind.
    """
    owner = importlib.import_module(target.module)
    *path, name = target.attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    if path:
        if name not in vars(owner):
            raise AttributeError(f"{target.module}.{target.attr} is not defined on the class")
        original = vars(owner)[name]
    else:
        original = getattr(owner, name)
    if not callable(original):
        raise TypeError(f"{target.module}.{target.attr} is not callable")
    return owner, name, original


class LayerTrace:
    """Wrappers around :data:`TARGETS` plus the per-layer tallies they fill."""

    def __init__(self):
        self._local = threading.local()
        self._stats_lock = threading.Lock()
        self._stats: "dict[str, dict[str, float]]" = {}
        self._instances_lock = threading.Lock()
        self._instances: "dict[str, dict[int, object]]" = {}
        self._installed: "list[tuple[object, str, object]]" = []

    # ------------------------------------------------------------ lifecycle
    def install(self) -> None:
        """Resolve every target first, then swap all wrappers in."""
        if self._installed:
            raise RuntimeError("layer trace is already installed")
        resolved = [(target, *resolve(target)) for target in TARGETS]
        for target, owner, name, original in resolved:
            setattr(owner, name, self._wrap(target, original))
            self._installed.append((owner, name, original))

    def remove(self) -> None:
        """Put every original back, in reverse order of installation."""
        while self._installed:
            owner, name, original = self._installed.pop()
            setattr(owner, name, original)

    def __enter__(self) -> "LayerTrace":
        self.install()
        return self

    def __exit__(self, *exc_info) -> None:
        self.remove()

    # ------------------------------------------------------------- results
    def stats(self) -> "dict[str, dict[str, float]]":
        """``layer -> {calls, self_s, <work counts>}`` recorded so far."""
        with self._stats_lock:
            return {layer: dict(entry) for layer, entry in self._stats.items()}

    def instances(self, layer: str) -> list:
        """Distinct receivers seen by a ``keeps_instances`` target."""
        with self._instances_lock:
            return list(self._instances.get(layer, {}).values())

    # ----------------------------------------------------------- recording
    def _stack(self) -> "list[float]":
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def _record(self, layer: str, self_s: float, counts: dict) -> None:
        with self._stats_lock:
            entry = self._stats.setdefault(layer, {"calls": 0, "self_s": 0.0})
            entry["calls"] += 1
            entry["self_s"] += self_s
            for key, value in counts.items():
                entry[key] = entry.get(key, 0) + value

    def _keep(self, layer: str, instance: object) -> None:
        with self._instances_lock:
            self._instances.setdefault(layer, {})[id(instance)] = instance

    def _pickle(self, stack: "list[float]", result: object) -> None:
        start = time.perf_counter()
        data = pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
        pickle.loads(data)
        elapsed = time.perf_counter() - start
        if stack:
            stack[-1] += elapsed
        self._record(PICKLE_LAYER, elapsed, {"bytes": len(data)})

    def _wrap(self, target: Target, original: Callable) -> Callable:
        trace = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            stack = trace._stack()
            stack.append(0.0)
            start = time.perf_counter()
            result = None
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                elapsed = time.perf_counter() - start
                nested = stack.pop()
                if stack:
                    stack[-1] += elapsed
                counts = target.work(args, kwargs, result) if (
                    target.work is not None and result is not None
                ) else {}
                trace._record(target.layer, elapsed - nested, counts)
                if target.keeps_instances:
                    trace._keep(target.layer, args[0])
                if target.pickles_result and result is not None:
                    trace._pickle(stack, result)

        return wrapper
