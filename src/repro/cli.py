"""Command-line interface: ``python -m repro`` or the ``repro-model`` script.

Subcommands::

    repro-model noise <experiment-file>          estimate noise (Fig. 5 style)
    repro-model model <experiment-file>          create performance models
    repro-model methods                          list the registered modelers
    repro-model pretrain                         (re)build the cached generic network
    repro-model evaluate --params 1              synthetic sweep (Fig. 3 tables)
    repro-model casestudy kripke                 run a simulated case study
    repro-model trace <run-dir>                  render a run's telemetry trace
    repro-model merge-run OUT DIR...             merge sharded run directories
    repro-model serve --socket /tmp/repro.sock   long-lived modeling service

``--method`` accepts any registered modeler spec string, e.g.
``--method "dnn(top_k=5)"``; ``repro-model methods`` lists them.

Experiment files may be JSON (``.json``) or the Extra-P style text format
(anything else); see :mod:`repro.experiment.io`.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from repro.util.tables import render_table


def _enable_telemetry_env() -> None:
    """Turn the telemetry toggle on for this process and its pool workers.

    The toggle travels through the environment (``REPRO_TELEMETRY``) so
    forked worker processes inherit it without extra plumbing.
    """
    from repro.obs import ENV_VAR

    os.environ[ENV_VAR] = "1"


def _load_experiment(path: str, keep_going: bool = False, manifest=None):
    from repro.experiment.io import load_experiment

    experiment, quarantined = load_experiment(path, keep_going=keep_going, manifest=manifest)
    for record in quarantined:
        print(
            f"warning: quarantined kernel {record.kernel!r}: {record.reason}"
            + (f" ({record.location})" if record.location else ""),
            file=sys.stderr,
        )
    return experiment


def _shard_spec(spec: str) -> "tuple[int, int]":
    """Argparse type for ``--shard``: ``i/n`` with ``0 <= i < n``."""
    try:
        index_text, count_text = spec.split("/", 1)
        index, count = int(index_text), int(count_text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected --shard i/n (e.g. 0/2), got {spec!r}"
        ) from None
    if count < 1 or not 0 <= index < count:
        raise argparse.ArgumentTypeError(
            f"--shard {spec!r}: need 0 <= i < n"
        )
    return index, count


def _print_partial_summary(kind: str, run_dir: str, done: str) -> None:
    """What a sharded/stealing run prints instead of result tables."""
    print(f"partial {kind}: {done} journaled in {run_dir}")
    print(
        "merge the shard run dirs with 'repro-model merge-run OUT DIR...' "
        "and re-run with --resume on the merged dir to render tables"
    )


def _adaptation_store(args: argparse.Namespace):
    """The ``--adaptation-cache`` store, or ``None`` without the flag."""
    if args.adaptation_cache is None:
        return None
    from repro.dnn.adaptation_cache import AdaptationStore

    return AdaptationStore(
        args.adaptation_cache, resolution=args.adaptation_resolution / 100.0
    )


def _print_trace_path(result) -> None:
    """Point at a run's telemetry trace, when it wrote one."""
    if result.trace_path:
        print(f"telemetry trace: {result.trace_path} (render with 'repro-model trace')")


def _method_spec(spec: str) -> str:
    """Argparse type for ``--method``: any registered modeler spec string.

    Validates eagerly so a typo fails at parse time with the registered
    names, not deep inside modeling.
    """
    from repro.modeling.registry import available_modelers, parse_spec

    try:
        name, _ = parse_spec(spec)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    if name not in available_modelers():
        raise argparse.ArgumentTypeError(
            f"unknown modeler {name!r}; registered: {', '.join(available_modelers())}"
        )
    return spec


def _cmd_noise(args: argparse.Namespace) -> int:
    from repro.noise.estimation import summarize_noise

    experiment = _load_experiment(args.experiment, keep_going=args.keep_going)
    rows = []
    for kernel in experiment.kernels:
        summary = summarize_noise(kernel)
        rows.append(
            [
                kernel.name,
                f"{summary.mean * 100:.2f}",
                f"{summary.median * 100:.2f}",
                f"{summary.minimum * 100:.2f}",
                f"{summary.maximum * 100:.2f}",
                f"{summary.pooled * 100:.2f}",
            ]
        )
    print(
        render_table(
            ["kernel", "mean %", "median %", "min %", "max %", "pooled rrd %"],
            rows,
            title=f"Noise levels of {args.experiment}",
        )
    )
    overall = summarize_noise(experiment)
    print(f"\noverall: {overall.format()}")
    return 0


def _cmd_model(args: argparse.Namespace) -> int:
    manifest = None
    if args.run_dir:
        from repro.run.manifest import RunManifest, config_fingerprint

        manifest = RunManifest.open(
            args.run_dir,
            config_fingerprint(str(args.experiment), args.method, args.seed),
            meta={"kind": "model", "experiment": str(args.experiment)},
        )
    experiment = _load_experiment(
        args.experiment, keep_going=args.keep_going, manifest=manifest
    )
    from repro.modeling.registry import create_modeler

    modeler = create_modeler(args.method)
    results = modeler.model_experiment(experiment, rng=args.seed)
    names = list(experiment.parameters)
    for kernel_name in sorted(results):
        result = results[kernel_name]
        print(result.format(names))
    return 0


def _cmd_pretrain(args: argparse.Namespace) -> int:
    from repro.dnn.config import NetworkConfig, PretrainConfig
    from repro.dnn.pretrained import default_cache_dir, load_or_pretrain

    network_config = NetworkConfig.paper() if args.net == "paper" else NetworkConfig.fast()
    config = PretrainConfig.default()
    if network_config.name != config.network.name:
        config = PretrainConfig(network=network_config)
    network = load_or_pretrain(config)
    print(
        f"generic network '{network_config.name}' ready "
        f"({network.n_parameters()} weights, cache: {default_cache_dir()})"
    )
    return 0


def _progress_printer(label: str = "sweep"):
    """A lightweight engine progress callback writing to stderr."""

    def emit(progress) -> None:
        print(
            f"\r{label}: {progress.done}/{progress.total} tasks "
            f"({progress.failed} failed, {progress.retried} retried, "
            f"{progress.throughput:.1f} tasks/s)",
            end="" if progress.done < progress.total else "\n",
            file=sys.stderr,
            flush=True,
        )

    return emit


def _parse_noise_tokens(tokens) -> "tuple[str, tuple[float, ...]]":
    """Split a ``--noise`` list into (noise-model spec, axis values).

    Numeric tokens are axis values in percent (the historical uniform-noise
    levels); at most one non-numeric token names the noise model, e.g.
    ``--noise tainted(level=0.05) 0 10 30`` sweeps the contamination
    probability over 0 %, 10 %, 30 %.
    """
    spec = None
    levels: "list[float]" = []
    for token in tokens:
        try:
            levels.append(float(token) / 100.0)
        except (TypeError, ValueError):
            if spec is not None:
                raise SystemExit(
                    f"--noise accepts at most one noise-model spec (got {spec!r} "
                    f"and {token!r})"
                )
            spec = str(token)
    if not levels:
        raise SystemExit("--noise needs at least one numeric axis value")
    return spec or "uniform", tuple(levels)


def _cmd_evaluate(args: argparse.Namespace) -> int:
    from repro.evaluation.figures import format_accuracy_table, format_power_table
    from repro.evaluation.sweep import SweepConfig, run_sweep

    from repro.parallel.engine import EngineConfig

    # The synthetic sweep classifies with the generic network: the
    # pretraining distribution already matches the synthesized tasks.
    # --adaptation-cache opts back into domain adaptation, made affordable
    # by sharing each task cluster's retraining through the store.
    modelers = {
        "regression": "regression",
        "adaptive": "adaptive(use_domain_adaptation=False)",
    }
    adaptation_cache = _adaptation_store(args)
    if adaptation_cache is not None:
        modelers["adaptive"] = "adaptive"
    noise_spec, noise_levels = _parse_noise_tokens(args.noise)
    prefilter = getattr(args, "prefilter", None)
    if prefilter is not None:
        # Paired comparison: every modeler once as-is and once with the
        # robust pre-filter injected (byte-identical campaigns either way).
        from repro.modeling.registry import create_modeler

        for label, spec in list(modelers.items()):
            modelers[f"{label}+{prefilter}"] = create_modeler(
                spec, prefilter=prefilter
            )
    config = SweepConfig(
        n_params=args.params,
        noise_levels=noise_levels,
        n_functions=args.functions,
        batch_size=args.batch,
        noise=noise_spec,
    )
    engine = EngineConfig(
        processes=args.processes,
        max_retries=args.retries,
        chunk_timeout=args.timeout,
        on_error="mark" if args.keep_going else "raise",
    )
    if args.telemetry:
        _enable_telemetry_env()
    result = run_sweep(
        config,
        modelers,
        rng=args.seed,
        engine=engine,
        progress=_progress_printer() if args.progress else None,
        run_dir=args.resume or args.run_dir,
        resume=args.resume is not None,
        adaptation_cache=adaptation_cache,
        shard=args.shard,
        steal=args.steal,
    )
    if result.partial:
        _print_partial_summary(
            "sweep",
            args.resume or args.run_dir,
            f"{result.completed_batches}/{result.total_batches} task batch(es)",
        )
        _print_trace_path(result)
        return 0
    print(format_accuracy_table(result, title=f"Model accuracy, m={args.params} (Fig. 3)"))
    print()
    print(format_power_table(result, title=f"Predictive power, m={args.params} (Fig. 3)"))
    if prefilter is not None:
        from repro.evaluation.degradation import DegradationReport

        pairs = {
            label: f"{label}+{prefilter}"
            for label in modelers
            if not label.endswith(f"+{prefilter}") and f"{label}+{prefilter}" in modelers
        }
        report = DegradationReport(sweep=result, pairs=pairs, prefilter=prefilter)
        print()
        print(report.format(title=f"Degradation under {noise_spec} (median SMAPE)"))
    stages = result.stage_seconds
    if stages:
        breakdown = ", ".join(
            f"{stage} {stages[stage]:.2f}s"
            for stage in ("adapt", "synthesize", "classify", "fit", "total")
            if stage in stages
        )
        print(f"\nstage wall-time: {breakdown}")
    if result.engine_failures:
        print(f"warning: {result.engine_failures} task batch(es) failed/timed out")
    _print_trace_path(result)
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    from repro.experiment.io import save_json, save_text
    from repro.noise.injection import NoNoise, UniformNoise
    from repro.noise.registry import create_noise
    from repro.pmnf.parser import parse_function
    from repro.synthesis.measurements import synthesize_experiment

    if len(args.values) != len(args.params):
        raise SystemExit("one --values list per parameter is required")
    function = parse_function(args.function, args.params)
    value_sets = [
        [float(v) for v in spec.split(",")] for spec in args.values
    ]
    try:
        level = float(args.noise)
    except (TypeError, ValueError):
        noise = create_noise(str(args.noise))
    else:
        noise = UniformNoise(level / 100.0) if level > 0 else NoNoise()
    experiment = synthesize_experiment(
        function,
        value_sets,
        noise=noise,
        repetitions=args.repetitions,
        rng=args.seed,
        parameter_names=args.params,
        kernel=args.kernel,
    )
    if Path(args.output).suffix.lower() == ".json":
        save_json(experiment, args.output)
    else:
        save_text(experiment, args.output)
    print(
        f"wrote {args.output}: {len(experiment.coordinates())} points x "
        f"{args.repetitions} repetitions of '{function.format(args.params)}' "
        f"under {noise!r} noise"
    )
    return 0


def _cmd_thresholds(args: argparse.Namespace) -> int:
    from repro.adaptive.thresholds import calibrate_thresholds
    from repro.modeling.registry import create_modeler

    thresholds = calibrate_thresholds(
        create_modeler("regression"),
        create_modeler("dnn(use_domain_adaptation=False)"),
        m_values=tuple(args.params),
        noise_levels=tuple(n / 100 for n in args.noise),
        n_functions=args.functions,
        rng=args.seed,
        processes=args.processes,
    )
    rows = [[m, f"{thresholds[m] * 100:.1f}"] for m in sorted(thresholds)]
    print(render_table(["parameters", "switching threshold (noise %)"], rows))
    return 0


def _cmd_reproduce(args: argparse.Namespace) -> int:
    from repro.evaluation.reporting import ReproductionConfig, run_reproduction

    config = ReproductionConfig(
        parameter_counts=tuple(args.params),
        functions_per_cell=args.functions,
        include_case_studies=not args.no_case_studies,
        adaptation_samples_per_class=args.adapt_spc,
        processes=args.processes,
        seed=args.seed,
    )
    report = run_reproduction(config, progress=print)
    path = report.save(args.output)
    print(f"\nreport written to {path} ({report.seconds:.1f} s total)")
    return 0


def _cmd_methods(args: argparse.Namespace) -> int:
    from repro.modeling.registry import available_modelers, registered_modeler

    rows = []
    for name in available_modelers():
        entry = registered_modeler(name)
        rows.append([entry.signature(), entry.description])
    print(
        render_table(
            ["spec", "description"],
            rows,
            title="Registered modelers (pass to --method, e.g. \"dnn(top_k=5)\")",
        )
    )
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.lint import (
        available_program_rules,
        available_rules,
        find_project_root,
        lint_paths,
        load_config,
        render_json,
        render_text,
    )

    config = load_config(find_project_root())
    select = _split_rules(args.select)
    ignore = _split_rules(args.ignore)
    known = set(available_rules()) | set(available_program_rules())
    unknown = [r for r in (select or []) + (ignore or []) if r not in known]
    if unknown:
        print(
            f"error: unknown rule(s) {', '.join(unknown)}; "
            f"available: {', '.join(sorted(known))}",
            file=sys.stderr,
        )
        return 2
    config = config.with_overrides(select=select, ignore=ignore, program=args.program)
    try:
        result = lint_paths(args.paths or None, config)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    rendered = render_json(result) if args.format == "json" else render_text(result)
    print(rendered, end="" if rendered.endswith("\n") else "\n")
    return 0 if result.clean else 1


def _split_rules(values: "list[str] | None") -> "list[str] | None":
    """Flatten repeated/comma-separated ``--select``/``--ignore`` values."""
    if not values:
        return None
    return [part.strip().upper() for value in values for part in value.split(",") if part.strip()]


def _cmd_casestudy(args: argparse.Namespace) -> int:
    from repro.casestudies import ALL_STUDIES
    from repro.casestudies.driver import run_case_study

    if args.contamination is not None and args.name != "tainted":
        raise SystemExit("--contamination only applies to the 'tainted' case study")
    if args.name == "tainted":
        contamination = 10.0 if args.contamination is None else args.contamination
        application = ALL_STUDIES[args.name](contamination=contamination / 100.0)
    else:
        application = ALL_STUDIES[args.name]()
    modelers: "dict[str, object]" = {"regression": "regression", "adaptive": "adaptive"}
    if args.prefilter is not None:
        from repro.modeling.registry import create_modeler
        from repro.modeling.prefilter import validate_prefilter_spec

        validate_prefilter_spec(args.prefilter)
        for label, spec in list(modelers.items()):
            modelers[f"{label}+{args.prefilter}"] = create_modeler(
                spec, prefilter=args.prefilter
            )
    if args.telemetry:
        _enable_telemetry_env()
    result = run_case_study(
        application,
        modelers,
        rng=args.seed,
        processes=args.processes,
        run_dir=args.resume or args.run_dir,
        resume=args.resume is not None,
        adaptation_cache=_adaptation_store(args),
        shard=args.shard,
    )
    if result.partial:
        done = ", ".join(result.modeler_names()) or "no modelers yet"
        _print_partial_summary(
            "case study", args.resume or args.run_dir, f"modeler(s) {done}"
        )
        _print_trace_path(result)
        return 0
    print(f"== {result.application} ==")
    print(f"noise (Fig. 5): {result.noise.format()}")
    if result.stage_seconds:
        breakdown = ", ".join(
            f"{stage} {seconds:.2f}s" for stage, seconds in result.stage_seconds.items()
        )
        print(f"stage wall-time: {breakdown}")
    headers = ["modeler", "median rel. error % (Fig. 4)", "time s (Fig. 6)", "slowdown"]
    dropped = {
        name: sum(
            o.result.provenance.dropped_repetitions
            for o in result.outcomes
            if o.modeler == name and o.result.provenance is not None
        )
        for name in result.modeler_names()
    }
    if args.prefilter is not None:
        headers.append("dropped reps")
    rows = []
    for name in result.modeler_names():
        row = [
            name,
            f"{result.median_error(name):.2f}",
            f"{result.total_seconds[name]:.2f}",
            f"{result.slowdown(name):.1f}x",
        ]
        if args.prefilter is not None:
            row.append(str(dropped[name]))
        rows.append(row)
    print(render_table(headers, rows))
    _print_trace_path(result)
    return 0


def _cmd_merge_run(args: argparse.Namespace) -> int:
    from repro.run.lifecycle import validate_envelope
    from repro.run.manifest import RunManifestError
    from repro.run.merge import merge_runs

    try:
        merged = merge_runs(args.output, args.shards, validate_envelope)
    except RunManifestError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    sources = merged.meta.get("merged_from", [])
    print(
        f"merged {len(sources)} shard(s) into {args.output} "
        f"(run {merged.run_id}, {merged.task_count()} journaled task(s))"
    )
    for source in sources:
        shard = source.get("shard")
        label = f"shard {shard[0]}/{shard[1]}" if shard else "unsharded"
        print(f"  {source['directory']}: run {source['run_id']} ({label})")
    print("render tables by resuming the merged dir (e.g. 'evaluate ... --resume')")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import signal
    import threading

    from repro.service import ModelingService, ServiceConfig, serve_http, serve_unix, start_server

    if args.socket is None and args.port is None:
        raise SystemExit("serve needs a transport: --socket PATH and/or --port N")
    config = ServiceConfig(
        processes=args.processes,
        queue_limit=args.queue_limit,
        batch_max=args.batch,
        linger_s=args.linger,
        default_timeout_s=args.timeout,
        run_dir=args.run_dir,
        telemetry=not args.no_telemetry,
    )
    stop = threading.Event()

    def _request_shutdown(signum, frame) -> None:
        stop.set()

    signal.signal(signal.SIGINT, _request_shutdown)
    signal.signal(signal.SIGTERM, _request_shutdown)

    service = ModelingService(config)
    service.start()
    servers = []
    try:
        if args.socket is not None:
            servers.append(serve_unix(service, args.socket))
            print(f"serving on unix:{args.socket}", file=sys.stderr, flush=True)
        if args.port is not None:
            http_server = serve_http(service, args.host, args.port)
            servers.append(http_server)
            host, port = http_server.server_address[:2]
            print(f"serving on http://{host}:{port}", file=sys.stderr, flush=True)
        if args.run_dir is not None:
            print(
                f"journaling per-tenant responses under {args.run_dir}",
                file=sys.stderr,
                flush=True,
            )
        for server in servers:
            start_server(server)
        stop.wait()
        print("shutting down: draining queued requests...", file=sys.stderr, flush=True)
    finally:
        for server in servers:
            server.shutdown()
            server.server_close()
        service.close(drain=True)
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.obs.report import (
        load_run_trace,
        render_trace_json,
        render_trace_text,
        summarize_trace,
    )

    try:
        records = load_run_trace(args.run_dir)
    except (FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    summary = summarize_trace(records)
    rendered = (
        render_trace_json(summary) if args.format == "json" else render_trace_text(summary)
    )
    print(rendered, end="" if rendered.endswith("\n") else "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-model",
        description="Noise-resilient empirical performance modeling (IPDPS 2021 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    keep_going_help = "quarantine kernels with invalid values instead of aborting"

    p_noise = sub.add_parser("noise", help="estimate measurement noise")
    p_noise.add_argument("experiment", help="experiment file (.json or Extra-P text)")
    p_noise.add_argument("--keep-going", action="store_true", help=keep_going_help)
    p_noise.set_defaults(func=_cmd_noise)

    p_model = sub.add_parser("model", help="create performance models")
    p_model.add_argument("experiment", help="experiment file (.json or Extra-P text)")
    p_model.add_argument(
        "--method",
        type=_method_spec,
        default="adaptive",
        help="registered modeler spec, e.g. regression or \"dnn(top_k=5)\" "
        "(see 'repro-model methods')",
    )
    p_model.add_argument("--seed", type=int, default=0)
    p_model.add_argument("--keep-going", action="store_true", help=keep_going_help)
    p_model.add_argument(
        "--run-dir", default=None,
        help="record a run manifest (incl. quarantined kernels) in this directory",
    )
    p_model.set_defaults(func=_cmd_model)

    p_methods = sub.add_parser("methods", help="list the registered modelers")
    p_methods.set_defaults(func=_cmd_methods)

    p_pre = sub.add_parser("pretrain", help="pretrain and cache the generic network")
    p_pre.add_argument("--net", choices=("fast", "paper"), default="fast")
    p_pre.set_defaults(func=_cmd_pretrain)

    p_eval = sub.add_parser("evaluate", help="run the synthetic sweep (Fig. 3)")
    p_eval.add_argument("--params", type=int, default=1, choices=(1, 2, 3))
    p_eval.add_argument(
        "--noise", nargs="+", default=[2, 5, 10, 20, 50, 75, 100],
        help="axis values in percent, optionally preceded by a noise-model "
        "spec (e.g. 'tainted(level=0.05)' 0 10 30 sweeps the contamination "
        "probability; default model: uniform)",
    )
    p_eval.add_argument(
        "--prefilter", default=None,
        help="robust pre-filter spec (e.g. 'mad(k=3)'); adds a filtered "
        "twin of every modeler for a paired degradation comparison",
    )
    p_eval.add_argument("--functions", type=int, default=100)
    p_eval.add_argument("--processes", type=int, default=None)
    p_eval.add_argument(
        "--batch", type=int, default=16,
        help="functions per engine task (batched DNN classification)",
    )
    p_eval.add_argument(
        "--retries", type=int, default=1,
        help="re-submissions per failing task before giving up",
    )
    p_eval.add_argument(
        "--timeout", type=float, default=None,
        help="seconds without worker results before outstanding tasks are marked failed",
    )
    p_eval.add_argument(
        "--keep-going", action="store_true",
        help="mark persistently failing tasks instead of aborting the sweep",
    )
    p_eval.add_argument(
        "--progress", action="store_true", help="print engine throughput to stderr"
    )
    p_eval.add_argument("--seed", type=int, default=0)
    p_eval.add_argument(
        "--telemetry", action="store_true",
        help="record spans/metrics and write trace.jsonl into the run directory "
        "(sets REPRO_TELEMETRY=1; modeling results are bit-identical either way)",
    )
    p_eval.add_argument(
        "--adaptation-cache", metavar="DIR", default=None,
        help="share domain-adaptation retraining through an on-disk weight "
        "store in DIR (turns domain adaptation on for the adaptive modeler; "
        "results are bit-identical warm or cold)",
    )
    p_eval.add_argument(
        "--adaptation-resolution", type=float, default=5.0, metavar="PCT",
        help="noise-band bucket width in percent for adaptation clustering "
        "(<= 0 clusters only exactly-equal bands; default: 5)",
    )
    g_eval = p_eval.add_mutually_exclusive_group()
    g_eval.add_argument(
        "--run-dir", default=None,
        help="journal per-task results here so a crashed sweep can be resumed",
    )
    g_eval.add_argument(
        "--resume", metavar="RUN_DIR", default=None,
        help="resume a journaled sweep, replaying completed tasks bit-identically",
    )
    g_shard = p_eval.add_mutually_exclusive_group()
    g_shard.add_argument(
        "--shard", type=_shard_spec, default=None, metavar="I/N",
        help="run only task batches with index %% N == I into this run dir "
        "(one dir per shard; reassemble with 'repro-model merge-run')",
    )
    g_shard.add_argument(
        "--steal", action="store_true",
        help="work-stealing mode: claim unjournaled task blocks from a run "
        "dir shared by several workers (requires --run-dir on a shared "
        "filesystem)",
    )
    p_eval.set_defaults(func=_cmd_evaluate)

    p_gen = sub.add_parser("generate", help="synthesize an experiment file")
    p_gen.add_argument("output", help="target file (.json or Extra-P text)")
    p_gen.add_argument("--params", nargs="+", default=["p"], help="parameter names")
    p_gen.add_argument(
        "--function",
        default="1 + 0.5 * p",
        help="ground-truth PMNF expression, e.g. '5 + 2 * p^(1/2) * log2(p)'",
    )
    p_gen.add_argument(
        "--values",
        nargs="+",
        default=["4,8,16,32,64"],
        help="comma-separated value list per parameter",
    )
    p_gen.add_argument(
        "--noise", default="0",
        help="noise level in percent, or a noise-model spec like "
        "'tainted(level=0.05, p=0.2)'",
    )
    p_gen.add_argument("--repetitions", type=int, default=5)
    p_gen.add_argument("--kernel", default="synthetic")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.set_defaults(func=_cmd_generate)

    p_thr = sub.add_parser(
        "thresholds", help="calibrate the adaptive switching thresholds (Sec. IV-A)"
    )
    p_thr.add_argument("--params", type=int, nargs="+", default=[1, 2])
    p_thr.add_argument(
        "--noise", type=float, nargs="+", default=[5, 10, 20, 30, 50, 75, 100]
    )
    p_thr.add_argument("--functions", type=int, default=100)
    p_thr.add_argument("--processes", type=int, default=None)
    p_thr.add_argument("--seed", type=int, default=0)
    p_thr.set_defaults(func=_cmd_thresholds)

    p_case = sub.add_parser("casestudy", help="run a simulated case study (Figs. 4-6)")
    p_case.add_argument("name", choices=("kripke", "fastest", "relearn", "tainted"))
    p_case.add_argument(
        "--contamination", type=float, default=None, metavar="PCT",
        help="per-repetition taint probability in percent for the 'tainted' "
        "study (default: 10)",
    )
    p_case.add_argument(
        "--prefilter", default=None,
        help="robust pre-filter spec (e.g. 'mad(k=3)'); adds a filtered "
        "twin of every modeler and a dropped-repetitions column",
    )
    p_case.add_argument("--processes", type=int, default=None)
    p_case.add_argument("--seed", type=int, default=0)
    p_case.add_argument(
        "--telemetry", action="store_true",
        help="record spans/metrics and write trace.jsonl into the run directory "
        "(sets REPRO_TELEMETRY=1; modeling results are bit-identical either way)",
    )
    p_case.add_argument(
        "--adaptation-cache", metavar="DIR", default=None,
        help="share domain-adaptation retraining through an on-disk weight "
        "store in DIR (results are bit-identical warm or cold)",
    )
    p_case.add_argument(
        "--adaptation-resolution", type=float, default=5.0, metavar="PCT",
        help="noise-band bucket width in percent for adaptation clustering "
        "(<= 0 clusters only exactly-equal bands; default: 5)",
    )
    g_case = p_case.add_mutually_exclusive_group()
    g_case.add_argument(
        "--run-dir", default=None,
        help="journal per-modeler results here so a crashed study can be resumed",
    )
    g_case.add_argument(
        "--resume", metavar="RUN_DIR", default=None,
        help="resume a journaled case study, replaying completed modelers",
    )
    p_case.add_argument(
        "--shard", type=_shard_spec, default=None, metavar="I/N",
        help="run only modeler tasks with index %% N == I into this run dir "
        "(one dir per shard; reassemble with 'repro-model merge-run')",
    )
    p_case.set_defaults(func=_cmd_casestudy)

    p_merge = sub.add_parser(
        "merge-run",
        help="merge sharded run directories into one (bit-identical journal)",
    )
    p_merge.add_argument("output", help="fresh directory for the merged run")
    p_merge.add_argument(
        "shards", nargs="+", metavar="RUN_DIR",
        help="shard run directories (same configuration fingerprint, disjoint "
        "task indices)",
    )
    p_merge.set_defaults(func=_cmd_merge_run)

    p_serve = sub.add_parser(
        "serve", help="run the long-lived modeling service (unix socket / localhost HTTP)"
    )
    p_serve.add_argument(
        "--socket", default=None, metavar="PATH", help="unix socket path to listen on"
    )
    p_serve.add_argument("--host", default="127.0.0.1", help="TCP bind host (local only)")
    p_serve.add_argument(
        "--port", type=int, default=None, help="TCP port to listen on (0 picks a free one)"
    )
    p_serve.add_argument(
        "--processes", type=int, default=None,
        help="warm worker processes for the engine session (default: REPRO_PROCS)",
    )
    p_serve.add_argument(
        "--queue-limit", type=int, default=64,
        help="bounded request queue; submissions beyond it get 429 + Retry-After",
    )
    p_serve.add_argument(
        "--batch", type=int, default=8,
        help="max requests coalesced into one dispatch (batched DNN classification)",
    )
    p_serve.add_argument(
        "--linger", type=float, default=0.05, metavar="S",
        help="seconds the batcher waits for concurrent requests to coalesce",
    )
    p_serve.add_argument(
        "--timeout", type=float, default=120.0,
        help="seconds one request may wait for its response before 504",
    )
    p_serve.add_argument(
        "--run-dir", default=None,
        help="journal responses into per-tenant sub-manifests (tenants/<name>/) "
        "and write the telemetry trace artifact here",
    )
    p_serve.add_argument(
        "--no-telemetry", action="store_true",
        help="disable the live telemetry session behind /metrics",
    )
    p_serve.set_defaults(func=_cmd_serve)

    p_trace = sub.add_parser(
        "trace", help="render the telemetry trace of a journaled run"
    )
    p_trace.add_argument("run_dir", help="run directory holding trace.jsonl")
    p_trace.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="report format (json is schema-versioned for scripting)",
    )
    p_trace.set_defaults(func=_cmd_trace)

    p_lint = sub.add_parser(
        "lint", help="run the repro-lint static-analysis pass (AST invariants)"
    )
    p_lint.add_argument(
        "paths", nargs="*",
        help="files or directories to lint (default: the [tool.repro-lint] "
        "paths from pyproject.toml)",
    )
    p_lint.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="report format (json is schema-versioned for CI consumers)",
    )
    p_lint.add_argument(
        "--select", action="append", metavar="RULES", default=None,
        help="comma-separated rule ids to run (replaces the configured set)",
    )
    p_lint.add_argument(
        "--ignore", action="append", metavar="RULES", default=None,
        help="comma-separated rule ids to skip (extends the configured set)",
    )
    p_lint.add_argument(
        "--program", dest="program", action="store_true", default=None,
        help="run the whole-program pass (import/call graph rules) even if "
        "the configuration disables it",
    )
    p_lint.add_argument(
        "--no-program", dest="program", action="store_false",
        help="skip the whole-program pass (per-file rules only)",
    )
    p_lint.set_defaults(func=_cmd_lint)

    p_repro = sub.add_parser(
        "reproduce", help="regenerate the paper's full evaluation as one report"
    )
    p_repro.add_argument("--output", default="reproduction", help="report directory")
    p_repro.add_argument("--params", type=int, nargs="+", default=[1, 2, 3])
    p_repro.add_argument("--functions", type=int, default=100)
    p_repro.add_argument("--no-case-studies", action="store_true")
    p_repro.add_argument("--adapt-spc", type=int, default=500)
    p_repro.add_argument("--processes", type=int, default=None)
    p_repro.add_argument("--seed", type=int, default=20210517)
    p_repro.set_defaults(func=_cmd_reproduce)

    return parser


def main(argv: "list[str] | None" = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # Downstream consumer (head, less) closed the pipe mid-print:
        # normal shell usage, not an error worth a traceback. Detach
        # stdout so interpreter shutdown does not retry the flush.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
