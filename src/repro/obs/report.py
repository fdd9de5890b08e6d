"""Renderers behind ``repro-model trace``: per-stage / per-span breakdowns.

Aggregates a validated trace (see :mod:`repro.obs.sink`) into a compact
summary -- stage totals with shares, span statistics grouped by name,
per-kernel modeling breakdowns, and the metric listing -- and renders it as
text tables or schema-stable JSON for scripting.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.obs.sink import TRACE_FILENAME, read_trace
from repro.schemas import TRACE_SUMMARY_SCHEMA as SUMMARY_SCHEMA
from repro.util.tables import render_table

__all__ = ["load_run_trace", "summarize_trace", "render_trace_text", "render_trace_json"]


def load_run_trace(run_dir: "str | Path") -> list[dict]:
    """Read ``trace.jsonl`` from a run directory (validated).

    The failure modes are distinguished so ``repro-model trace`` can say
    what actually happened instead of a generic "file not found": a run
    directory that does not exist, a directory that never held a journaled
    run, and a journaled run whose trace is absent -- which means the run
    either executed with telemetry disabled or is still in flight (the
    trace artifact is written when the run finishes).
    """
    from repro.run.manifest import MANIFEST_NAME

    directory = Path(run_dir)
    path = directory / TRACE_FILENAME
    if path.exists():
        return read_trace(path)
    if not directory.is_dir():
        raise FileNotFoundError(
            f"run directory {run_dir} does not exist (nothing to trace)"
        )
    if not (directory / MANIFEST_NAME).exists():
        raise FileNotFoundError(
            f"{run_dir} holds no run manifest: point 'repro-model trace' at a "
            f"--run-dir recorded with --telemetry (or REPRO_TELEMETRY=1)"
        )
    raise FileNotFoundError(
        f"run {run_dir} has no {TRACE_FILENAME}: the run either executed with "
        f"telemetry disabled or is still in flight -- the trace artifact is "
        f"written when the run finishes. Re-run with --telemetry (or "
        f"REPRO_TELEMETRY=1) to record one"
    )


def summarize_trace(records: "list[dict]") -> dict:
    """Aggregate a trace's records into one summary dict."""
    header = records[0]
    stages = [
        {"stage": r["stage"], "seconds": float(r["seconds"])}
        for r in records
        if r.get("type") == "stage"
    ]
    # Share denominator: the end-to-end 'total' stage when present (worker
    # stages can sum past it under parallelism), else the sum of stages.
    named_total = next((s["seconds"] for s in stages if s["stage"] == "total"), None)
    summed = sum(s["seconds"] for s in stages if s["stage"] != "total")
    stage_total = named_total if named_total else summed
    for entry in stages:
        entry["share"] = entry["seconds"] / stage_total if stage_total > 0 else 0.0
    # Worker stage timings are perf_counter wall-seconds, summed over every
    # worker process; 'total' is the driver's own wall time. Under
    # parallelism the sum legitimately exceeds it (e.g. fit 10.852s vs
    # total 3.456s with 4 workers), so flag that and say so in the rendered
    # report rather than letting the >100 % shares read as a bookkeeping bug.
    stage_note = None
    if named_total is not None and summed > named_total:
        stage_note = (
            "worker stages are wall-seconds summed over worker processes; "
            "'total' is the run's wall time, so stages can sum past it under "
            "parallelism"
        )

    span_groups: dict[str, dict] = {}
    kernels: dict[str, dict] = {}
    workers: set[int] = set()
    for record in records:
        if record.get("type") != "span":
            continue
        workers.add(int(record.get("pid", 0)))
        duration = float(record["duration_s"])
        group = span_groups.setdefault(
            record["name"], {"name": record["name"], "count": 0, "seconds": 0.0, "max_s": 0.0}
        )
        group["count"] += 1
        group["seconds"] += duration
        group["max_s"] = max(group["max_s"], duration)
        kernel = record.get("attrs", {}).get("kernel")
        if kernel is not None:
            entry = kernels.setdefault(str(kernel), {"kernel": str(kernel), "count": 0, "seconds": 0.0})
            entry["count"] += 1
            entry["seconds"] += duration
    for group in span_groups.values():
        group["mean_s"] = group["seconds"] / group["count"]

    counters: dict[str, float] = {}
    gauges: dict[str, float] = {}
    histograms: dict[str, dict] = {}
    for record in records:
        if record.get("type") != "metric":
            continue
        if record["kind"] == "counter":
            counters[record["name"]] = record["value"]
        elif record["kind"] == "gauge":
            gauges[record["name"]] = record["value"]
        else:
            histograms[record["name"]] = {
                "count": record["count"],
                "sum": record["sum"],
                "mean": record["sum"] / record["count"] if record["count"] else 0.0,
            }
    return {
        "schema": SUMMARY_SCHEMA,
        "trace_schema": header.get("schema"),
        "created": header.get("created"),
        "meta": header.get("meta", {}),
        "stages": stages,
        "stage_note": stage_note,
        "spans": sorted(span_groups.values(), key=lambda g: -g["seconds"]),
        "kernels": sorted(kernels.values(), key=lambda k: -k["seconds"]),
        "workers": len(workers),
        "counters": counters,
        "gauges": gauges,
        "histograms": histograms,
    }


def render_trace_text(summary: dict) -> str:
    """Human-readable tables: stages, spans, kernels, metrics."""
    blocks: list[str] = []
    meta = summary.get("meta", {})
    title = f"Telemetry trace ({summary['trace_schema']})"
    if meta:
        title += " -- " + ", ".join(f"{k}={v}" for k, v in sorted(meta.items()))
    blocks.append(title)
    if summary["stages"]:
        rows = [
            [s["stage"], f"{s['seconds']:.3f}", f"{s['share'] * 100:.1f}"]
            for s in summary["stages"]
        ]
        blocks.append(render_table(["stage", "seconds", "share %"], rows, title="Per-stage time"))
        if summary.get("stage_note"):
            blocks.append(f"note: {summary['stage_note']}")
    if summary["spans"]:
        rows = [
            [g["name"], str(g["count"]), f"{g['seconds']:.3f}", f"{g['mean_s'] * 1000:.2f}", f"{g['max_s'] * 1000:.2f}"]
            for g in summary["spans"]
        ]
        blocks.append(
            render_table(
                ["span", "count", "total s", "mean ms", "max ms"],
                rows,
                title=f"Spans ({summary['workers']} worker process(es))",
            )
        )
    if summary["kernels"]:
        rows = [
            [k["kernel"], str(k["count"]), f"{k['seconds']:.3f}"] for k in summary["kernels"][:20]
        ]
        note = "" if len(summary["kernels"]) <= 20 else f" (top 20 of {len(summary['kernels'])})"
        blocks.append(render_table(["kernel", "spans", "seconds"], rows, title=f"Per-kernel modeling time{note}"))
    metric_rows = [
        [name, "counter", f"{value:g}"] for name, value in sorted(summary["counters"].items())
    ]
    metric_rows += [
        [name, "gauge", f"{value:g}"] for name, value in sorted(summary["gauges"].items())
    ]
    metric_rows += [
        [name, "histogram", f"n={h['count']} mean={h['mean']:.4g}"]
        for name, h in sorted(summary["histograms"].items())
    ]
    if metric_rows:
        blocks.append(render_table(["metric", "kind", "value"], metric_rows, title="Metrics"))
    return "\n\n".join(blocks)


def render_trace_json(summary: dict) -> str:
    return json.dumps(summary, indent=2, sort_keys=True) + "\n"
