import json

import pytest

from repro.obs import Telemetry
from repro.obs.report import (
    SUMMARY_SCHEMA,
    load_run_trace,
    render_trace_json,
    render_trace_text,
    summarize_trace,
)
from repro.obs.sink import TRACE_FILENAME, build_trace_records, write_trace


@pytest.fixture
def trace_records():
    tel = Telemetry()
    with tel.tracer.span("sweep.run"):
        with tel.tracer.span("pipeline.model_kernel", kernel="alpha"):
            pass
        with tel.tracer.span("pipeline.model_kernel", kernel="beta"):
            pass
    tel.metrics.counter("engine.completed").inc(2)
    tel.metrics.gauge("cache.size").set(1)
    tel.metrics.histogram("latency", (1.0,)).observe(0.5)
    return build_trace_records(
        tel, stage_seconds={"fit": 3.0, "total": 4.0}, meta={"kind": "sweep"}
    )


class TestSummarize:
    def test_summary_shape(self, trace_records):
        summary = summarize_trace(trace_records)
        assert summary["schema"] == SUMMARY_SCHEMA
        assert summary["meta"] == {"kind": "sweep"}
        assert summary["workers"] == 1
        assert summary["counters"] == {"engine.completed": 2.0}
        assert summary["gauges"] == {"cache.size": 1.0}
        assert summary["histograms"]["latency"]["count"] == 1

    def test_stage_share_uses_total_denominator(self, trace_records):
        summary = summarize_trace(trace_records)
        shares = {s["stage"]: s["share"] for s in summary["stages"]}
        assert shares["total"] == pytest.approx(1.0)
        assert shares["fit"] == pytest.approx(0.75)

    def test_span_groups_aggregate_counts(self, trace_records):
        summary = summarize_trace(trace_records)
        groups = {g["name"]: g for g in summary["spans"]}
        assert groups["pipeline.model_kernel"]["count"] == 2
        assert groups["sweep.run"]["count"] == 1

    def test_stages_past_total_are_labelled_wall_seconds(self):
        """Parallel worker stages can sum past 'total'; the note says they
        are wall-seconds summed over worker processes, not CPU-seconds."""
        records = build_trace_records(
            Telemetry(), stage_seconds={"fit": 10.852, "total": 3.456}
        )
        note = summarize_trace(records)["stage_note"]
        assert note.startswith("worker stages are wall-seconds summed over worker processes")
        assert "CPU" not in note
        assert f"note: {note}" in render_trace_text(summarize_trace(records))

    def test_kernels_extracted_from_span_attrs(self, trace_records):
        summary = summarize_trace(trace_records)
        assert {k["kernel"] for k in summary["kernels"]} == {"alpha", "beta"}


class TestRender:
    def test_text_includes_tables(self, trace_records):
        text = render_trace_text(summarize_trace(trace_records))
        assert "Per-stage time" in text
        assert "pipeline.model_kernel" in text
        assert "engine.completed" in text

    def test_json_is_parseable_and_schema_versioned(self, trace_records):
        payload = json.loads(render_trace_json(summarize_trace(trace_records)))
        assert payload["schema"] == SUMMARY_SCHEMA

    def test_kernel_table_cap_is_explicit(self):
        """When the per-kernel table is truncated, the cut is named -- no
        silent caps."""
        tel = Telemetry()
        for i in range(25):
            with tel.tracer.span("pipeline.model_kernel", kernel=f"k{i:02d}"):
                pass
        text = render_trace_text(summarize_trace(build_trace_records(tel)))
        assert "top 20 of 25" in text


class TestLoad:
    def test_load_from_run_dir(self, trace_records, tmp_path):
        write_trace(tmp_path / TRACE_FILENAME, trace_records)
        assert load_run_trace(tmp_path) == trace_records

    def test_missing_trace_names_the_toggle(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="--telemetry"):
            load_run_trace(tmp_path)
