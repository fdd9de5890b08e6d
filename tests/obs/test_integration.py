"""End-to-end telemetry pins: bit-identity, stage agreement, tree shape.

These are the acceptance criteria of the telemetry layer: enabling it must
not change any modeling output, the emitted trace's per-stage totals must
agree with ``SweepResult.stage_seconds`` exactly -- and with the summed
durations of each stage's spans, since a stage is a span -- and the merged
span tree must stay connected across process boundaries and resume cycles.
"""

import numpy as np
import pytest

from repro.evaluation.sweep import SweepConfig, run_sweep
from repro.obs import ENV_VAR, recording
from repro.obs import trace as obs_trace
from repro.obs.sink import read_trace
from repro.run.manifest import RunManifest

CONFIG = SweepConfig(n_params=1, noise_levels=(0.05,), n_functions=6, batch_size=3)
MODELERS = {"regression": "regression"}


def _stage_span_sums(spans) -> dict:
    """Per stage, the summed ``duration_s`` of the spans tagged with it."""
    sums: dict = {}
    for span in spans:
        stage = span["attrs"].get("stage")
        if stage is not None:
            sums[stage] = sums.get(stage, 0) + span["duration_s"]
    return sums


def _cells_equal(a, b) -> bool:
    ca, cb = a.cell(0.05, "regression"), b.cell(0.05, "regression")
    return (
        ca.functions == cb.functions
        and np.array_equal(ca.distances, cb.distances)
        and np.array_equal(ca.errors, cb.errors, equal_nan=True)
    )


@pytest.fixture
def telemetry_on(monkeypatch):
    monkeypatch.setenv(ENV_VAR, "1")


@pytest.fixture
def telemetry_off(monkeypatch):
    monkeypatch.delenv(ENV_VAR, raising=False)


class TestBitIdentity:
    def test_sweep_identical_with_telemetry_on_and_off(self, monkeypatch, tmp_path):
        monkeypatch.delenv(ENV_VAR, raising=False)
        off = run_sweep(CONFIG, MODELERS, rng=7)
        monkeypatch.setenv(ENV_VAR, "1")
        on = run_sweep(CONFIG, MODELERS, rng=7, run_dir=str(tmp_path))
        assert _cells_equal(off, on)

    def test_parallel_telemetry_identical_to_serial(self, telemetry_on, tmp_path):
        serial = run_sweep(CONFIG, MODELERS, rng=7)
        parallel = run_sweep(
            CONFIG, MODELERS, rng=7, processes=2, run_dir=str(tmp_path)
        )
        assert _cells_equal(serial, parallel)


class TestTraceArtifact:
    def test_trace_written_and_registered(self, telemetry_on, tmp_path):
        result = run_sweep(CONFIG, MODELERS, rng=1, run_dir=str(tmp_path))
        assert result.trace_path == str(tmp_path / "trace.jsonl")
        manifest = RunManifest.load(tmp_path)
        artifact = manifest.artifacts()["trace"]
        assert artifact["file"] == "trace.jsonl"
        from repro.util.artifacts import sha256_bytes

        assert artifact["sha256"] == sha256_bytes(
            (tmp_path / "trace.jsonl").read_bytes()
        )

    def test_stage_totals_agree_with_sweep_result(self, telemetry_on, tmp_path):
        result = run_sweep(CONFIG, MODELERS, rng=1, run_dir=str(tmp_path))
        records = read_trace(result.trace_path)
        stages = {r["stage"]: r["seconds"] for r in records if r["type"] == "stage"}
        assert stages == result.stage_seconds

    @pytest.mark.parametrize("processes", [1, 2])
    def test_stage_records_equal_their_span_sums(self, telemetry_on, tmp_path, processes):
        """One source: each stage record is the summed duration of that
        stage's spans, not a second measurement of the same interval."""
        result = run_sweep(
            CONFIG, MODELERS, rng=1, processes=processes, run_dir=str(tmp_path)
        )
        records = read_trace(result.trace_path)
        stages = {r["stage"]: r["seconds"] for r in records if r["type"] == "stage"}
        spans = [r for r in records if r["type"] == "span"]
        assert set(stages) == {"synthesize", "classify", "fit", "score", "total"}
        assert stages == _stage_span_sums(spans)

    def test_span_tree_is_connected(self, telemetry_on, tmp_path):
        result = run_sweep(
            CONFIG, MODELERS, rng=1, processes=2, run_dir=str(tmp_path)
        )
        spans = [r for r in read_trace(result.trace_path) if r["type"] == "span"]
        ids = {s["span_id"] for s in spans}
        roots = [s for s in spans if s["parent_id"] is None]
        assert [r["name"] for r in roots] == ["sweep.run"]
        dangling = [s for s in spans if s["parent_id"] not in ids and s["parent_id"]]
        assert dangling == []
        # worker spans kept their originating pid
        assert len({s["pid"] for s in spans}) >= 2

    def test_no_trace_without_run_dir(self, telemetry_on):
        result = run_sweep(CONFIG, MODELERS, rng=1)
        assert result.trace_path is None

    def test_no_trace_when_disabled(self, telemetry_off, tmp_path):
        result = run_sweep(CONFIG, MODELERS, rng=1, run_dir=str(tmp_path))
        assert result.trace_path is None
        assert not (tmp_path / "trace.jsonl").exists()


class TestStageScopes:
    def test_sweeps_sharing_a_session_keep_their_own_stages(self, telemetry_off):
        """Nested entry points share one telemetry session; each sweep's
        stage_seconds still covers only its own spans."""
        other = SweepConfig(n_params=1, noise_levels=(0.05,), n_functions=4, batch_size=2)
        with recording(force=True) as tel:
            first = run_sweep(CONFIG, MODELERS, rng=1)
            second = run_sweep(other, MODELERS, rng=2)
        spans = tel.tracer.export()
        parents = {s["span_id"]: s["parent_id"] for s in spans}

        def root(span_id):
            while parents[span_id] is not None:
                span_id = parents[span_id]
            return span_id

        # a root span is exported when its sweep finishes: first, then second
        roots = [s["span_id"] for s in spans if s["parent_id"] is None]
        assert len(roots) == 2
        sums = [
            _stage_span_sums([s for s in spans if root(s["span_id"]) == r]) for r in roots
        ]
        assert sums == [first.stage_seconds, second.stage_seconds]

    def test_telemetry_off_retains_no_span(self, telemetry_off, monkeypatch):
        """A serial sweep with telemetry off times its stages but leaves no
        span record in any tracer it creates, and opens no recording span."""
        created = {"tracers": [], "spans": 0}
        tracer_init, span_init = obs_trace.Tracer.__init__, obs_trace.Span.__init__

        def track_tracer(self):
            tracer_init(self)
            created["tracers"].append(self)

        def track_span(self, *args):
            span_init(self, *args)
            created["spans"] += 1

        monkeypatch.setattr(obs_trace.Tracer, "__init__", track_tracer)
        monkeypatch.setattr(obs_trace.Span, "__init__", track_span)
        result = run_sweep(CONFIG, MODELERS, rng=1, processes=1)
        assert set(result.stage_seconds) == {"synthesize", "classify", "fit", "score", "total"}
        assert all(tracer.export() == [] for tracer in created["tracers"])
        assert created["spans"] == 0
        assert obs_trace.TIMING_TRACER.export() == []


class TestResumeAcrossToggleStates:
    def test_journal_recorded_on_resumed_off(self, monkeypatch, tmp_path):
        """A journal written with telemetry on must resume cleanly with it
        off (the envelope's telemetry slot is filled), and vice versa --
        bit-identically."""
        monkeypatch.setenv(ENV_VAR, "1")
        on = run_sweep(CONFIG, MODELERS, rng=7, run_dir=str(tmp_path))
        monkeypatch.delenv(ENV_VAR, raising=False)
        resumed = run_sweep(CONFIG, MODELERS, rng=7, run_dir=str(tmp_path), resume=True)
        assert _cells_equal(on, resumed)
        assert resumed.trace_path is None

    def test_journal_recorded_off_resumed_on(self, monkeypatch, tmp_path):
        monkeypatch.delenv(ENV_VAR, raising=False)
        off = run_sweep(CONFIG, MODELERS, rng=7, run_dir=str(tmp_path))
        monkeypatch.setenv(ENV_VAR, "1")
        resumed = run_sweep(CONFIG, MODELERS, rng=7, run_dir=str(tmp_path), resume=True)
        assert _cells_equal(off, resumed)
        # replayed envelopes recorded with telemetry off carry no spans
        # (their telemetry slot is None), but the trace still exists
        assert resumed.trace_path is not None


class TestPayloadValidation:
    def test_corrupt_journaled_stage_seconds_refused(self, monkeypatch, tmp_path):
        """The journal checksum passes (valid pickle) but the payload carries
        a negative stage time: replay must fail loudly, naming the task."""
        from repro.run.manifest import RunManifestError

        monkeypatch.delenv(ENV_VAR, raising=False)
        run_sweep(CONFIG, MODELERS, rng=7, run_dir=str(tmp_path))
        manifest = RunManifest.load(tmp_path)
        payloads = manifest.completed_tasks()
        outcomes, _, telemetry = payloads[0]
        manifest.record_task(0, (outcomes, {"fit": -1.0}, telemetry))
        # a well-formed envelope: the refusal comes from the stage check
        with pytest.raises(RunManifestError, match="task 0.*stage 'fit'"):
            run_sweep(CONFIG, MODELERS, rng=7, run_dir=str(tmp_path), resume=True)
