"""The shared run lifecycle: one fixed worker envelope for every driver,
and stages timed as spans."""

import math
import time

import numpy as np
import pytest

from repro.casestudies import driver, relearn
from repro.evaluation import sweep
from repro.experiment.io import to_json_dict
from repro.obs import ENV_VAR, NULL_TELEMETRY, Telemetry, get_telemetry
from repro.regression.modeler import RegressionModeler
from repro.run.lifecycle import StageScope, merge_stage_seconds, validate_envelope
from repro.service import core
from repro.service.schema import REQUEST_SCHEMA, parse_request
from repro.testing import faults


def _sweep_worker():
    config = sweep.SweepConfig(n_params=1, noise_levels=(0.05,), n_functions=2, batch_size=2)
    sweep._init_worker(config, {"regression": RegressionModeler()})
    return sweep._run_batch(
        [(0.05, np.random.default_rng(0)), (0.05, np.random.default_rng(1))]
    )


def _casestudy_worker():
    application = relearn()
    modeling = application.modeling_experiment(application.run_campaign(0))
    driver._init_driver_worker(modeling, {"regression": RegressionModeler()})
    return driver._model_one_modeler(("regression", np.random.default_rng(1)))


def _service_worker(clean_experiment_1p):
    core._SERVICE_STATE.clear()
    payload = {
        "schema": REQUEST_SCHEMA,
        "method": "regression",
        "seed": 0,
        "experiment": to_json_dict(clean_experiment_1p),
    }
    try:
        return core._serve_group([parse_request(payload, request_id="r1")])
    finally:
        core._SERVICE_STATE.clear()


WORKERS = {
    "sweep": lambda exp: _sweep_worker(),
    "casestudy": lambda exp: _casestudy_worker(),
    "service": _service_worker,
}


class TestWorkerEnvelope:
    @pytest.mark.parametrize("telemetry", [False, True], ids=["telemetry-off", "telemetry-on"])
    @pytest.mark.parametrize("worker", sorted(WORKERS))
    def test_every_worker_returns_the_fixed_envelope(
        self, worker, telemetry, monkeypatch, clean_experiment_1p
    ):
        if telemetry:
            monkeypatch.setenv(ENV_VAR, "1")
        else:
            monkeypatch.delenv(ENV_VAR, raising=False)
        envelope = WORKERS[worker](clean_experiment_1p)
        assert type(envelope) is tuple and len(envelope) == 3
        _, stage_seconds, payload = envelope
        assert stage_seconds and all(v >= 0 for v in stage_seconds.values())
        if telemetry:
            assert set(payload) == {"spans", "metrics"} and payload["spans"]
        else:
            assert payload is None
        validate_envelope(0, envelope)


class TestValidateEnvelope:
    @pytest.mark.parametrize(
        "payload, message",
        [
            ((["outcomes"], {"fit": 1.0}), "got a 2-tuple"),
            ((["outcomes"], {"fit": 1.0}, None, None), "got a 4-tuple"),
            ([["outcomes"], {"fit": 1.0}, None], "got list"),
            ((["outcomes"], [("fit", 1.0)], None), "stage_seconds must be a dict"),
            ((["outcomes"], {"fit": -1.0}, None), "stage 'fit'"),
            ((["outcomes"], {"fit": math.nan}, None), "stage 'fit'"),
            ((["outcomes"], {"fit": 1.0}, "spans"), "telemetry must be"),
        ],
    )
    def test_malformed_envelopes_refused(self, payload, message):
        with pytest.raises(ValueError, match=message):
            validate_envelope(0, payload)

    def test_well_formed_envelopes_pass(self):
        validate_envelope(0, ([], {}, None))
        validate_envelope(0, ([], {"fit": 0.5}, {"spans": [], "metrics": {}}))


class TestStageScope:
    def test_stage_accumulates_per_name(self):
        scope = StageScope(NULL_TELEMETRY)
        for name in ("fit", "select", "fit"):
            with scope.stage(name, f"batch.{name}"):
                pass
        assert set(scope.stage_seconds) == {"fit", "select"}
        assert all(seconds >= 0.0 for seconds in scope.stage_seconds.values())

    def test_stage_measures_body_duration(self):
        scope = StageScope(NULL_TELEMETRY)
        with scope.stage("fit", "batch.fit"):
            time.sleep(0.01)
        assert scope.stage_seconds["fit"] >= 0.009

    def test_stage_accumulates_across_intervals(self):
        scope = StageScope(NULL_TELEMETRY)
        with scope.stage("fit", "batch.fit"):
            pass
        first = scope.stage_seconds["fit"]
        with scope.stage("fit", "batch.fit"):
            time.sleep(0.002)
        assert scope.stage_seconds["fit"] >= first + 0.0019

    @pytest.mark.parametrize("recording", [False, True], ids=["telemetry-off", "telemetry-on"])
    def test_stage_accumulates_when_body_raises(self, recording):
        tel = Telemetry() if recording else NULL_TELEMETRY
        scope = StageScope(tel)
        with pytest.raises(ValueError, match="boom"):
            with scope.stage("fit", "batch.fit"):
                time.sleep(0.005)
                raise ValueError("boom")
        assert scope.stage_seconds["fit"] >= 0.004
        if recording:
            (record,) = tel.tracer.export()
            assert record["duration_s"] == scope.stage_seconds["fit"]

    @pytest.mark.parametrize("recording", [False, True], ids=["telemetry-off", "telemetry-on"])
    def test_injected_fault_propagates_untouched(self, recording):
        """A fault firing inside a stage propagates as itself; the stage
        still records its elapsed time, and so does its span."""
        tel = Telemetry() if recording else NULL_TELEMETRY
        scope = StageScope(tel)
        faults.activate("stage.body:raise@1")
        try:
            with pytest.raises(faults.InjectedFault):
                with scope.stage("fit", "batch.fit"):
                    faults.fault_point("stage.body")
        finally:
            faults.deactivate()
        assert scope.stage_seconds["fit"] >= 0.0
        if recording:
            (record,) = tel.tracer.export()
            assert (record["name"], record["attrs"]) == ("batch.fit", {"stage": "fit"})
            assert record["error"] == "InjectedFault"
            # one measurement: the stage's seconds are the span's duration
            assert record["duration_s"] == scope.stage_seconds["fit"]

    def test_telemetry_off_pushes_no_session(self):
        scope = StageScope(NULL_TELEMETRY)
        with scope.stage("fit", "batch.fit"):
            # the timing tracer is never pushed: fine-grained spans stay free
            assert get_telemetry() is NULL_TELEMETRY
        assert scope.stage_seconds["fit"] >= 0.0

    def test_merge_adds(self):
        into = {"fit": 1.0}
        merge_stage_seconds(into, {"fit": 0.5, "select": 0.25})
        assert into == {"fit": 1.5, "select": 0.25}

    def test_merge_rejects_negative(self):
        into: "dict[str, float]" = {}
        with pytest.raises(ValueError, match="'fit'"):
            merge_stage_seconds(into, {"fit": -0.5})
        assert into == {}

    @pytest.mark.parametrize("bad", [float("nan"), -1.0])
    def test_merge_rejects_corrupt_values_naming_stage(self, bad):
        into = {"fit": 1.0}
        with pytest.raises(ValueError, match="'select'"):
            merge_stage_seconds(into, {"fit": 0.5, "select": bad})
        # a rejected merge applies nothing, not even its valid stages
        assert into == {"fit": 1.0}
