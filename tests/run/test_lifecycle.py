"""The shared run lifecycle: one fixed worker envelope for every driver."""

import math

import numpy as np
import pytest

from repro.casestudies import driver, relearn
from repro.evaluation import sweep
from repro.experiment.io import to_json_dict
from repro.obs import ENV_VAR
from repro.regression.modeler import RegressionModeler
from repro.run.lifecycle import validate_envelope
from repro.service import core
from repro.service.schema import REQUEST_SCHEMA, parse_request


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
