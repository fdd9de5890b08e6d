"""Wire-schema validation: every malformed request names its defect."""

import json

import pytest

from repro.experiment.io import to_json_dict
from repro.service.schema import (
    REQUEST_SCHEMA,
    RESPONSE_SCHEMA,
    RequestError,
    build_response,
    error_response,
    parse_request,
)


def _payload(exp, **overrides):
    body = {"schema": REQUEST_SCHEMA, "experiment": to_json_dict(exp)}
    body.update(overrides)
    return body


class TestParseRequest:
    def test_full_round_trip(self, clean_experiment_1p):
        request = parse_request(
            _payload(
                clean_experiment_1p,
                id="req-1",
                tenant="team-a",
                method="regression",
                seed=7,
            )
        )
        assert request.request_id == "req-1"
        assert request.tenant == "team-a"
        assert request.method == "regression"
        assert request.seed == 7
        assert [k.name for k in request.experiment.kernels] == ["synthetic"]

    def test_accepts_bytes_str_and_dict(self, clean_experiment_1p):
        body = _payload(clean_experiment_1p)
        from_dict = parse_request(body)
        from_str = parse_request(json.dumps(body))
        from_bytes = parse_request(json.dumps(body).encode("utf-8"))
        assert (
            from_dict.experiment.kernels[0].name
            == from_str.experiment.kernels[0].name
            == from_bytes.experiment.kernels[0].name
        )

    def test_defaults(self, clean_experiment_1p):
        request = parse_request(_payload(clean_experiment_1p), request_id="assigned")
        assert request.request_id == "assigned"
        assert request.tenant == "default"
        assert request.method == "adaptive"
        assert request.seed == 0
        assert request.keep_going is False

    def test_string_experiment_payload_with_format(self, clean_experiment_1p):
        text = json.dumps(to_json_dict(clean_experiment_1p))
        request = parse_request(
            _payload(clean_experiment_1p, experiment=text, format="json")
        )
        assert request.experiment.kernels[0].name == "synthetic"

    @pytest.mark.parametrize(
        "mutation, fragment",
        [
            # repro-lint: disable-next-line=SCHEMA001X -- deliberately-invalid
            # version: this case proves the parser rejects unknown schemas.
            ({"schema": "repro.request/v0"}, "unsupported request schema"),
            ({"id": ""}, "'id' must be a non-empty string"),
            ({"tenant": 7}, "'tenant' must be a non-empty string"),
            ({"method": "no-such-modeler"}, "request 'method'"),
            ({"seed": "zero"}, "'seed' must be an integer"),
            ({"seed": True}, "'seed' must be an integer"),
            ({"keep_going": "yes"}, "'keep_going' must be a boolean"),
            ({"format": "xml"}, "'format' must be one of"),
            ({"experiment": 42}, "'experiment' must be an experiment object"),
        ],
    )
    def test_field_defects_are_named(self, clean_experiment_1p, mutation, fragment):
        with pytest.raises(RequestError) as err:
            parse_request(_payload(clean_experiment_1p, **mutation))
        assert fragment in str(err.value)

    def test_missing_experiment_field(self):
        with pytest.raises(RequestError, match="missing the 'experiment' field"):
            parse_request({"schema": REQUEST_SCHEMA})

    def test_invalid_json_and_utf8(self):
        with pytest.raises(RequestError, match="not valid JSON"):
            parse_request("{nope")
        with pytest.raises(RequestError, match="not valid UTF-8"):
            parse_request(b"\xff\xfe{}")
        with pytest.raises(RequestError, match="must be a JSON object"):
            parse_request("[1, 2]")
        with pytest.raises(RequestError, match="nested too deeply"):
            parse_request("[" * 100_000 + "]" * 100_000)

    def test_bad_experiment_names_the_request(self, clean_experiment_1p):
        broken = to_json_dict(clean_experiment_1p)
        del broken["parameters"]
        with pytest.raises(RequestError, match="request req-9"):
            parse_request(_payload(clean_experiment_1p, id="req-9", experiment=broken))


class TestResponses:
    def test_build_response_formats_cli_lines(self, clean_experiment_1p):
        from repro.modeling.registry import create_modeler

        request = parse_request(
            _payload(clean_experiment_1p, id="r", method="regression")
        )
        modeler = create_modeler("regression")
        results = modeler.model_experiment(request.experiment, rng=request.seed)
        response = build_response(request, results, 0.5)
        assert response["schema"] == RESPONSE_SCHEMA
        assert response["status"] == 200
        names = list(request.experiment.parameters)
        assert [m["formatted"] for m in response["models"]] == [
            results[k].format(names) for k in sorted(results)
        ]
        assert response["models"][0]["provenance"]["engine"]
        # The whole envelope is JSON-able (it crosses the wire).
        json.dumps(response)

    def test_error_response_shape(self):
        response = error_response("req-1", "boom", 422)
        assert response == {
            "schema": RESPONSE_SCHEMA,
            "id": "req-1",
            "status": 422,
            "error": "boom",
        }
