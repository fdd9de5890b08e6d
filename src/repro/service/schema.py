"""Wire schema of the modeling service: versioned requests and responses.

One request carries one measurement set (an experiment payload in any of
the formats :func:`repro.experiment.io.parse_experiment` accepts) plus the
modeling parameters the batch CLI takes on its command line::

    {
      "schema": "repro.request/v1",
      "id": "req-42",                  # optional; the service assigns one
      "tenant": "team-a",              # optional; journals under tenants/
      "method": "adaptive",            # modeler spec string
      "seed": 0,                       # int; the modeling RNG seed
      "keep_going": false,             # quarantine bad kernels instead of 400
      "experiment": { ... } | "text",  # to_json_dict layout, or a string
      "format": "json"                 # string payloads: json / csv / text
    }

The response echoes the request identity and returns one entry per modeled
kernel -- the fitted function, its CV-SMAPE, and the full
:class:`~repro.modeling.pipeline.Provenance`. ``formatted`` is exactly the
line ``repro-model model`` prints for that kernel, which is what the
bit-identity tests compare.

Everything here is schema-versioned and validated up front:
:class:`RequestError` (a :class:`ValueError`) marks a payload the caller
must fix -- the transport maps it to HTTP 400.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import Mapping

from repro.experiment.experiment import Experiment
from repro.experiment.io import ExperimentFormatError, QuarantineRecord, parse_experiment
from repro.modeling.pipeline import ModelResult
from repro.modeling.registry import validate_spec
from repro.schemas import REQUEST_SCHEMA, RESPONSE_SCHEMA

DEFAULT_TENANT = "default"
DEFAULT_METHOD = "adaptive"

#: Experiment formats a string payload may declare.
_FORMATS = ("json", "csv", "text")


class RequestError(ValueError):
    """A request payload that cannot be parsed or validated (HTTP 400)."""


@dataclass(frozen=True)
class ModelingRequest:
    """One validated request, with the experiment already parsed."""

    request_id: str
    tenant: str
    method: str
    seed: int
    experiment: Experiment
    quarantined: "tuple[QuarantineRecord, ...]" = ()
    keep_going: bool = False


def parse_request(payload, request_id: "str | None" = None) -> ModelingRequest:
    """Validate one wire request into a :class:`ModelingRequest`.

    ``payload`` is the request body: ``bytes``/``str`` JSON text or an
    already-decoded dict. ``request_id`` is the fallback identity assigned
    by the service when the request names none. Every defect raises
    :class:`RequestError` with a message the caller can act on; unknown
    top-level fields are ignored for forward compatibility.
    """
    if isinstance(payload, (bytes, bytearray)):
        try:
            payload = bytes(payload).decode("utf-8")
        except UnicodeDecodeError as err:
            raise RequestError(f"request body is not valid UTF-8: {err}") from None
    if isinstance(payload, str):
        try:
            payload = json.loads(payload)
        except json.JSONDecodeError as err:
            raise RequestError(f"request body is not valid JSON: {err.msg}") from None
        except RecursionError:
            raise RequestError("request body is not valid JSON: nested too deeply") from None
    if not isinstance(payload, dict):
        raise RequestError(
            f"request must be a JSON object, got {type(payload).__name__}"
        )
    schema = payload.get("schema")
    if schema != REQUEST_SCHEMA:
        raise RequestError(
            f"unsupported request schema: found {schema!r}, supported {REQUEST_SCHEMA!r}"
        )
    rid = payload.get("id", request_id)
    if rid is None:
        rid = "request"
    if not isinstance(rid, str) or not rid:
        raise RequestError(f"request 'id' must be a non-empty string, got {rid!r}")
    tenant = payload.get("tenant", DEFAULT_TENANT)
    if not isinstance(tenant, str) or not tenant:
        raise RequestError(f"request 'tenant' must be a non-empty string, got {tenant!r}")
    method = payload.get("method", DEFAULT_METHOD)
    if not isinstance(method, str):
        raise RequestError(f"request 'method' must be a modeler spec string, got {method!r}")
    try:
        validate_spec(method)
    except (ValueError, TypeError) as err:
        raise RequestError(f"request 'method': {err}") from None
    seed = payload.get("seed", 0)
    if isinstance(seed, bool) or not isinstance(seed, int):
        # Journaled, resumable, bit-reproducible responses need a
        # deterministic integer seed -- the same constraint RunManifest
        # puts on journaled batch runs.
        raise RequestError(f"request 'seed' must be an integer, got {seed!r}")
    keep_going = payload.get("keep_going", False)
    if not isinstance(keep_going, bool):
        raise RequestError(f"request 'keep_going' must be a boolean, got {keep_going!r}")
    if "experiment" not in payload:
        raise RequestError("request is missing the 'experiment' field")
    experiment_payload = payload["experiment"]
    format = payload.get("format", "json")
    if format not in _FORMATS:
        raise RequestError(
            f"request 'format' must be one of {', '.join(_FORMATS)}, got {format!r}"
        )
    if not isinstance(experiment_payload, (dict, str)):
        raise RequestError(
            "request 'experiment' must be an experiment object or a string "
            f"payload, got {type(experiment_payload).__name__}"
        )
    try:
        experiment, quarantined = parse_experiment(
            experiment_payload,
            format=format,
            source=f"request {rid}",
            keep_going=keep_going,
        )
    except ExperimentFormatError as err:
        raise RequestError(str(err)) from None
    return ModelingRequest(
        request_id=rid,
        tenant=tenant,
        method=method,
        seed=seed,
        experiment=experiment,
        quarantined=tuple(quarantined),
        keep_going=keep_going,
    )


def build_response(
    request: ModelingRequest,
    results: "Mapping[str, ModelResult]",
    seconds: float,
) -> dict:
    """Serialize one request's modeling results into a response dict.

    Kernels are sorted by name and each carries ``formatted`` -- the exact
    line the batch CLI (``repro-model model``) prints for it -- so clients
    and tests can compare service and CLI output byte for byte.
    """
    names = list(request.experiment.parameters)
    models = []
    for kernel_name in sorted(results):
        result = results[kernel_name]
        models.append(
            {
                "kernel": kernel_name,
                "function": result.function.format(names),
                "cv_smape": result.cv_smape,
                "method": result.method,
                "seconds": result.seconds,
                "formatted": result.format(names),
                "provenance": (
                    asdict(result.provenance) if result.provenance is not None else None
                ),
            }
        )
    return {
        "schema": RESPONSE_SCHEMA,
        "id": request.request_id,
        "tenant": request.tenant,
        "method": request.method,
        "seed": request.seed,
        "status": 200,
        "models": models,
        "quarantined": [asdict(record) for record in request.quarantined],
        "seconds": seconds,
    }


def error_response(request_id: "str | None", message: str, status: int) -> dict:
    """An error outcome in the response envelope (one request's failure)."""
    return {
        "schema": RESPONSE_SCHEMA,
        "id": request_id,
        "status": int(status),
        "error": message,
    }
