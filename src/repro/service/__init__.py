"""Modeling-as-a-service: the long-lived front end over the batch pipeline.

Layers (each importable on its own):

* :mod:`repro.service.schema` -- the versioned wire format
  (``repro.request/v1`` / ``repro.response/v1``) and request validation;
* :mod:`repro.service.core` -- queue, batching dispatcher, warm
  :class:`~repro.parallel.engine.EngineSession`, per-tenant journals,
  backpressure, live telemetry;
* :mod:`repro.service.http` -- localhost-HTTP and unix-socket transports;
* :mod:`repro.service.client` -- the stdlib-only client
  (:class:`~repro.service.client.ServiceClient`), importable without the
  modeling stack.

Start a service from Python::

    from repro.service import ModelingService, ServiceConfig, serve_unix, start_server

    with ModelingService(ServiceConfig(run_dir="runs/svc")) as service:
        server = serve_unix(service, "/tmp/repro.sock")
        start_server(server)
        ...
        server.shutdown()

or from the CLI: ``repro-model serve --socket /tmp/repro.sock``.
"""

from repro.service.core import (
    ModelingService,
    ServiceBusy,
    ServiceClosed,
    ServiceConfig,
)
from repro.service.http import (
    serve_http,
    serve_unix,
    start_server,
)
from repro.service.schema import (
    REQUEST_SCHEMA,
    RESPONSE_SCHEMA,
    ModelingRequest,
    RequestError,
    build_response,
    error_response,
    parse_request,
)

__all__ = [
    "ModelingService",
    "ServiceBusy",
    "ServiceClosed",
    "ServiceConfig",
    "serve_http",
    "serve_unix",
    "start_server",
    "REQUEST_SCHEMA",
    "RESPONSE_SCHEMA",
    "ModelingRequest",
    "RequestError",
    "build_response",
    "error_response",
    "parse_request",
]
