"""REST API layer.

``repro.api.v1`` is the versioned northbound surface; it runs on the
in-process router in ``repro.api.rest`` over one
:class:`~repro.api.service.SliceService` facade.
"""

from repro.api.rest import ApiError, Request, Response, RestApi
from repro.api.schemas import ValidationError, error_body, error_response
from repro.api.service import Conflict, NotFound, ServiceError, SliceService
from repro.api.v1 import build_orchestrator_api, build_v1_api

__all__ = [
    "ApiError",
    "Conflict",
    "NotFound",
    "Request",
    "Response",
    "RestApi",
    "ServiceError",
    "SliceService",
    "ValidationError",
    "build_orchestrator_api",
    "build_v1_api",
    "error_body",
    "error_response",
]
