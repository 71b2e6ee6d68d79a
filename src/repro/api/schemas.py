"""Declarative request/response schemas for the v1 northbound API.

Every v1 handler validates its input through a :class:`Schema` instead
of hand-rolled ``body.get``/``float(...)`` checks.  Validation failures
raise :class:`ValidationError`, which the API layer renders as the
structured error envelope::

    {"error": {"code": "invalid_type", "message": "...", "field": "price"}}

Error codes are stable API surface (documented in ``docs/API.md``):

- ``invalid_body`` — the request body is not a JSON object,
- ``missing_field`` — one or more required fields are absent,
- ``invalid_type`` — a field failed coercion to its declared type,
- ``invalid_value`` — a field is the right type but out of range /
  not one of the allowed choices,
- ``invalid_parameter`` — a query parameter failed validation,
- ``not_found`` / ``conflict`` / ``admission_rejected`` /
  ``internal_error`` — service-layer failures (see ``api/service.py``).

Unknown body fields are ignored (forward compatibility), mirroring how
versioned NBIs tolerate newer clients.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace
from typing import Any, Dict, Optional, Tuple, Type

from repro.api.rest import Response, error_body
from repro.core.slices import ServiceType


class ValidationError(Exception):
    """A request failed schema validation.

    Attributes:
        code: Stable machine-readable error code.
        message: Human-readable explanation.
        field: Offending field name (None for body-level errors).
    """

    def __init__(self, code: str, message: str, field: Optional[str] = None) -> None:
        super().__init__(message)
        self.code = code
        self.message = message
        self.field = field

    def envelope(self) -> dict:
        """The structured error body."""
        return error_body(self.code, self.message, self.field)

    def to_response(self, status: int = 400) -> Response:
        """Render as an API response."""
        return Response(status=status, body=self.envelope())


def error_response(
    status: int, code: str, message: str, field: Optional[str] = None
) -> Response:
    """Build an error :class:`Response` carrying the envelope."""
    return Response(status=status, body=error_body(code, message, field))


@dataclass(frozen=True)
class Field:
    """One declared field of a request schema.

    Attributes:
        name: JSON key.
        kind: ``"float" | "int" | "str" | "enum"``.
        required: Whether absence is an error.
        default: Value used when the field is absent (optional fields).
        minimum: Inclusive lower bound (numeric kinds).
        exclusive_minimum: Exclusive lower bound (numeric kinds).
        maximum: Inclusive upper bound (numeric kinds).
        enum_type: Enum class coerced into for ``kind="enum"``.
        doc: One-line description (surfaced in docs/tests).
    """

    name: str
    kind: str = "str"
    required: bool = True
    default: Any = None
    minimum: Optional[float] = None
    exclusive_minimum: Optional[float] = None
    maximum: Optional[float] = None
    enum_type: Optional[Type[enum.Enum]] = None
    doc: str = ""

    def coerce(self, value: Any) -> Any:
        """Coerce ``value`` to this field's type.

        Raises:
            ValidationError: On type or range failure.
        """
        if self.kind in ("float", "int") and isinstance(value, bool):
            raise ValidationError(
                "invalid_type",
                f"{self.name} must be a number, got a boolean",
                field=self.name,
            )
        if self.kind == "float":
            try:
                coerced: Any = float(value)
            except (TypeError, ValueError):
                raise ValidationError(
                    "invalid_type",
                    f"{self.name} must be a number, got {value!r}",
                    field=self.name,
                ) from None
            if not math.isfinite(coerced):
                raise ValidationError(
                    "invalid_value",
                    f"{self.name} must be finite, got {coerced}",
                    field=self.name,
                )
        elif self.kind == "int":
            try:
                as_float = float(value)
            except (TypeError, ValueError):
                raise ValidationError(
                    "invalid_type",
                    f"{self.name} must be an integer, got {value!r}",
                    field=self.name,
                ) from None
            if not math.isfinite(as_float):
                raise ValidationError(
                    "invalid_value",
                    f"{self.name} must be finite, got {as_float}",
                    field=self.name,
                )
            if as_float != int(as_float):
                raise ValidationError(
                    "invalid_type",
                    f"{self.name} must be an integer, got {value!r}",
                    field=self.name,
                )
            coerced = int(as_float)
        elif self.kind == "str":
            if not isinstance(value, str):
                raise ValidationError(
                    "invalid_type",
                    f"{self.name} must be a string, got {type(value).__name__}",
                    field=self.name,
                )
            coerced = value
        elif self.kind == "enum":
            assert self.enum_type is not None
            try:
                coerced = self.enum_type(value)
            except ValueError:
                valid = [member.value for member in self.enum_type]
                raise ValidationError(
                    "invalid_value",
                    f"unknown {self.name} {value!r}; valid: {valid}",
                    field=self.name,
                ) from None
        else:  # pragma: no cover - schema author error
            raise ValidationError(
                "invalid_type", f"unknown field kind {self.kind!r}", field=self.name
            )
        self._check_range(coerced)
        return coerced

    def _check_range(self, value: Any) -> None:
        if self.kind not in ("float", "int"):
            return
        if self.exclusive_minimum is not None and value <= self.exclusive_minimum:
            raise ValidationError(
                "invalid_value",
                f"{self.name} must be > {self.exclusive_minimum}, got {value}",
                field=self.name,
            )
        if self.minimum is not None and value < self.minimum:
            raise ValidationError(
                "invalid_value",
                f"{self.name} must be >= {self.minimum}, got {value}",
                field=self.name,
            )
        if self.maximum is not None and value > self.maximum:
            raise ValidationError(
                "invalid_value",
                f"{self.name} must be <= {self.maximum}, got {value}",
                field=self.name,
            )


class Schema:
    """A named, ordered set of :class:`Field` declarations."""

    def __init__(self, name: str, fields: Tuple[Field, ...]) -> None:
        self.name = name
        self.fields = fields
        seen = set()
        for spec in fields:
            if spec.name in seen:
                raise ValueError(f"{name}: duplicate field {spec.name}")
            seen.add(spec.name)

    def parse(self, body: Optional[dict]) -> Dict[str, Any]:
        """Validate and coerce ``body``.

        Returns a dict holding every declared field (defaults applied).

        Raises:
            ValidationError: On the first failure; all missing required
                fields are reported together.
        """
        if body is None:
            body = {}
        if not isinstance(body, dict):
            raise ValidationError(
                "invalid_body", f"request body must be a JSON object, got {type(body).__name__}"
            )
        missing = [f.name for f in self.fields if f.required and f.name not in body]
        if missing:
            raise ValidationError(
                "missing_field", f"missing fields: {missing}", field=missing[0]
            )
        parsed: Dict[str, Any] = {}
        for spec in self.fields:
            if spec.name not in body:
                parsed[spec.name] = spec.default
                continue
            parsed[spec.name] = spec.coerce(body[spec.name])
        return parsed


#: ``POST /v1/slices`` — the dashboard's input fields plus tenancy knobs.
SLICE_CREATE = Schema(
    "SliceCreate",
    (
        Field("service_type", kind="enum", enum_type=ServiceType,
              doc="Service archetype (embb|urllc|mmtc|automotive|ehealth)."),
        Field("throughput_mbps", kind="float", exclusive_minimum=0.0,
              doc="Expected downlink throughput."),
        Field("max_latency_ms", kind="float", exclusive_minimum=0.0,
              doc="End-to-end latency bound."),
        Field("duration_s", kind="float", exclusive_minimum=0.0,
              doc="Requested slice lifetime."),
        Field("price", kind="float", minimum=0.0,
              doc="One-off revenue if admitted."),
        Field("penalty_rate", kind="float", minimum=0.0,
              doc="Money forfeited per SLA-violation epoch."),
        Field("availability", kind="float", required=False, default=0.95,
              exclusive_minimum=0.0, maximum=1.0,
              doc="Fraction of epochs that must meet the throughput target."),
        Field("tenant_id", kind="str", required=False, default=None,
              doc="Requesting tenant (X-Tenant-Id header takes precedence)."),
        Field("n_users", kind="int", required=False, default=10,
              exclusive_minimum=0, doc="Expected UE population."),
    ),
)

#: ``POST /v1/bookings`` — advance reservation: exactly a slice create
#: plus the future start instant checked against the resource calendar
#: (composed from ``SLICE_CREATE`` so the two surfaces cannot drift).
BOOKING_CREATE = Schema(
    "BookingCreate",
    SLICE_CREATE.fields + (
        Field("start_time", kind="float", minimum=0.0,
              doc="Simulation instant the slice should activate (future)."),
    ),
)

#: ``PATCH /v1/slices/{slice_id}`` — throughput rescale.
SLICE_MODIFY = Schema(
    "SliceModify",
    (
        Field("throughput_mbps", kind="float", exclusive_minimum=0.0,
              doc="New throughput SLA."),
    ),
)

#: ``POST /v1/whatif`` — non-committal feasibility probe: a slice create
#: whose money terms may be left out (composed from ``SLICE_CREATE`` so
#: the probe and the create it previews cannot drift).
WHAT_IF = Schema(
    "WhatIf",
    tuple(
        replace(spec, required=False, default=0.0)
        if spec.name in ("price", "penalty_rate")
        else spec
        for spec in SLICE_CREATE.fields
    ),
)


def parse_int_param(
    query: Dict[str, str],
    name: str,
    default: int,
    minimum: int = 0,
    maximum: Optional[int] = None,
) -> int:
    """Parse an integer query parameter with bounds.

    Raises:
        ValidationError: code ``invalid_parameter`` on failure.
    """
    raw = query.get(name)
    if raw is None or raw == "":
        return default
    try:
        value = int(raw)
    except ValueError:
        raise ValidationError(
            "invalid_parameter", f"{name} must be an integer, got {raw!r}", field=name
        ) from None
    if value < minimum:
        raise ValidationError(
            "invalid_parameter", f"{name} must be >= {minimum}, got {value}", field=name
        )
    if maximum is not None and value > maximum:
        value = maximum
    return value


#: Accepted spellings for boolean query parameters.
_BOOL_TRUE = ("1", "true", "yes", "on")
_BOOL_FALSE = ("0", "false", "no", "off")


def parse_bool_param(
    query: Dict[str, str], name: str, default: bool = False
) -> bool:
    """Parse a boolean query parameter (``?slow=true``).

    Raises:
        ValidationError: code ``invalid_parameter`` on an unrecognized
            spelling.
    """
    raw = query.get(name)
    if raw is None or raw == "":
        return default
    lowered = raw.strip().lower()
    if lowered in _BOOL_TRUE:
        return True
    if lowered in _BOOL_FALSE:
        return False
    raise ValidationError(
        "invalid_parameter",
        f"{name} must be a boolean "
        f"({'/'.join(_BOOL_TRUE)} or {'/'.join(_BOOL_FALSE)}), got {raw!r}",
        field=name,
    )


def parse_pagination(
    query: Dict[str, str], default_limit: int = 50, max_limit: int = 500
) -> Tuple[int, int]:
    """Parse ``offset``/``limit`` query parameters.

    ``limit`` is clamped to ``max_limit``; bad values raise
    :class:`ValidationError` (code ``invalid_parameter``).
    """
    offset = parse_int_param(query, "offset", default=0, minimum=0)
    limit = parse_int_param(
        query, "limit", default=default_limit, minimum=1, maximum=max_limit
    )
    return offset, limit


__all__ = [
    "BOOKING_CREATE",
    "Field",
    "SLICE_CREATE",
    "SLICE_MODIFY",
    "Schema",
    "ValidationError",
    "WHAT_IF",
    "error_body",
    "error_response",
    "parse_bool_param",
    "parse_int_param",
    "parse_pagination",
]
