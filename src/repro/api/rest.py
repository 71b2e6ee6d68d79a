"""In-process REST router.

Routes are ``(method, path-template)`` pairs; templates may contain
``{param}`` segments which are extracted into ``Request.params``.
Concrete paths may carry a query string (``/v1/slices?limit=10``) which
is parsed into ``Request.query``, and callers may attach headers
(``X-Tenant-Id``) which arrive case-insensitively in ``Request.headers``.
``dispatch`` parses once and ``handle`` routes the parsed
:class:`Request`; the sharded router hands a shard the request it
parsed (``handle``).  Handlers return a :class:`Response`
(or a plain dict, auto-wrapped as 200).  All bodies are JSON-serializable
dicts — the same contract a real REST deployment would enforce; numpy
scalars/arrays that leak out of domain telemetry are coerced by the
serializer rather than crashing it.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple
from urllib.parse import parse_qsl, urlsplit

from repro.store.codec import json_default


class ApiError(RuntimeError):
    """Raised for router misconfiguration (not for 4xx/5xx responses)."""


@dataclass
class Request:
    """An API request.

    Attributes:
        method: HTTP verb, upper-case.
        path: Concrete path without the query string,
            e.g. ``"/slices/slice-000001"``.
        body: JSON body (dict) or None.
        params: Path parameters extracted from the template.
        query: Query-string parameters (last value wins on repeats).
        headers: Request headers, keys lower-cased.
    """

    method: str
    path: str
    body: Optional[dict] = None
    params: Dict[str, str] = field(default_factory=dict)
    query: Dict[str, str] = field(default_factory=dict)
    headers: Dict[str, str] = field(default_factory=dict)

    def header(self, name: str, default: Optional[str] = None) -> Optional[str]:
        """Case-insensitive header lookup."""
        return self.headers.get(name.lower(), default)


@dataclass
class Response:
    """An API response with status code and JSON body.

    Non-JSON endpoints (the Prometheus exposition at ``GET
    /v1/admin/metrics``) set ``text`` and ``content_type`` instead of
    ``body``; JSON consumers are unaffected — ``json()`` still
    serializes ``body``.
    """

    status: int
    body: dict = field(default_factory=dict)
    text: Optional[str] = None
    content_type: str = "application/json"

    @property
    def ok(self) -> bool:
        """Whether the status is 2xx."""
        return 200 <= self.status < 300

    def json(self) -> str:
        """Serialized body — proves everything we return is JSON-safe.

        Numpy scalars and arrays (which leak out of orchestrator
        snapshots and domain utilization dicts) are coerced to their
        Python equivalents instead of raising ``TypeError``.
        """
        return json.dumps(self.body, sort_keys=True, default=json_default)


Handler = Callable[[Request], "Response | dict"]

_PARAM_RE = re.compile(r"\{([a-zA-Z_][a-zA-Z0-9_]*)\}")


def error_body(code: str, message: str, field: Optional[str] = None) -> dict:
    """Build the v1 structured error envelope."""
    error: Dict[str, Any] = {"code": code, "message": message}
    if field is not None:
        error["field"] = field
    return {"error": error}


class RestApi:
    """Minimal in-process REST router.

    Errors the router makes itself (no route, wrong method, handler
    crash) carry the v1 envelope ``{"error": {"code": ..., "message":
    ...}}``, as every handler's own 4xx/5xx does.
    """

    def __init__(self) -> None:
        self._routes: List[Tuple[str, re.Pattern, str, Handler]] = []
        # Positions in ``_routes``: exact-path templates by path, and the rest.
        self._literal: Dict[str, List[int]] = {}
        self._patterned: List[int] = []
        #: literal path → route indices to try; built by the first handle() after a route().
        self._table: Optional[Dict[str, List[int]]] = None

    def route(self, method: str, template: str, handler: Handler) -> None:
        """Register a handler for ``method template``.

        Raises:
            ApiError: On duplicate registration.
        """
        method = method.upper()
        pattern = self._compile(template)
        for m, p, t, _ in self._routes:
            if m == method and t == template:
                raise ApiError(f"duplicate route {method} {template}")
        if re.escape(template) == template:  # no parameter, no regex syntax
            self._literal.setdefault(template, []).append(len(self._routes))
        else:
            self._patterned.append(len(self._routes))
        self._routes.append((method, pattern, template, handler))
        self._table = None

    @staticmethod
    def _compile(template: str) -> re.Pattern:
        if not template.startswith("/"):
            raise ApiError(f"route template must start with '/', got {template!r}")
        regex = _PARAM_RE.sub(lambda m: f"(?P<{m.group(1)}>[^/]+)", template)
        return re.compile(f"^{regex}$")

    def dispatch(
        self,
        method: str,
        path: str,
        body: Optional[dict] = None,
        headers: Optional[Dict[str, str]] = None,
    ) -> Response:
        """Parse a request (path, query string, headers) and :meth:`handle` it."""
        split = urlsplit(path)
        return self.handle(Request(
            method.upper(), split.path, body,
            query=dict(parse_qsl(split.query, keep_blank_values=True)),
            headers={str(k).lower(): str(v) for k, v in (headers or {}).items()},
        ))

    def handle(self, request: Request) -> Response:
        """Route a parsed request; returns 404/405 responses instead of raising."""
        table = self._table
        if table is None:
            # One index list per literal path, in registration order
            # (first wins): its own routes and every patterned one.
            table = self._table = {
                path: sorted(indices + self._patterned)
                for path, indices in self._literal.items()
            }
        path, method = request.path, request.method
        path_matched = False
        for index in table.get(path, self._patterned):
            m, pattern, _, handler = self._routes[index]
            match = pattern.match(path)
            if match is None:
                continue
            path_matched = True
            if m != method:
                continue
            request.params = match.groupdict()
            try:
                result = handler(request)
            except Exception as exc:  # handler bug → 500, never crash the caller
                return Response(status=500, body=error_body("internal_error", str(exc)))
            if isinstance(result, Response):
                return result
            return Response(status=200, body=result)
        if path_matched:
            return Response(
                status=405,
                body=error_body("method_not_allowed", f"method {method} not allowed"),
            )
        return Response(status=404, body=error_body("not_found", f"no route for {path}"))

    # Convenience verbs -------------------------------------------------
    def get(self, path: str, headers: Optional[Dict[str, str]] = None) -> Response:
        """Dispatch a GET."""
        return self.dispatch("GET", path, headers=headers)

    def post(
        self,
        path: str,
        body: Optional[dict] = None,
        headers: Optional[Dict[str, str]] = None,
    ) -> Response:
        """Dispatch a POST."""
        return self.dispatch("POST", path, body, headers=headers)

    def patch(
        self,
        path: str,
        body: Optional[dict] = None,
        headers: Optional[Dict[str, str]] = None,
    ) -> Response:
        """Dispatch a PATCH."""
        return self.dispatch("PATCH", path, body, headers=headers)

    def delete(self, path: str, headers: Optional[Dict[str, str]] = None) -> Response:
        """Dispatch a DELETE."""
        return self.dispatch("DELETE", path, headers=headers)

    def routes(self) -> List[str]:
        """Human-readable route list."""
        return [f"{m} {t}" for m, _, t, _ in self._routes]


__all__ = ["ApiError", "Handler", "Request", "Response", "RestApi"]
