"""Tests for the in-process REST router."""

from __future__ import annotations

import pytest

from repro.api.rest import ApiError, Response, RestApi


@pytest.fixture
def api():
    router = RestApi()
    router.route("GET", "/things", lambda request: {"things": []})
    router.route(
        "GET", "/things/{thing_id}", lambda request: {"id": request.params["thing_id"]}
    )
    router.route(
        "POST",
        "/things",
        lambda request: Response(status=201, body={"created": request.body}),
    )
    return router


def test_static_route(api):
    response = api.get("/things")
    assert response.ok
    assert response.body == {"things": []}


def test_path_params_extracted(api):
    response = api.get("/things/42")
    assert response.body == {"id": "42"}


def test_post_with_body(api):
    response = api.post("/things", body={"name": "x"})
    assert response.status == 201
    assert response.body == {"created": {"name": "x"}}


def test_404_on_unknown_path(api):
    response = api.get("/nope")
    assert response.status == 404
    assert response.body == {"error": {"code": "not_found", "message": "no route for /nope"}}


def test_405_on_wrong_method(api):
    response = api.delete("/things")
    assert response.status == 405
    assert response.body == {
        "error": {"code": "method_not_allowed", "message": "method DELETE not allowed"}
    }


def test_handler_exception_becomes_500(api):
    def boom(request):
        raise RuntimeError("kaput")

    api.route("GET", "/boom", boom)
    response = api.get("/boom")
    assert response.status == 500
    assert response.body == {"error": {"code": "internal_error", "message": "kaput"}}


def test_duplicate_route_rejected(api):
    with pytest.raises(ApiError):
        api.route("GET", "/things", lambda request: {})


def test_template_must_start_with_slash():
    with pytest.raises(ApiError):
        RestApi().route("GET", "things", lambda request: {})


def test_routes_listing(api):
    assert "GET /things" in api.routes()
    assert "POST /things" in api.routes()


def test_response_json_serialization():
    response = Response(status=200, body={"b": 2, "a": 1})
    assert response.json() == '{"a": 1, "b": 2}'


def test_response_json_robust_to_numpy():
    """Numpy scalars/arrays leak out of orchestrator snapshots and
    domain utilization dicts; Response.json() must coerce them."""
    import json

    import numpy as np

    response = Response(
        status=200,
        body={
            "int": np.int64(3),
            "float": np.float32(1.5),
            "bool": np.bool_(True),
            "array": np.array([1.0, 2.0]),
            "nested": {"more": [np.int32(7)]},
        },
    )
    decoded = json.loads(response.json())
    assert decoded == {
        "int": 3,
        "float": 1.5,
        "bool": True,
        "array": [1.0, 2.0],
        "nested": {"more": [7]},
    }


def test_response_json_still_rejects_unserializable():
    import pytest as _pytest

    with _pytest.raises(TypeError):
        Response(status=200, body={"x": object()}).json()


def test_param_does_not_match_across_segments(api):
    assert api.get("/things/1/extra").status == 404


def test_query_string_parsed(api):
    def echo_query(request):
        return {"query": request.query}

    api.route("GET", "/echo", echo_query)
    response = api.get("/echo?a=1&b=two&empty=")
    assert response.body == {"query": {"a": "1", "b": "two", "empty": ""}}


def test_query_string_does_not_break_routing(api):
    assert api.get("/things/42?verbose=1").body == {"id": "42"}


def test_headers_case_insensitive(api):
    def echo_tenant(request):
        return {"tenant": request.header("X-Tenant-Id")}

    api.route("GET", "/whoami", echo_tenant)
    response = api.get("/whoami", headers={"X-TENANT-ID": "alpha"})
    assert response.body == {"tenant": "alpha"}
    assert api.get("/whoami").body == {"tenant": None}


@pytest.mark.parametrize("literal_first", [True, False])
def test_overlapping_literal_and_parameterised_first_registered_wins(literal_first):
    """``/things/all`` fits both templates; whichever was registered
    first answers, whether it is looked up or pattern-matched."""
    literal = ("GET", "/things/all", lambda request: {"via": "literal"})
    pattern = ("GET", "/things/{thing_id}", lambda request: {"via": request.params})
    router = RestApi()
    for route in (literal, pattern) if literal_first else (pattern, literal):
        router.route(*route)
    router.route("DELETE", "/things/all", lambda request: {"via": "delete-all"})
    expected = "literal" if literal_first else {"thing_id": "all"}
    assert router.get("/things/all").body == {"via": expected}
    assert router.get("/things/other").body == {"via": {"thing_id": "other"}}
    # The method decides among the templates that fit the path...
    assert router.delete("/things/all").body == {"via": "delete-all"}
    # ...and 405 (a template fits, no method does) stays apart from 404.
    assert router.post("/things/all").status == 405
    assert router.delete("/things/other").status == 405
    missing = router.get("/nothing/here")
    assert missing.status == 404 and missing.body["error"]["code"] == "not_found"
    assert router.post("/things/all").body["error"]["code"] == "method_not_allowed"
    assert router.routes() == [
        f"{method} {template}"
        for method, template, _ in ((literal, pattern) if literal_first else (pattern, literal))
    ] + ["DELETE /things/all"]


def test_template_with_regex_syntax_is_still_matched_as_a_pattern():
    router = RestApi()
    router.route("GET", "/v1.0/ping", lambda request: {"pong": True})
    assert router.get("/v1.0/ping").ok
    assert router.get("/v1x0/ping").ok  # '.' has always been a wildcard here
