"""The router hands a shard the request it parsed.

``ShardRouter`` forwards a tenant-affine or detail call with
``shard.api.handle(request)``.  The oracle is what it did before: re-encode
the parsed query with ``urlencode`` and let the shard's ``dispatch`` parse
the URL again.  A shard handler must see the same method, path, query,
headers, body and path parameters either way.  The route table must keep
first-registered-wins and the router's 404/405 answers.
"""

from __future__ import annotations

from urllib.parse import urlencode

import pytest

from repro.api.rest import Request, RestApi
from repro.cluster import ShardRouter
from repro.cluster.ring import HashRing

SHARD_ROUTES = (
    ("POST", "/v1/slices"),
    ("GET", "/v1/slices/{slice_id}"),
    ("PATCH", "/v1/slices/{slice_id}"),
    ("DELETE", "/v1/slices/{slice_id}"),
    ("GET", "/v1/domains/{domain}"),
)


class RecordingShard:
    """A shard whose v1 handlers record what they were handed."""

    def __init__(self, shard_id: int) -> None:
        self.shard_id = shard_id
        self.seen = []
        self.api = RestApi()
        for method, template in SHARD_ROUTES:
            self.api.route(method, template, self.record)

    def record(self, request: Request) -> dict:
        self.seen.append((
            request.method, request.path, dict(request.query), dict(request.headers),
            request.body, dict(request.params),
        ))
        return {"shard": self.shard_id}


def reencoded(request_record) -> tuple:
    """What the shard saw when the router re-encoded the URL."""
    method, path, query, headers, body, _ = request_record
    oracle = RecordingShard(-1)
    url = f"{path}?{urlencode(query)}" if query else path
    oracle.api.dispatch(method, url, body, headers)
    (seen,) = oracle.seen
    return seen


QUERIES = [
    "",
    "?mode=sync",
    "?a=1&a=2&a=3",  # repeated keys: the last one wins
    "?blank=&other=x",
    "?plus=a+b&encoded_plus=a%2Bb&space=a%20b",
    "?slash=a%2Fb&question=%3F&amp=%26&eq=%3D&hash=%23&pct=%25",
    "?unicode=%C3%A9t%C3%A9&emoji=%F0%9F%93%A1",
    "?%6Bey=v&semi=a;b&colon=a:b&comma=0:15,1:7",
    "?novalue&=empty_key",
]

PATHS = [
    ("GET", "/v1/slices/slice-000042"),
    ("PATCH", "/v1/slices/slice%2D000042"),
    ("DELETE", "/v1/slices/a+b"),
    ("GET", "/v1/domains/ran"),
    ("POST", "/v1/slices"),
]


@pytest.mark.parametrize("query", QUERIES)
@pytest.mark.parametrize("method,path", PATHS)
@pytest.mark.parametrize("tenant", ["tenant-3", None])
def test_a_forwarded_request_arrives_as_the_reencoded_url_did(method, path, query, tenant):
    shards = [RecordingShard(0), RecordingShard(1)]
    router = ShardRouter(HashRing(2), shards)
    headers = {"X-Tenant-Id": tenant, "X-Request-Id": "r 1"} if tenant else {"Accept": "*/*"}
    body = {"tenant_id": "tenant-5", "throughput_mbps": 2.0} if method != "GET" else None
    response = router.dispatch(method, path + query, body, headers)
    assert response.status == 200, response.body
    seen = [record for shard in shards for record in shard.seen]
    assert len(seen) == (2 if path.startswith("/v1/domains/") else 1)  # domains fan out
    for record in seen:
        assert record == reencoded(record)


def test_the_table_keeps_the_first_registered_route():
    api = RestApi()
    api.route("GET", "/v1/things/{thing_id}", lambda r: {"by": "pattern", **r.params})
    assert api.get("/v1/things/special").body == {"by": "pattern", "thing_id": "special"}
    # A literal route registered later, after the table was built, still loses.
    api.route("GET", "/v1/things/special", lambda r: {"by": "literal"})
    assert api.get("/v1/things/special").body == {"by": "pattern", "thing_id": "special"}
    # A literal path's own routes come in registration order too.
    api.route("POST", "/v1/things/special", lambda r: {"by": "literal post"})
    api.route("POST", "/v1/things/{thing_id}", lambda r: {"by": "pattern post"})
    assert api.post("/v1/things/special").body == {"by": "literal post"}
    assert api.post("/v1/things/other").body == {"by": "pattern post"}


def test_404_and_405_answers_are_unchanged():
    shards = [RecordingShard(0), RecordingShard(1)]
    router = ShardRouter(HashRing(2), shards)
    missing = router.get("/v2/nowhere?x=1")
    assert missing.status == 404
    assert missing.body == {"error": {"code": "not_found", "message": "no route for /v2/nowhere"}}
    wrong = router.dispatch("put", "/v1/slices/slice-1")
    assert wrong.status == 405
    assert wrong.body == {
        "error": {"code": "method_not_allowed", "message": "method PUT not allowed"}
    }
    # A shard's own table answers a forwarded path it lacks the same way.
    shard = shards[0]
    forwarded = shard.api.handle(Request("GET", "/v1/operations/op-1"))
    assert forwarded.status == 404
    assert forwarded.body == shard.api.dispatch("GET", "/v1/operations/op-1").body
    assert shard.api.handle(Request("PUT", "/v1/slices/s")).body == (
        shard.api.dispatch("PUT", "/v1/slices/s").body
    )


def test_dispatch_parses_once_then_handles(monkeypatch):
    import repro.api.rest as rest

    parses = []
    real = rest.urlsplit
    monkeypatch.setattr(rest, "urlsplit", lambda url: parses.append(url) or real(url))
    shards = [RecordingShard(0), RecordingShard(1)]
    router = ShardRouter(HashRing(2), shards)
    router.get("/v1/slices/slice-1?x=1", headers={"x-tenant-id": "t"})
    router.get("/v1/slices/slice-1")  # unscoped: scatter-gather
    assert parses == ["/v1/slices/slice-1?x=1", "/v1/slices/slice-1"]
