"""Pinned digests: the engine's seeded draws, value for value, across revisions.

``tests/properties/test_scenario_determinism.py`` checks that a run
repeats inside one process; these tests check that it repeats against
constants.  Same seed, same run, bit for bit: a change to how a value
is drawn (which numpy call, in which order, on which stream) must leave
every digest here where it is.  Each constant is a full SHA-256 hex
digest, computed with ``Generator.choice``/``Generator.uniform`` draw
loops and unchanged since those loops were rewritten.

* the two D13 packs at seed 42 (``benchmarks/ci_gate.py`` compares its
  own runs with the same two constants);
* ``CommuterTides`` at the e2e ``commuter`` size (600 users, 12 cells,
  a 7 200 s horizon) and ``VehicularCorridor``, seeds 1-5, each digest
  closed by the generator's next ``random()`` so the stream's state
  after the timeline is pinned too;
* one ``RequestGenerator(...).batch`` at a fixed seed (request ids come
  off a process-wide counter, so the id is left out of the image).
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from repro.scenarios import run_named
from repro.scenarios.mobility import CommuterTides, MobilityModel, VehicularCorridor
from repro.store.codec import request_to_dict
from repro.traffic.generator import RequestGenerator, RequestMix

D13_SEED = 42
D13_DIGESTS = {
    "commuter-failure-smoke": "646d0903dbff79e8a7ad0bb0b04fa03429b5fa722f7c7f72190c7ef478307ce1",
    "vehicular-corridor": "5effd87c2b15c3bd0445cf85b5882a63de9593550584468fce1698c492739d10",
}

#: The e2e ``commuter`` world: ``benchmarks/e2e/workloads.py`` SIZES["full"].
COMMUTER_SHAPE = (600, 12, 2 * 3_600.0)
CORRIDOR_SHAPE = (40, 8, 3_600.0)

COMMUTER_DIGESTS = {
    1: "5fa8f0d7746992f5c19f80b673d16f369a88c06246afcac173f8f0da1ab70715",
    2: "38c88fafd57e9b4273baa1ff10bca9260551215b2b8f1070d58b8e794733e0e8",
    3: "d2ca8ef7fcff01b0c611f47e7c7f9c4df969fba920a4e1e6d0ee5cef36002beb",
    4: "909b9fdd6560ac9bd6eb92c84726b54e67580786696b68016ed5229304eec9d7",
    5: "9386e75d62e887ddfe96458299ed8bbdc80400ac09ac470e91e1c572b3d41c93",
}
CORRIDOR_DIGESTS = {
    1: "261c1fc4e13dc3eb2a64224b8207cbffea6ad02a84a53475ece9dbb011504ed1",
    2: "eb36ae69b09e2247fdf26d75f7b3f51f1c6aa31a8ca6ad5fba2cddc7b6167092",
    3: "45e89ceda08901e31252a093727142e799c7784c9e1d1f81257d3a27f02037bd",
    4: "aeffb51b5facb20aba6e036e40a7c4241cd5b6676652b7bec06d780fb13630b5",
    5: "20e25eca6013dbeb093c0883b1f54eaca7028291ea37da9c9572b14d50ef3d95",
}

BATCH_SEED = 7
BATCH_RATE_PER_S = 1 / 30.0
BATCH_HORIZON_S = 6 * 3_600.0
BATCH_DIGEST = "97296c04f289826c9ac368fef8d53a24d7e4041e37f269b1a7993cd720428c7a"


def timeline_digest(model: MobilityModel, shape: tuple, seed: int) -> str:
    """SHA-256 of one seeded timeline (floats as ``float.hex``) and of
    the generator's next ``random()`` after it."""
    n_users, n_cells, horizon_s = shape
    rng = np.random.default_rng(seed)
    timeline = model.timeline(n_users, n_cells, horizon_s, rng)
    sha = hashlib.sha256()
    sha.update(repr([int(cell) for cell in timeline.initial_cells]).encode())
    for event in timeline.handovers:
        sha.update(
            f"{float.hex(event.time_s)} {event.user} {event.from_cell} "
            f"{event.to_cell};".encode()
        )
    sha.update(float.hex(rng.random()).encode())
    return sha.hexdigest()


def batch_digest(seed: int) -> str:
    """SHA-256 of one materialised request batch: each request's image
    without its id, each profile's class and fields, then the
    generator's next ``random()``."""
    rng = np.random.default_rng(seed)
    batch = RequestGenerator(rng, BATCH_RATE_PER_S, mix=RequestMix()).batch(BATCH_HORIZON_S)
    sha = hashlib.sha256()
    for request, profile in batch:
        image = request_to_dict(request)
        del image["request_id"]
        sha.update(json.dumps(image, sort_keys=True).encode())
        fields = sorted((name, float.hex(value)) for name, value in vars(profile).items())
        sha.update(repr((type(profile).__name__, fields)).encode())
    sha.update(float.hex(rng.random()).encode())
    return sha.hexdigest()


@pytest.mark.parametrize("pack", sorted(D13_DIGESTS))
def test_d13_pack_digest(pack):
    assert run_named(pack, seed=D13_SEED).digest == D13_DIGESTS[pack]


@pytest.mark.parametrize("seed", sorted(COMMUTER_DIGESTS))
def test_commuter_timeline_digest(seed):
    assert timeline_digest(CommuterTides(), COMMUTER_SHAPE, seed) == COMMUTER_DIGESTS[seed]


@pytest.mark.parametrize("seed", sorted(CORRIDOR_DIGESTS))
def test_corridor_timeline_digest(seed):
    assert timeline_digest(VehicularCorridor(), CORRIDOR_SHAPE, seed) == CORRIDOR_DIGESTS[seed]


def test_request_batch_digest():
    assert batch_digest(BATCH_SEED) == BATCH_DIGEST
