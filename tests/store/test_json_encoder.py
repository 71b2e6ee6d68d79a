"""The prebuilt JSON encoders write ``json.dumps``'s bytes.

Journal lines and :meth:`ReplayState.digest` go through
:data:`~repro.store.codec.encode_json` (compact separators), snapshot
members through the snapshot module's spaced twin; both are built once.
Each must equal ``json.dumps(..., sort_keys=True, default=json_default)``
with its separators on every line of the committed fixtures and on a
Hypothesis corpus of record dicts.
"""

from __future__ import annotations

import glob
import json
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.store import codec, snapshot
from repro.store.codec import json_default, prebuilt_encoder

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")
COMPACT, SPACED = (",", ":"), (", ", ": ")


def dumps(value, separators) -> str:
    return json.dumps(value, sort_keys=True, separators=separators, default=json_default)


@pytest.fixture
def encoders():
    """(compact, spaced) encoders, built afresh."""
    return prebuilt_encoder(*COMPACT), prebuilt_encoder(*SPACED)


def test_the_module_encoders_are_prebuilt_c_encoders():
    assert codec.c_make_encoder is not None
    assert codec.encode_json({"b": 1, "a": [1.5, None]}) == '{"a":[1.5,null],"b":1}'
    assert snapshot.encode_member("k", {"b": 1, "a": 2}) == '"k": {"a": 2, "b": 1}'


def test_every_fixture_line_and_snapshot_re_encodes_to_its_bytes(encoders):
    compact, spaced = encoders
    journals = glob.glob(os.path.join(FIXTURES, "*", "shard-*", "journal.jsonl"))
    snapshots = glob.glob(os.path.join(FIXTURES, "**", "snapshot-*.json"), recursive=True)
    assert len(journals) == 2 and len(snapshots) == 3
    for path in journals:
        with open(path) as handle:
            for line in handle.read().splitlines():
                assert compact(json.loads(line)) == line
    for path in snapshots:
        with open(path) as handle:
            body = handle.read()
        assert spaced(json.loads(body)) == body


scalars = st.one_of(
    st.none(), st.booleans(), st.integers(min_value=-(2**63), max_value=2**63),
    st.floats(allow_nan=False), st.text(max_size=12),
    st.integers(min_value=-(2**31), max_value=2**31).map(np.int64),
    st.floats(allow_nan=False, width=32).map(np.float32),
    st.booleans().map(np.bool_),
)
values = st.recursive(
    scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(st.text(max_size=8), inner, max_size=4),
        st.frozensets(st.integers(), max_size=4),
    ),
    max_leaves=24,
)
records = st.fixed_dictionaries({
    "lsn": st.integers(min_value=1, max_value=2**40),
    "t": st.floats(min_value=0.0, max_value=1e9),
    "type": st.sampled_from(["broker.enqueued", "install.started", "slice.installed"]),
    "data": st.dictionaries(st.text(max_size=10), values, max_size=6),
})


@settings(max_examples=200, deadline=None)
@given(record=records)
def test_a_record_corpus_encodes_byte_for_byte(record):
    compact, spaced = prebuilt_encoder(*COMPACT), prebuilt_encoder(*SPACED)
    assert compact(record) == dumps(record, COMPACT)
    assert spaced(record) == dumps(record, SPACED)
