"""Property-based equivalence of the switch's indexed flow table.

``OpenFlowSwitch`` keeps its table ordered by bisect insertion, rejects
duplicates from a ``(match, priority)`` set and removes a slice's
entries through a per-slice index.  A model that does what the table
used to do — linear duplicate scan, append + stable sort, rebuild on
removal — is driven through the same random schedule; after every step
the table, the removal counts and the rejections must agree and
``verify_index`` must pass.
"""

from __future__ import annotations

import os
import random
from typing import List

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.transport.switch import FlowEntry, FlowMatch, OpenFlowSwitch, SwitchError
from tests.conftest import flows_of

EXAMPLE_MULTIPLIER = int(os.environ.get("HYPOTHESIS_EXAMPLE_MULTIPLIER", "1"))

SLOW = settings(
    max_examples=40 * EXAMPLE_MULTIPLIER,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

PORTS = 8


class ScanTable:
    """The table as it was: a list, scanned and re-sorted."""

    def __init__(self) -> None:
        self.table: List[FlowEntry] = []

    def install(self, entry: FlowEntry) -> None:
        for existing in self.table:
            if existing.match == entry.match and existing.priority == entry.priority:
                raise SwitchError("duplicate flow")
        self.table.append(entry)
        self.table.sort(key=lambda e: (-e.priority, -e.match.specificity))

    def remove_slice_flows(self, slice_id) -> int:
        before = len(self.table)
        self.table = [e for e in self.table if e.slice_id != slice_id]
        return before - len(self.table)


def random_entry(rng: random.Random) -> FlowEntry:
    return FlowEntry(
        match=FlowMatch(
            plmn_id=rng.choice((None, "00101", "00102", "00103")),
            in_port=rng.choice((None, 0, 1, 2)),
        ),
        out_port=rng.randrange(PORTS),
        priority=rng.choice((10, 100, 100, 200)),
        slice_id=rng.choice((None, "s1", "s2", "s3", "s4")),
    )


@SLOW
@given(seed=st.integers(0, 10_000), steps=st.integers(10, 150))
def test_flow_table_matches_append_and_stable_sort(seed, steps):
    rng = random.Random(seed)
    switch, model = OpenFlowSwitch("sw", n_ports=PORTS), ScanTable()
    for _ in range(steps):
        if rng.random() < 0.7:
            entry = random_entry(rng)
            try:
                model.install(entry)
            except SwitchError:
                with pytest.raises(SwitchError):
                    switch.install(entry)
            else:
                switch.install(entry)
        else:
            slice_id = rng.choice((None, "s1", "s2", "s3", "s4"))
            assert switch.remove_slice_flows(slice_id) == model.remove_slice_flows(slice_id)
            assert flows_of(switch, slice_id) == []
        switch.verify_index()
        # Same entries in the same order — identity, not just equality.
        assert [id(e) for e in switch._table] == [id(e) for e in model.table]


def test_duplicate_is_rejected_again_after_remove_and_reinstall():
    switch = OpenFlowSwitch("sw", n_ports=PORTS)
    rule = dict(match=FlowMatch(plmn_id="00101"), priority=200)
    switch.install(FlowEntry(out_port=1, slice_id="s1", **rule))
    with pytest.raises(SwitchError):
        switch.install(FlowEntry(out_port=2, slice_id="s2", **rule))
    assert switch.remove_slice_flows("s1") == 1
    switch.install(FlowEntry(out_port=2, slice_id="s2", **rule))  # free again
    with pytest.raises(SwitchError):
        switch.install(FlowEntry(out_port=3, slice_id="s1", **rule))
    assert switch.remove_slice_flows("s1") == 0
    assert [e.slice_id for e in switch._table] == ["s2"]
    switch.verify_index()


def test_verify_index_catches_a_table_edited_behind_the_indices():
    switch = OpenFlowSwitch("sw", n_ports=PORTS)
    switch.install(FlowEntry(FlowMatch(plmn_id="00101"), out_port=1, slice_id="s1"))
    switch.install(FlowEntry(FlowMatch(plmn_id="00102"), out_port=1, slice_id="s2"))
    switch._table.pop()
    with pytest.raises(SwitchError):
        switch.verify_index()
