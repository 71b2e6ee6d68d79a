"""The orchestrator's three seams, each hiding one decision, as the
source reads.

- ``core/epoch.py`` owns the epoch: the live-slot table, the SLA
  monitor, the multiplexing-gain tracker and each live slice's books.
- ``store/image.py`` owns the durable image: the journal hooks and the
  fold of what they append, which a checkpoint writes.
- ``drivers/`` owns the southbound unwind: both install executors, the
  resize that compensates a refusal and the releases a backend refused.

A second copy of any of these in ``core/orchestrator.py`` fails here.
"""

from __future__ import annotations

import re

from tests.source_reading import enclosing_functions, source_of, src_lines_matching

ORCHESTRATOR = source_of("core/orchestrator.py")


def files(pattern: str, *roots: str) -> set:
    return {hit.split(":")[0] for hit in src_lines_matching(pattern, *roots)}


def test_the_epoch_state_is_held_and_written_in_core_epoch_only():
    for built in (r"\bLiveSlots\(", r"\bSlaMonitor\(", r"\bMultiplexingGainTracker\("):
        assert files(built) == {"core/epoch.py"}, built
    writes = r"\b(live_slots|sla_monitor|gain_tracker)\.(serve|sync|check|record)\("
    assert files(writes) == {"core/epoch.py"}
    # Elsewhere they are only read (the scenario report, the dashboard) ...
    assert files(r"\b(live_slots|sla_monitor|gain_tracker)\b") <= {
        "core/epoch.py", "scenarios/runner.py", "dashboard/dashboard.py",
    }
    # ... and the orchestrator names none of them, nor a slice's books.
    books = (
        r"\b(live_slots|sla_monitor|gain_tracker|LiveSlots)\b|demand_history|push_demand"
        r"|forecast_stale|\.forecaster\b|\.fit\(|record_epoch|book_penalty|sla\.violation"
        r"|\.(health|repair)\("
    )
    assert src_lines_matching(books, "core/orchestrator.py") == []


def test_the_durable_image_is_built_in_store_only():
    # One derivation: a fold of the records.  Only the store (the
    # leader's journal hooks, a restart) and the standby build or apply
    # one; nothing re-reads live objects into an image.
    built_or_applied = r"\bReplayState(\.\w+)?\(|\.apply\((record|\"event)"
    assert files(built_or_applied) == {
        "store/codec.py", "store/image.py", "store/store.py", "cluster/standby.py",
    }
    gone = (
        r"\blive_image\b|\b_live_inputs\b|\b_sections\b|\bLiveFragments\b|\b_pending_state\b"
        r"|\bdurable\.(state|verify|sections|changed)\b|\bfleet\.changed\b"
    )
    assert src_lines_matching(gone) == []
    # No image is re-derived or re-checked from live objects anywhere in
    # src; the one argument-free ``verify`` is the slice index's, which
    # checks its views against its own records.
    hits = src_lines_matching(r"\bdef (state|verify)\(self\)")
    assert [hit.split(":")[0] for hit in hits] == ["core/slices.py"]
    before, index_class = source_of("core/slices.py").split("\nclass SliceIndex:")
    assert "def verify(self)" in index_class.split("\nclass ")[0] and "def verify" not in before
    # The image's fields are written by the fold alone; the checkpoint
    # tops up the two it cannot see, the clock and the request counter.
    sections = r'"(in_flight|queued|advance|quotas|last_event_seq|last_request_ordinal)":'
    assert files(sections) == {"store/codec.py"}
    assert files(r"(?<!def )\bpeek_request_counter\(\)") == {"store/image.py"}
    image = source_of("store/image.py")
    assert enclosing_functions(image, r"\bpeek_request_counter\(\)") == ["checkpoint"]
    # The orchestrator reaches its store through the image's hooks only.
    assert src_lines_matching(
        r"store\.(append|checkpoint)\(|\basdict\(|request_to_dict\(request\) for",
        "core/orchestrator.py",
    ) == []


def test_only_the_drivers_unwind_a_slice():
    calls = r"\b(driver|done)\.(rollback|resize|release)\(|\.get\(domain\)\.release\("
    assert files(calls) == {"drivers/transaction.py"}
    transaction = source_of("drivers/transaction.py")
    assert enclosing_functions(transaction, r"\.resize\(") == ["resize_everywhere"] * 2
    assert enclosing_functions(transaction, r"\bregistry\.get\(domain\)\.release\(") == [
        "release"
    ]
    # One blocking executor: install_sequentially alone prepares and
    # commits on the calling thread, and only the orchestrator calls it.
    assert enclosing_functions(transaction, r"\bdriver\.(prepare|commit)\(") == [
        "install_sequentially"
    ] * 2
    assert files(r"(?<!def )\binstall_sequentially\(") == {"core/orchestrator.py"}
    # The orchestrator frees only its own books, and surfaces the
    # rollback notices either executor held in one place.
    lines = ORCHESTRATOR.splitlines()
    for hit in src_lines_matching(r"\.release\(", "core/orchestrator.py"):
        line = lines[int(hit.split(":")[1]) - 1]
        assert re.search(r"\b(plmn_pool|calendar|releases)\.release\(", line), line
    assert src_lines_matching(
        r"\bDriverAbsentError\b|\.(rollback|resize)\(|supports_resize|deferred_rollbacks",
        "core/orchestrator.py",
    ) == []
    assert enclosing_functions(ORCHESTRATOR, r'"driver\.rollback"') == ["_settle"]
