"""Smoke run of ``benchmarks/phase_probe.py`` at the workloads' mini size."""

from __future__ import annotations

import gc
import os

from benchmarks.phase_probe import PHASES, probe, table
from repro.store.journal import JournalRecord


def test_burst_reports_journal_bytes_fsyncs_and_collections_per_phase():
    to_line, fsync, hooks = JournalRecord.to_line, os.fsync, list(gc.callbacks)
    report = probe("burst", seed=1, size="mini", units=2)
    assert (JournalRecord.to_line, os.fsync, gc.callbacks) == (to_line, fsync, hooks)
    measured = report["measured"]
    kinds = measured["journal"]
    assert {"broker.enqueued", "install.started", "slice.installed"} <= set(kinds)
    assert measured["journal_records"] == sum(row["records"] for row in kinds.values())
    assert measured["journal_bytes"] == sum(row["bytes"] for row in kinds.values())
    # A window winner's install names its request by id: far smaller
    # than the enqueue that wrote the image.
    per_record = {kind: row["bytes"] / row["records"] for kind, row in kinds.items()}
    assert per_record["install.started"] < per_record["broker.enqueued"] / 2
    assert measured["fsyncs"]["repro.store.journal:Journal._fsync"] > 0
    assert report["setup"]["journal_records"] > 0
    assert sum(v["passes"] for phase in PHASES for v in report[phase]["gc"].values()) > 0
    assert "[measured]" in table(report)


def test_commuter_journals_nothing():
    report = probe("commuter", seed=1, size="mini", units=2)
    assert all(report[phase]["journal_records"] == 0 for phase in PHASES)
    assert all(report[phase]["fsyncs"] == {} for phase in PHASES)
